"""The four workloads: their generated inputs and their output checks.

Each workload is an endless sequence of ops.  An op is one ``projpair``
command line (argv into ``projpair.cli.main``), the directory it writes,
and a check that, once the op has exited 0, reads what it wrote and returns
``None`` when the output is right, or the reason it is not.  Checks use oracles that do not depend
on the program's last-digit rounding: stop reasons, verdicts, inequalities
with margin, and for ``project-discrete`` a tolerance against the
continuous projector.  numpy and projpair are imported inside the oracles,
so that importing them stays part of the timed set-up.  See README.md for
why each workload exists.
"""

from __future__ import annotations

import hashlib
import itertools
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

# Shipped defaults the configs spell out, so the oracles can rebuild them.
VERTEX1 = (0.0, 80.0)
VERTEX2 = (-80.0, 0.0)
MU = -0.154

SOLVE_TOL = 1e-3
# Discrete bin averages against continuous bin-centre values at 1000^2 and
# 2 x 400 bins.  Probed at 2.2e-4 and 3.0e-4; the limit leaves a factor of
# ten for phantoms with smaller bumps.
DISCRETE_REL_L2 = 3e-3
SEPARABILITY_MARGIN = 0.9


@dataclass
class Op:
    argv: list[str]
    out: Path
    check: Callable[[], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    warmups: int
    ops: Callable[[Path, int], Iterator[Op]]


def op_seed(seed: int, index: int) -> int:
    """Seed the CLI gets for op ``index`` of a run seeded with ``seed``."""
    return seed * 100_003 + index


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="ascii")
    return str(path)


def _field(text: str, pattern: str) -> str:
    m = re.search(pattern, text)
    if m is None:
        raise ValueError(f"no match for {pattern!r}")
    return m.group(1)


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(out.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------


def solve_ops(tmp: Path, seed: int) -> Iterator[Op]:
    config = _write(tmp / "solve.ini", "# the shipped defaults: weighted fan/fan, 200^2, 2 x 100 bins\n")
    first: dict[str, str] = {}

    def check(out: Path) -> str | None:
        summary = (out / "summary.txt").read_text()
        stop = _field(summary, r"iterations = \d+ \((\w+)\)")
        residual = float(_field(summary, r"final relative residual = (\S+)"))
        if stop != "tolerance" or not residual <= SOLVE_TOL:
            return f"stop reason {stop}, final residual {residual}"
        digest = _digest(out)
        if first.setdefault("digest", digest) != digest:
            return "artifacts differ from the run's first op"
        return None

    for i in itertools.count():
        out = tmp / f"solve-{i}"
        argv = ["solve", "--config", config, "--out", str(out), "--seed", str(op_seed(seed, i))]
        yield Op(argv, out, lambda out=out: check(out))


CHECK_GEOMETRIES = {
    "par-par": "kind = par-par\ntheta1_deg = 0\ntheta2_deg = 90\n",
    "par-fan": f"kind = par-fan\ntheta1_deg = 0\nvertex2 = {VERTEX2[0]} {VERTEX2[1]}\nmu = 0\n",
    "fan-fan": f"kind = fan-fan\nvertex1 = {VERTEX1[0]} {VERTEX1[1]}\nvertex2 = {VERTEX2[0]} {VERTEX2[1]}\nmu = 0\n",
}


def check_ops(tmp: Path, seed: int) -> Iterator[Op]:
    configs = [
        _write(
            tmp / f"check-{kind}.ini",
            f"[geometry]\n{geometry}[detectors]\nbins1 = 4096\nbins2 = 4096\n"
            "[target]\nkind = phantom\n[phantom]\nkind = random\ncount = 3\n",
        )
        for kind, geometry in CHECK_GEOMETRIES.items()
    ]

    def check(out: Path) -> str | None:
        report = (out / "report.txt").read_text()
        verdict = _field(report, r"verdict = (\S+)")
        sides = [float(_field(report, rf"side{k} = (\S+)")) for k in (1, 2)]
        # a 3-bump phantom with positive amplitudes has nonzero moments, so
        # all-zero views cannot pass as consistent
        if verdict != "consistent" or not max(map(abs, sides)) > 0:
            return f"verdict {verdict}, sides {sides}"
        return None

    for i in itertools.count():
        out = tmp / f"check-{i}"
        config = configs[i % len(configs)]
        argv = ["check", "--config", config, "--out", str(out), "--seed", str(op_seed(seed, i))]
        yield Op(argv, out, lambda out=out: check(out))


def separability_ops(tmp: Path, seed: int) -> Iterator[Op]:
    configs = [
        (mu, _write(tmp / f"separability-{i}.ini", f"[geometry]\nkind = fan-fan\nmu = {mu}\n"))
        for i, mu in enumerate((MU, 0.0))
    ]

    def check(out: Path, mu: float) -> str | None:
        text = (out / "separability.txt").read_text()
        verdict = _field(text, r"verdict = (\S+)")
        max_d = float(_field(text, r"max \|D\| = (\S+)"))
        g = float(_field(text, r"double difference at the test tuple = (\S+)"))
        if mu == 0.0:
            return None if verdict == "separable" else f"mu = 0: verdict {verdict}"
        if verdict != "non-separable" or not max_d >= SEPARABILITY_MARGIN * abs(g):
            return f"mu = {mu}: verdict {verdict}, max|D| {max_d}, |G| {abs(g)}"
        return None

    for i in itertools.count():
        out = tmp / f"separability-{i}"
        mu, config = configs[i % 2]
        argv = ["separability", "--n1", "640", "--n2", "640", "--config", config, "--out", str(out)]
        yield Op(argv, out, lambda out=out, mu=mu: check(out, mu))


def _read_view(path: Path):
    import numpy as np

    lines = path.read_text().splitlines()
    _, n_bins, lo, hi = lines[1][2:].split(",")
    n, lo, hi = int(n_bins), float(lo), float(hi)
    centers = lo + (hi - lo) / n * (np.arange(n) + 0.5)
    values = np.array([float(line.split(",")[1]) for line in lines[3:]])
    return centers, values


def discrete_error(out: Path, cli_seed: int) -> list[float]:
    """Relative L2 distance of each discrete view from the continuous one."""
    import numpy as np

    from projpair.geometry import FanGeometry, reference_domain
    from projpair.phantom import random_phantom
    from projpair.projector import project_values

    phantom = random_phantom(np.random.default_rng(cli_seed), reference_domain(), n_bumps=3)
    errors = []
    for view, vertex in ((1, VERTEX1), (2, VERTEX2)):
        centers, values = _read_view(out / f"view{view}.csv")
        exact = project_values(FanGeometry(vertex=vertex, mu=MU), phantom, centers)
        errors.append(float(np.linalg.norm(values - exact) / np.linalg.norm(exact)))
    return errors


def project_discrete_ops(tmp: Path, seed: int) -> Iterator[Op]:
    config = _write(
        tmp / "project-discrete.ini",
        f"[geometry]\nkind = fan-fan\nvertex1 = {VERTEX1[0]} {VERTEX1[1]}\n"
        f"vertex2 = {VERTEX2[0]} {VERTEX2[1]}\nmu = {MU}\n"
        "[image]\nnx = 1000\nny = 1000\n[detectors]\nbins1 = 400\nbins2 = 400\n"
        "[phantom]\nkind = random\ncount = 3\n",
    )

    def check(out: Path, cli_seed: int) -> str | None:
        errors = discrete_error(out, cli_seed)
        if max(errors) <= DISCRETE_REL_L2:
            return None
        return f"relative L2 errors {errors} above {DISCRETE_REL_L2}"

    for i in itertools.count():
        out = tmp / f"project-{i}"
        cli_seed = op_seed(seed, i)
        argv = ["project", "--mode", "discrete", "--config", config, "--out", str(out), "--seed", str(cli_seed)]
        yield Op(argv, out, lambda out=out, s=cli_seed: check(out, s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve", 1, solve_ops),
        Workload("check", len(CHECK_GEOMETRIES), check_ops),
        Workload("separability", 2, separability_ops),
        Workload("project-discrete", 1, project_discrete_ops),
    )
}
