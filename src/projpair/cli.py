"""Command line interface.

Subcommands: ``project`` (continuous or discrete forward projection),
``check`` (range-condition test on data), ``separability`` (exponential
fan-fan surface test), ``solve`` (CGNE on the discrete pair).  Configuration
is an INI file; every key has a default reproducing the shipped reference
experiment, so an empty (or absent) config is valid.  Angles in config files
are degrees; the library works in radians.  Outputs are deterministic:
rerunning a command with the same config and seed writes byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .consistency import (
    eval_G,
    expo_surface,
    known_kernels,
    pprc_sides,
    separability_test,
)
from .discrete import (
    DetectorGrid,
    ImageGrid,
    PairOperator,
    ProjectionData,
    rasterize,
    read_projection_csv,
    write_image,
    write_pgm,
    write_projection_csv,
)
from .errors import ConfigurationError, ProjPairError
from .geometry import (
    ATTENUATION_MU,
    FanGeometry,
    ImageDomain,
    PairGeometry,
    ParGeometry,
    check_pair_admissible,
    fan_pair,
    lift_angle,
    reference_domain,
    view_range,
)
from .phantom import Bump, Phantom, random_phantom, reference_target
from .projector import project_view
from .solver import cgne_solve, predicted_residual_floor

_DEFAULTS = {
    "geometry": {
        "kind": "fan-fan",
        "vertex1": "0 80",
        "vertex2": "-80 0",
        "mu": str(ATTENUATION_MU),
        "theta1_deg": "0",
        "theta2_deg": "90",
    },
    "domain": {
        "kind": "reference",
        "half_width": "35",
        "half_height": "35",
        "center": "0 0",
        "radius": "30",
        "vertices": "",
    },
    "image": {"nx": "200", "ny": "200", "extent": "70"},
    "detectors": {"bins1": "100", "bins2": "100", "range1_deg": "", "range2_deg": ""},
    "target": {"kind": "reference", "file1": "", "file2": ""},
    "phantom": {"kind": "random", "count": "3", "bumps": "", "file": ""},
    "project": {"mode": "continuous"},
    "solver": {"max_iter": "2000", "tol": "1e-3"},
    "check": {"tol": "1e-6"},
    "separability": {"n1": "160", "n2": "160"},
    "output": {"pgm_window": "", "pgm_level": ""},
}

# The values each kind or mode key takes, compared stripped and lower-cased.
# _load_config refuses any other, so each builder's last branch serves the
# last choice without testing for it.
_CHOICES = {
    ("geometry", "kind"): ("fan-fan", "par-fan", "par-par"),
    ("domain", "kind"): ("reference", "rectangle", "disc", "polygon"),
    ("target", "kind"): ("reference", "files", "phantom"),
    ("phantom", "kind"): ("random", "list", "file"),
    ("project", "mode"): ("continuous", "discrete"),
}


class _Config(configparser.ConfigParser):
    """Config whose typed reads report a malformed value as a ConfigurationError.

    ``getint`` and ``getfloat`` also take ``minimum``, the smallest value
    they accept.
    """

    def _typed(self, read, section: str, option: str, kwargs, minimum=None):
        try:
            value = read(section, option, **kwargs)
        except ValueError:
            value = self.get(section, option, raw=True)
            raise ConfigurationError(f"[{section}] {option} = {value!r} is not a valid value") from None
        if minimum is not None and value < minimum:
            raise ConfigurationError(f"[{section}] {option} = {value!r} must be at least {minimum}")
        return value

    def getint(self, section, option, *, minimum=None, **kwargs):
        return self._typed(super().getint, section, option, kwargs, minimum)

    def getfloat(self, section, option, *, minimum=None, **kwargs):
        value = self._typed(super().getfloat, section, option, kwargs, minimum)
        if not math.isfinite(value):
            raise ConfigurationError(f"[{section}] {option} = {value!r} is not a finite number")
        return value


def _load_config(path: str | None) -> tuple[configparser.ConfigParser, str]:
    """The config read over the defaults, and the raw text of the file.

    A section or key the defaults do not have, or a kind or mode outside
    its choices, is a ConfigurationError, raised before any output exists.
    """
    cp = _Config(interpolation=None)  # a "%" in a value is literal
    cp.read_dict(_DEFAULTS)
    raw = ""
    if path:
        p = Path(path)
        if not p.is_file():
            raise ConfigurationError(f"config file not found: {path}")
        raw = p.read_text(encoding="utf-8")
        try:
            cp.read_string(raw)
        except configparser.Error as exc:
            raise ConfigurationError(f"malformed config: {exc}") from exc
    for name, section in cp.items():  # the DEFAULT section first
        if name not in _DEFAULTS and name != cp.default_section:
            raise ConfigurationError(f"unknown config section [{name}]")
        unknown = [key for key in section if key not in _DEFAULTS.get(name, ())]
        if unknown:
            raise ConfigurationError(f"unknown config key [{name}] {unknown[0]}")
    for (name, key), choices in _CHOICES.items():
        value = cp[name][key].strip().lower()
        if value not in choices:
            raise ConfigurationError(f"[{name}] {key} = {value!r} is not one of {', '.join(choices)}")
    return cp, raw


def _floats(text: str, what: str) -> list[float]:
    """The finite numbers in a comma- or space-separated list."""
    try:
        vals = [float(v) for v in text.replace(",", " ").split()]
        if all(map(math.isfinite, vals)):
            return vals
    except ValueError:
        pass
    raise ConfigurationError(f"{what} must be finite numbers, got {text!r}")


def _parse_vec(text: str, what: str) -> tuple[float, float]:
    vals = _floats(text, what)
    if len(vals) != 2:
        raise ConfigurationError(f"{what} needs two numbers, got {text!r}")
    return vals[0], vals[1]


def _build_domain(cp: configparser.ConfigParser) -> ImageDomain:
    sec = cp["domain"]
    kind = sec["kind"].strip().lower()
    if kind == "reference":
        return reference_domain()
    if kind == "rectangle":
        cx, cy = _parse_vec(sec["center"], "domain center")
        return ImageDomain.rectangle(sec.getfloat("half_width"), sec.getfloat("half_height"), center=(cx, cy))
    if kind == "disc":
        cx, cy = _parse_vec(sec["center"], "domain center")
        return ImageDomain.disc((cx, cy), sec.getfloat("radius"))
    vals = _floats(sec["vertices"], "polygon vertices")
    if len(vals) < 6 or len(vals) % 2:
        raise ConfigurationError("polygon vertices must be an even list of at least six numbers")
    return ImageDomain.polygon(np.array(vals).reshape(-1, 2))


def _auto_theta0(vertex, domain: ImageDomain) -> float:
    pts = domain.boundary_points(256)
    d = pts - np.asarray(vertex, float)
    ang = np.arctan2(d[:, 1], d[:, 0])
    mean = np.angle(np.mean(np.exp(1j * ang)))
    return float(mean - math.pi)


def _build_pair(cp: configparser.ConfigParser) -> PairGeometry:
    sec = cp["geometry"]
    kind = sec["kind"].strip().lower()
    domain = _build_domain(cp)
    mu = sec.getfloat("mu")
    if kind == "fan-fan":
        v1 = _parse_vec(sec["vertex1"], "vertex1")
        v2 = _parse_vec(sec["vertex2"], "vertex2")
        return fan_pair(v1, v2, mu, domain)
    if kind == "par-fan":
        theta = math.radians(sec.getfloat("theta1_deg"))
        v2 = _parse_vec(sec["vertex2"], "vertex2")
        return PairGeometry(
            first=ParGeometry(theta=theta),
            second=FanGeometry(vertex=v2, theta0=_auto_theta0(v2, domain), mu=mu),
            domain=domain,
        )
    return PairGeometry(
        first=ParGeometry(theta=math.radians(sec.getfloat("theta1_deg"))),
        second=ParGeometry(theta=math.radians(sec.getfloat("theta2_deg"))),
        domain=domain,
    )


def _build_detectors(cp: configparser.ConfigParser, pair: PairGeometry) -> tuple[DetectorGrid, DetectorGrid]:
    sec = cp["detectors"]
    grids = []
    for view, geom in ((1, pair.first), (2, pair.second)):
        n = sec.getint(f"bins{view}")
        spec = sec[f"range{view}_deg"].strip()
        if spec:
            lo, hi = _parse_vec(spec, f"range{view}_deg")
            if isinstance(geom, FanGeometry):
                lo, hi = math.radians(lo), math.radians(hi)
                lo = float(lift_angle(lo, geom.theta0))
                hi = float(lift_angle(hi, geom.theta0))
                if hi <= lo:
                    hi += 2.0 * math.pi
        else:
            lo, hi = view_range(geom, pair.domain, n_boundary=4096)
        grids.append(DetectorGrid(view, n, lo, hi))
    return grids[0], grids[1]


def _build_phantom(cp: configparser.ConfigParser, pair: PairGeometry, seed: int) -> Phantom:
    sec = cp["phantom"]
    kind = sec["kind"].strip().lower()
    if kind == "random":
        rng = np.random.default_rng(seed)
        return random_phantom(rng, pair.domain, n_bumps=sec.getint("count"))
    if kind == "list":
        rows = sec["bumps"].split(";")
    else:
        path = sec["file"].strip()
        if not path:
            raise ConfigurationError("phantom kind 'file' needs a file path")
        try:
            text = Path(path).read_text()
        except (OSError, ValueError) as exc:
            raise ConfigurationError(f"cannot read phantom file {path}: {exc}") from None
        rows = [line.split("#")[0] for line in text.splitlines()]
    bumps = []
    for row in filter(None, map(str.strip, rows)):
        vals = _floats(row, "bump row")
        if len(vals) != 4:
            raise ConfigurationError(f"bump row needs 'cx cy radius amplitude', got {row!r}")
        bumps.append(Bump(center=(vals[0], vals[1]), radius=vals[2], amplitude=vals[3]))
    return Phantom(bumps=tuple(bumps))


def _build_target(cp, pair, dets, seed) -> tuple[ProjectionData, ProjectionData]:
    sec = cp["target"]
    kind = sec["kind"].strip().lower()
    if kind == "reference":
        return reference_target(*dets)
    if kind == "files":
        f1, f2 = sec["file1"].strip(), sec["file2"].strip()
        if not f1 or not f2:
            raise ConfigurationError("target kind 'files' needs file1 and file2")
        return read_projection_csv(f1), read_projection_csv(f2)
    ph = _build_phantom(cp, pair, seed)
    return project_view(pair.first, ph, dets[0]), project_view(pair.second, ph, dets[1])


def _write_common(outdir: Path, cp: configparser.ConfigParser, raw: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config_used.ini").write_text(raw, encoding="utf-8")
    with open(outdir / "config_resolved.ini", "w", encoding="utf-8") as fh:
        cp.write(fh)


def _phantom_text(ph: Phantom) -> str:
    lines = ["# cx cy radius amplitude"]
    for b in ph.bumps:
        lines.append(
            " ".join(format(v, ".17g") for v in (b.center[0], b.center[1], b.radius, b.amplitude))
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, outdir: Path | None, name: str) -> None:
    sys.stdout.write(text)
    if outdir is not None:
        (outdir / name).write_text(text, encoding="ascii")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_project(args) -> int:
    cp, raw = _load_config(args.config)
    if args.mode:
        cp["project"]["mode"] = args.mode
    pair = _build_pair(cp)
    dets = _build_detectors(cp, pair)
    outdir = Path(args.out)
    _write_common(outdir, cp, raw)
    ph = _build_phantom(cp, pair, args.seed)
    (outdir / "phantom_used.txt").write_text(_phantom_text(ph), encoding="ascii")
    mode = cp["project"]["mode"].strip().lower()
    if mode == "continuous":
        d1 = project_view(pair.first, ph, dets[0])
        d2 = project_view(pair.second, ph, dets[1])
    else:
        sec = cp["image"]
        image = ImageGrid.from_domain(sec.getint("nx"), sec.getint("ny"), pair.domain, sec.getfloat("extent"))
        op = PairOperator(pair, image, dets[0], dets[1])
        f = rasterize(ph, op.image)
        g1, g2 = np.split(op.forward(f), [dets[0].n_bins])
        d1 = ProjectionData(grid=dets[0], values=g1)
        d2 = ProjectionData(grid=dets[1], values=g2)
        write_image(outdir / "phantom.img", op.image, f)
    write_projection_csv(outdir / "view1.csv", d1)
    write_projection_csv(outdir / "view2.csv", d2)
    _emit(
        "project: mode={} bumps={} bins=({}, {}) max=({:.6g}, {:.6g})\n".format(
            mode, len(ph.bumps), dets[0].n_bins, dets[1].n_bins,
            float(np.max(d1.values)), float(np.max(d2.values)),
        ),
        outdir,
        "summary.txt",
    )
    return 0


def cmd_check(args) -> int:
    cp, raw = _load_config(args.config)
    if args.tol is not None:
        cp["check"]["tol"] = format(args.tol, ".17g")
    tol = cp["check"].getfloat("tol", minimum=0.0)
    pair = _build_pair(cp)
    admiss = check_pair_admissible(pair)
    admiss.require()
    dets = _build_detectors(cp, pair)
    outdir = Path(args.out)
    _write_common(outdir, cp, raw)
    kernels = known_kernels(pair)
    if kernels is None:
        _emit(
            f"check: no kernels exist for this pair (exponential {pair.kind}, mu != 0); "
            "every nonzero-mean datum is unobstructed\n",
            outdir,
            "report.txt",
        )
        return 2
    target = _build_target(cp, pair, dets, args.seed)
    worst_name = min(admiss.margins, key=admiss.margins.get)
    left, right = pprc_sides(target, kernels)
    residual = left - right
    scale = max(abs(left), abs(right))
    rel = abs(residual) / scale if scale > 0 else abs(residual)
    consistent = rel <= tol
    text = (
        f"check: kind={pair.kind} kernels={kernels.label!r}\n"
        f"  admissible = {admiss.passed} (tightest margin {worst_name} = "
        f"{admiss.margins[worst_name]:.6g})\n"
        f"  side1 = {left:.17g}\n  side2 = {right:.17g}\n"
        f"  residual = {residual:.17g}\n  relative = {rel:.17g}\n  tol = {tol:.17g}\n"
        f"  verdict = {'consistent' if consistent else 'INCONSISTENT'}\n"
    )
    _emit(text, outdir, "report.txt")
    return 0 if consistent else 1


def _test_tuple(theta0: float) -> tuple[float, float, float, float]:
    base = theta0 + math.pi
    return (base + math.pi / 4.0, base + math.pi / 6.0, base, base - math.pi / 6.0)


def _separability_axes(theta0: float, n1: int, n2: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``r1`` and ``r2`` axes of ``projpair separability``: ``n1`` and
    ``n2`` evenly spaced angles, with the test tuple's angles added."""
    margin = math.pi / 48.0
    lo, hi = theta0 + 0.5 * math.pi + margin, theta0 + 1.5 * math.pi - margin
    tup = _test_tuple(theta0)
    r1_axis = np.union1d(np.linspace(theta0 + math.pi, hi, n1), [tup[0], tup[1]])
    r2_axis = np.union1d(np.linspace(lo, theta0 + math.pi, n2), [tup[2], tup[3]])
    return r1_axis, r2_axis


def cmd_separability(args) -> int:
    cp, raw = _load_config(args.config)
    if args.n1 is not None:
        cp["separability"]["n1"] = str(args.n1)
    if args.n2 is not None:
        cp["separability"]["n2"] = str(args.n2)
    ssec = cp["separability"]
    n1, n2 = ssec.getint("n1", minimum=2), ssec.getint("n2", minimum=2)
    sec = cp["geometry"]
    if sec["kind"].strip().lower() != "fan-fan":
        raise ConfigurationError("separability applies to fan-fan geometry")
    pair = _build_pair(cp)
    check_pair_admissible(pair).require()
    outdir = Path(args.out)
    _write_common(outdir, cp, raw)
    v1 = pair.first.vertex_xy
    v2 = pair.second.vertex_xy
    mu = pair.first.mu
    theta0 = pair.first.theta0
    tup = _test_tuple(theta0)
    r1_axis, r2_axis = _separability_axes(theta0, n1, n2)
    L = expo_surface(pair, r1_axis, r2_axis)
    report = separability_test(L, r1_axis, r2_axis)
    g_tuple = float(eval_G(tup[0], tup[1], tup[2], tup[3], mu, v2 - v1))
    text = (
        f"separability: mu = {mu:.17g}, grid = {len(r1_axis)} x {len(r2_axis)}\n"
        f"  scale (max |L|) = {report.scale:.17g}\n"
        f"  max |D| = {report.max_abs_D:.17g}\n"
        f"  threshold = {report.threshold:.17g}\n"
        f"  argmax (r1, r1', r2, r2') rad = "
        + " ".join(format(v, ".17g") for v in report.argmax)
        + "\n"
        f"  double difference at the test tuple = {g_tuple:.17g}\n"
        f"  verdict = {report.verdict}\n"
    )
    _emit(text, outdir, "separability.txt")
    return 0


def _central_profile(op: PairOperator, f: np.ndarray, view: int) -> str:
    """CSV of ``f`` at 512 points evenly spread along the view's central ray
    where it crosses the image square."""
    n_samples = 512
    geom = (op.pair.first, op.pair.second)[view - 1]
    v, d = geom.ray(op.dets[view - 1].center)
    half = 0.5 * op.image.extent
    ts = []
    for axis in (0, 1):
        if abs(d[axis]) > 1e-15:
            ts.extend([(-half - v[axis]) / d[axis], (half - v[axis]) / d[axis]])
    ts = [t for t in ts if t > 0]
    t_lo, t_hi = min(ts), max(ts)
    dx, dy = op.image.pixel_size
    img = f.reshape(op.image.ny, op.image.nx)
    lines = ["t,x,y,value"]
    for k in range(n_samples):
        t = t_lo + (t_hi - t_lo) * (k + 0.5) / n_samples
        x, y = v + t * d
        ix = int(math.floor((x + half) / dx))
        iy = int(math.floor((y + half) / dy))
        if 0 <= ix < op.image.nx and 0 <= iy < op.image.ny:
            val = img[iy, ix]
            lines.append(
                ",".join(format(q, ".17g") for q in (t, x, y, float(val)))
            )
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    cp, raw = _load_config(args.config)
    if args.max_iter is not None:
        cp["solver"]["max_iter"] = str(args.max_iter)
    if args.tol is not None:
        cp["solver"]["tol"] = format(args.tol, ".17g")
    tol = cp["solver"].getfloat("tol", minimum=0.0)
    pair = _build_pair(cp)
    if pair.kind != "fan-fan":
        raise ConfigurationError("solve needs fan-fan geometry")
    dets = _build_detectors(cp, pair)
    outdir = Path(args.out)
    _write_common(outdir, cp, raw)
    isec = cp["image"]
    image = ImageGrid.from_domain(isec.getint("nx"), isec.getint("ny"), pair.domain, isec.getfloat("extent"))
    op = PairOperator(pair, image, dets[0], dets[1])
    target = _build_target(cp, pair, dets, args.seed)
    g = np.concatenate([d.values for d in target])
    state = cgne_solve(op, g, max_iter=cp["solver"].getint("max_iter"), tol=tol)
    write_image(outdir / "iterate.img", op.image, state.iterate)
    wsec = cp["output"]
    window = wsec.getfloat("pgm_window") if wsec["pgm_window"].strip() else None
    level = wsec.getfloat("pgm_level") if wsec["pgm_level"].strip() else None
    write_pgm(outdir / "iterate.pgm", op.image, state.iterate, window=window, level=level)
    hist_lines = ["iteration,relative_residual"]
    hist_lines += [f"{k},{format(v, '.17g')}" for k, v in enumerate(state.residual_history)]
    (outdir / "residuals.csv").write_text("\n".join(hist_lines) + "\n", encoding="ascii")
    (outdir / "profile_view1.csv").write_text(_central_profile(op, state.iterate, 1), encoding="ascii")
    (outdir / "profile_view2.csv").write_text(_central_profile(op, state.iterate, 2), encoding="ascii")
    kernels = known_kernels(pair)
    if kernels is None:
        floor_text = "none (no kernels exist for mu != 0)"
    else:
        floor = predicted_residual_floor(target, kernels)
        floor_text = format(floor / float(np.linalg.norm(g)) if np.linalg.norm(g) > 0 else floor, ".17g")
        floor_text += " (relative)"
    text = (
        f"solve: image = {op.image.nx} x {op.image.ny}, bins = ({dets[0].n_bins}, {dets[1].n_bins}), "
        f"mu = {pair.first.mu:.17g}\n"
        f"  iterations = {state.iterations} ({state.stop_reason})\n"
        f"  final relative residual = {state.final_residual:.17g}\n"
        f"  predicted residual floor = {floor_text}\n"
    )
    _emit(text, outdir, "summary.txt")
    return 0


# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Parser whose usage errors raise ConfigurationError (exit 5), so they
    never take exit 2, which ``check`` keeps for "no kernels exist"."""

    def error(self, message):
        raise ConfigurationError(f"{self.prog}: {message}")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", default=None, help="INI config file (all keys optional)")
    sub.add_argument("--out", default="out", help="output directory (default: ./out)")
    sub.add_argument("--seed", type=int, default=20240501, help="seed for generated phantoms")


def main(argv: list[str] | None = None) -> int:
    parser = _ArgumentParser(prog="projpair", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("project", help="forward-project a phantom")
    _add_common(p)
    p.add_argument("--mode", choices=["continuous", "discrete"], default=None)
    p.set_defaults(func=cmd_project)

    p = subs.add_parser("check", help="range-condition check on a data pair")
    _add_common(p)
    p.add_argument("--tol", type=float, default=None, help="relative consistency tolerance")
    p.set_defaults(func=cmd_check)

    p = subs.add_parser("separability", help="test the exponential fan-fan surface")
    _add_common(p)
    p.add_argument("--n1", type=int, default=None)
    p.add_argument("--n2", type=int, default=None)
    p.set_defaults(func=cmd_separability)

    p = subs.add_parser("solve", help="CGNE solve of the discrete pair system")
    _add_common(p)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=cmd_solve)

    try:
        args = parser.parse_args(argv)
        if args.seed < 0:
            parser.error(f"argument --seed: must be non-negative, got {args.seed}")
        return args.func(args)
    except ProjPairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
