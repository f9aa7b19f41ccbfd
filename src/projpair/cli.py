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
import io
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .consistency import (
    _require_view_order,
    eval_G,
    expo_surface,
    known_kernels,
    pprc_sides,
    predicted_residual_floor,
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
from .errors import ConfigurationError, ProjPairError, SingularPointError
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
from .parallel import two_threads
from .phantom import Bump, Phantom, random_phantom, reference_target
from .projector import project_view
from .solver import cgne_solve


# Value parsers: each takes a config value's text (stripped by configparser)
# and returns the typed value, or raises ValueError with the reason.


def _finite(text: str) -> float:
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ValueError(f"{text!r} is not a finite number")


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not an integer") from None


def _floats(text: str) -> list[float]:
    """The finite numbers in a comma- or space-separated list."""
    return [_finite(v) for v in text.replace(",", " ").split()]


def _point(text: str) -> tuple[float, float]:
    vals = _floats(text)
    if len(vals) != 2:
        raise ValueError("needs two numbers")
    return vals[0], vals[1]


def _vertices(text: str) -> np.ndarray:
    vals = _floats(text)
    if len(vals) % 2:
        raise ValueError("needs (x, y) pairs")
    return np.reshape(vals, (-1, 2))


def _bumps(rows) -> tuple[Bump, ...]:
    """One bump per nonblank row of ``cx cy radius amplitude``."""
    bumps = []
    for row in filter(None, map(str.strip, rows)):
        vals = _floats(row)
        if len(vals) != 4:
            raise ValueError(f"bump row {row!r} is not 'cx cy radius amplitude'")
        cx, cy, radius, amplitude = vals
        bumps.append(Bump(center=(cx, cy), radius=radius, amplitude=amplitude))
    return tuple(bumps)


def _bounded(parse, minimum: float, inclusive: bool = True):
    """``parse``, refusing values below ``minimum`` (or at it, unless ``inclusive``)."""

    def checked(text: str):
        value = parse(text)
        if value < minimum or (value == minimum and not inclusive):
            raise ValueError(f"must be {'at least' if inclusive else 'above'} {minimum}")
        return value

    return checked


def _optional(parse):
    """``parse``, reading an empty value as None."""
    return lambda text: parse(text) if text else None


# Each config key's default text and parser.  The parser of a kind or mode
# key is the tuple of its choices, compared lower-cased; _load_config refuses
# any other, so each builder's last branch serves the last choice without
# testing for it.
_SCHEMA = {
    "geometry": {
        "kind": ("fan-fan", ("fan-fan", "par-fan", "par-par")),
        "vertex1": ("0 80", _point),
        "vertex2": ("-80 0", _point),
        "mu": (str(ATTENUATION_MU), _finite),
        "theta1_deg": ("0", _finite),
        "theta2_deg": ("90", _finite),
    },
    "domain": {
        "kind": ("reference", ("reference", "rectangle", "disc", "polygon")),
        "half_width": ("35", _finite),
        "half_height": ("35", _finite),
        "center": ("0 0", _point),
        "radius": ("30", _finite),
        "vertices": ("", _vertices),
    },
    "image": {"nx": ("200", _integer), "ny": ("200", _integer), "extent": ("70", _finite)},
    "detectors": {
        "bins1": ("100", _integer),
        "bins2": ("100", _integer),
        "range1_deg": ("", _optional(_point)),
        "range2_deg": ("", _optional(_point)),
    },
    "target": {"kind": ("reference", ("reference", "files", "phantom")), "file1": ("", str), "file2": ("", str)},
    "phantom": {
        "kind": ("random", ("random", "list", "file")),
        "count": ("3", _integer),
        "bumps": ("", lambda text: _bumps(text.split(";"))),
        "file": ("", str),
    },
    "project": {"mode": ("continuous", ("continuous", "discrete"))},
    "solver": {"max_iter": ("2000", _bounded(_integer, 0)), "tol": ("1e-3", _bounded(_finite, 0.0))},
    "check": {"tol": ("1e-6", _bounded(_finite, 0.0))},
    "separability": {"n1": ("160", _bounded(_integer, 2)), "n2": ("160", _bounded(_integer, 2))},
    "output": {
        "pgm_window": ("", _optional(_bounded(_finite, 0.0, inclusive=False))),
        "pgm_level": ("", _optional(_finite)),
    },
}


def _load_config(path: str | None, **overrides: dict) -> tuple[dict, str, str]:
    """The typed config values, the raw text of the file, and the resolved
    config as written to ``config_resolved.ini``.

    ``overrides`` maps a section to command-line values for its keys; a
    value of None leaves the key as configured.  Every key is parsed, those
    the command does not read included.  A section or key the schema does
    not have, or a value its parser refuses, is a ConfigurationError,
    raised before any output exists.
    """
    cp = configparser.ConfigParser(interpolation=None)  # a "%" in a value is literal
    cp.read_dict({name: {key: default for key, (default, _) in keys.items()} for name, keys in _SCHEMA.items()})
    raw = ""
    if path:
        p = Path(path)
        if not p.is_file():
            raise ConfigurationError(f"config file not found: {path}")
        try:
            raw = p.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigurationError(f"cannot read config file {path}: {exc}") from None
        try:
            cp.read_string(raw)
        except configparser.Error as exc:
            raise ConfigurationError(f"malformed config: {exc}") from exc
    for name, values in overrides.items():
        for key, value in values.items():
            if value is not None:
                cp[name][key] = format(value, ".17g") if isinstance(value, float) else str(value)
    for name, section in cp.items():  # the DEFAULT section first
        if name not in _SCHEMA and name != cp.default_section:
            raise ConfigurationError(f"unknown config section [{name}]")
        unknown = [key for key in section if key not in _SCHEMA.get(name, ())]
        if unknown:
            raise ConfigurationError(f"unknown config key [{name}] {unknown[0]}")
    cfg: dict[str, dict] = {}
    for name, keys in _SCHEMA.items():
        cfg[name] = {}
        for key, (_, parse) in keys.items():
            text = cp[name][key]
            try:
                if isinstance(parse, tuple):
                    if text.lower() not in parse:
                        raise ValueError(f"not one of {', '.join(parse)}")
                    cfg[name][key] = text.lower()
                else:
                    cfg[name][key] = parse(text)
            except ValueError as exc:
                raise ConfigurationError(f"[{name}] {key} = {text!r}: {exc}") from None
    resolved = io.StringIO()
    cp.write(resolved)
    return cfg, raw, resolved.getvalue()


def _build_domain(cfg: dict) -> ImageDomain:
    sec = cfg["domain"]
    if sec["kind"] == "reference":
        return reference_domain()
    if sec["kind"] == "rectangle":
        return ImageDomain.rectangle(sec["half_width"], sec["half_height"], center=sec["center"])
    if sec["kind"] == "disc":
        return ImageDomain.disc(sec["center"], sec["radius"])
    return ImageDomain.polygon(sec["vertices"])


def _build_pair(cfg: dict) -> PairGeometry:
    sec = cfg["geometry"]
    domain = _build_domain(cfg)
    if sec["kind"] == "fan-fan":
        return fan_pair(sec["vertex1"], sec["vertex2"], sec["mu"], domain)
    if sec["kind"] == "par-fan":
        # the fan's branch cut points from its vertex away from the domain's
        # reference point, so it misses a convex domain the vertex lies outside
        (x, y), (rx, ry) = sec["vertex2"], domain.reference_point()
        return PairGeometry(
            first=ParGeometry(theta=math.radians(sec["theta1_deg"])),
            second=FanGeometry(vertex=(x, y), theta0=math.atan2(ry - y, rx - x) - math.pi, mu=sec["mu"]),
            domain=domain,
        )
    return PairGeometry(
        first=ParGeometry(theta=math.radians(sec["theta1_deg"])),
        second=ParGeometry(theta=math.radians(sec["theta2_deg"])),
        domain=domain,
    )


def _build_detectors(cfg: dict, pair: PairGeometry) -> tuple[DetectorGrid, DetectorGrid]:
    sec = cfg["detectors"]
    grids = []
    for view, geom in ((1, pair.first), (2, pair.second)):
        n = sec[f"bins{view}"]
        spec = sec[f"range{view}_deg"]
        if spec:
            lo, hi = spec
            if isinstance(geom, FanGeometry):
                # ends a whole turn apart lift to equal angles, or to
                # angles an ulp apart either way: no width to give them
                if (hi - lo) % 360.0 == 0.0:
                    raise ConfigurationError(f"[detectors] range{view}_deg = {lo:g} {hi:g}: "
                                             "the ends are a whole number of turns apart")
                lo, hi = math.radians(lo), math.radians(hi)
                lo = float(lift_angle(lo, geom.theta0))
                hi = float(lift_angle(hi, geom.theta0))
                if hi < lo:  # the range crosses the branch cut
                    hi += 2.0 * math.pi
        else:
            try:
                lo, hi = view_range(geom, pair.domain)
            except SingularPointError:
                # a fan vertex on a domain vertex: refuse the pair as check
                # does, naming its failing margins, should it fail them
                check_pair_admissible(pair).require()
                raise
        grids.append(DetectorGrid(view, n, lo, hi))
    return grids[0], grids[1]


def _build_image(cfg: dict, pair: PairGeometry) -> ImageGrid:
    sec = cfg["image"]
    return ImageGrid.from_domain(sec["nx"], sec["ny"], pair.domain, sec["extent"])


def _build_phantom(cfg: dict, pair: PairGeometry, seed: int) -> Phantom:
    sec = cfg["phantom"]
    if sec["kind"] == "random":
        return random_phantom(np.random.default_rng(seed), pair.domain, n_bumps=sec["count"])
    if sec["kind"] == "list":
        return Phantom(bumps=sec["bumps"])
    path = sec["file"]
    if not path:
        raise ConfigurationError("phantom kind 'file' needs a file path")
    try:
        rows = [line.split("#")[0] for line in Path(path).read_text().splitlines()]
        return Phantom(bumps=_bumps(rows))
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read phantom file {path}: {exc}") from None


def _build_target(cfg, pair, dets, seed) -> tuple[ProjectionData, ProjectionData]:
    sec = cfg["target"]
    if sec["kind"] == "reference":
        return reference_target(*dets)
    if sec["kind"] == "files":
        if not sec["file1"] or not sec["file2"]:
            raise ConfigurationError("target kind 'files' needs file1 and file2")
        target = read_projection_csv(sec["file1"]), read_projection_csv(sec["file2"])
        _require_view_order(data.grid for data in target)
        return target
    return _project_pair(pair, _build_phantom(cfg, pair, seed), dets)


def _project_pair(pair: PairGeometry, ph: Phantom, dets) -> tuple[ProjectionData, ProjectionData]:
    """Both views of ``ph``, projected on two threads.  Each view's arithmetic
    is its own, so the values are those of two calls in turn; so are the
    errors: view 1's is raised first, then view 2's.  numpy releases the
    GIL in the quadrature's array passes.  On 2 vCPUs the threads gain on
    views of thousands of bins and lose about 1 ms a pair at 100 bins
    (ROADMAP's carried-over note on the two threads has the numbers)."""
    return two_threads(lambda view: project_view(view[0], ph, view[1]), (pair.first, dets[0]), (pair.second, dets[1]))


def _write_common(outdir: Path, raw: str, resolved: str) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config_used.ini").write_text(raw, encoding="utf-8")
    (outdir / "config_resolved.ini").write_text(resolved, encoding="utf-8")


def _phantom_text(ph: Phantom) -> str:
    lines = ["# cx cy radius amplitude"]
    for b in ph.bumps:
        lines.append(
            " ".join(format(v, ".17g") for v in (b.center[0], b.center[1], b.radius, b.amplitude))
        )
    return "\n".join(lines) + "\n"


def _emit(text: str, outdir: Path, name: str) -> None:
    sys.stdout.write(text)
    (outdir / name).write_text(text, encoding="ascii")


# ---------------------------------------------------------------------------
# Subcommands: each builds what its config describes before it writes a file.


def cmd_project(args) -> int:
    """Both views of the phantom, by quadrature or, in discrete mode, as
    :meth:`PairOperator.forward` of the rasterized phantom ``f``.

    Domain membership and ``f`` are computed only within the bumps' boxes
    of pixel rows and columns (``ImageGrid._bump_cover``, which says why
    ``f`` is bitwise that of the whole domain), and the discrete operator is
    built over the pixels where ``f != 0`` only (a random three-bump
    phantom covers about 4 to 12% of the domain), their centres taken from
    the cover's (``ImageGrid._keep``).  A pixel left out would
    add ``0 * w`` (+0.0 or -0.0) to sums that start at +0.0, so the views
    are bitwise those of the operator over the whole domain, except where
    the smaller pixel set narrows the window table: a window clipped at the
    upper range end then moves, which can change the last digits of a few
    bins (see :class:`PairOperator`).  A phantom that misses the domain
    builds the whole domain, so the views are zeros and every refusal of the
    build (pair kind, admissibility, square pixels, an empty domain mask) is
    raised whatever the phantom covers.
    """
    cfg, raw, resolved = _load_config(args.config, project={"mode": args.mode})
    mode = cfg["project"]["mode"]
    pair = _build_pair(cfg)
    dets = _build_detectors(cfg, pair)
    ph = _build_phantom(cfg, pair, args.seed)
    op = None
    if mode == "discrete":
        sec = cfg["image"]
        cover = ImageGrid._bump_cover(sec["nx"], sec["ny"], sec["extent"], pair.domain, ph.bumps)
        f = rasterize(ph, cover)
        support = f[cover.mask] != 0
        image = cover._keep(support) if support.any() else _build_image(cfg, pair)
        op = PairOperator(pair, image, *dets)
    outdir = Path(args.out)
    _write_common(outdir, raw, resolved)
    (outdir / "phantom_used.txt").write_text(_phantom_text(ph), encoding="ascii")
    if op is None:
        d1, d2 = _project_pair(pair, ph, dets)
    else:
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
    cfg, raw, resolved = _load_config(args.config, check={"tol": args.tol})
    tol = cfg["check"]["tol"]
    pair = _build_pair(cfg)
    admiss = check_pair_admissible(pair)
    admiss.require()
    dets = _build_detectors(cfg, pair)
    kernels = known_kernels(pair)
    target = None if kernels is None else _build_target(cfg, pair, dets, args.seed)
    sides = None if kernels is None else pprc_sides(target, kernels)
    outdir = Path(args.out)
    _write_common(outdir, raw, resolved)
    if kernels is None:
        _emit(
            f"check: no kernels exist for this pair (exponential {pair.kind}, mu != 0); "
            "every nonzero-mean datum is unobstructed\n",
            outdir,
            "report.txt",
        )
        return 2
    worst_name = min(admiss.margins, key=admiss.margins.get)
    left, right = sides
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
    ``n2`` evenly spaced angles, with the test tuple's angles added.

    On the reference pair they lie outside the view ranges, (4.318, 5.107)
    and (5.888, 6.678) rad: at 640 the axes span r1 in (5.498, 7.003) and r2
    in (3.992, 5.498).  No ray pair on them meets inside the domain (none of
    the 26 082 at 160, one of them parallel), so the verdict is about the
    closed-form surface of :func:`expo_surface`, not about rays the data
    were measured on.
    """
    margin = math.pi / 48.0
    lo, hi = theta0 + 0.5 * math.pi + margin, theta0 + 1.5 * math.pi - margin
    tup = _test_tuple(theta0)
    r1_axis = np.union1d(np.linspace(theta0 + math.pi, hi, n1), [tup[0], tup[1]])
    r2_axis = np.union1d(np.linspace(lo, theta0 + math.pi, n2), [tup[2], tup[3]])
    return r1_axis, r2_axis


def cmd_separability(args) -> int:
    cfg, raw, resolved = _load_config(args.config, separability={"n1": args.n1, "n2": args.n2})
    if cfg["geometry"]["kind"] != "fan-fan":
        raise ConfigurationError("separability applies to fan-fan geometry")
    pair = _build_pair(cfg)
    check_pair_admissible(pair).require()
    outdir = Path(args.out)
    _write_common(outdir, raw, resolved)
    v1 = pair.first.vertex_xy
    v2 = pair.second.vertex_xy
    mu = pair.first.mu
    theta0 = pair.first.theta0
    tup = _test_tuple(theta0)
    r1_axis, r2_axis = _separability_axes(theta0, cfg["separability"]["n1"], cfg["separability"]["n2"])
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
    where it crosses the image square; only the header if it misses it."""
    n_samples = 512
    geom = (op.pair.first, op.pair.second)[view - 1]
    v, d = geom.ray(op.dets[view - 1].center)
    half = 0.5 * op.image.extent
    # the square is the intersection of the slabs |x|, |y| <= half
    t_lo, t_hi = 0.0, math.inf
    for axis in (0, 1):
        if abs(d[axis]) > 1e-15:
            ta, tb = sorted(((-half - v[axis]) / d[axis], (half - v[axis]) / d[axis]))
            t_lo, t_hi = max(t_lo, ta), min(t_hi, tb)
        elif abs(v[axis]) >= half:  # along the slab, outside it
            t_hi = -math.inf
    lines = ["t,x,y,value"]
    if not t_lo < t_hi:  # the ray misses the square
        return lines[0] + "\n"
    dx, dy = op.image.pixel_size
    t = t_lo + (t_hi - t_lo) * (np.arange(n_samples) + 0.5) / n_samples
    x = v[0] + t * d[0]
    y = v[1] + t * d[1]
    ix = np.floor((x + half) / dx)
    iy = np.floor((y + half) / dy)
    inside = (ix >= 0) & (ix < op.image.nx) & (iy >= 0) & (iy < op.image.ny)
    img = f.reshape(op.image.ny, op.image.nx)
    vals = img[iy[inside].astype(np.intp), ix[inside].astype(np.intp)]
    rows = zip(t[inside].tolist(), x[inside].tolist(), y[inside].tolist(), vals.tolist())
    lines += [f"{q0:.17g},{q1:.17g},{q2:.17g},{q3:.17g}" for q0, q1, q2, q3 in rows]
    return "\n".join(lines) + "\n"


def cmd_solve(args) -> int:
    cfg, raw, resolved = _load_config(args.config, solver={"max_iter": args.max_iter, "tol": args.tol})
    pair = _build_pair(cfg)
    dets = _build_detectors(cfg, pair)
    op = PairOperator(pair, _build_image(cfg, pair), *dets)
    target = _build_target(cfg, pair, dets, args.seed)
    for data, det in zip(target, dets):
        # exact: the files' .17g numbers read back to the same floats
        have = (data.grid.n_bins, data.grid.lo, data.grid.hi)
        want = (det.n_bins, det.lo, det.hi)
        if have != want:
            raise ConfigurationError(
                f"target view {det.view} has (n_bins, lo, hi) = {have}, [detectors] gives {want}")
    g = np.concatenate([d.values for d in target])
    outdir = Path(args.out)
    _write_common(outdir, raw, resolved)
    state = cgne_solve(op, g, max_iter=cfg["solver"]["max_iter"], tol=cfg["solver"]["tol"])
    write_image(outdir / "iterate.img", op.image, state.iterate)
    window, level = cfg["output"]["pgm_window"], cfg["output"]["pgm_level"]
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
        g_norm = math.sqrt(np.add.reduce(g * g))  # pairwise, as cgne_solve sums
        floor_text = format(floor / g_norm if g_norm > 0 else floor, ".17g") + " (relative)"
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
    p.add_argument("--mode", choices=_SCHEMA["project"]["mode"][1], default=None)
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
    except (ProjPairError, OSError) as exc:  # OSError: an --out that cannot be made or written
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
