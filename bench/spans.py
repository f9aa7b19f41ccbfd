"""In-memory spans and the timing wrappers of the traced run.

The traced run replaces, for its duration only, the names that
``projpair.cli`` calls into each layer with wrappers that record a span:
name, start, end, parent span and op id.  The operator instances built
through ``PairOperator`` also get their ``forward``/``adjoint`` wrapped, so
the solver's calls show up as children of ``solver.cgne_solve``.  Nothing in
the program itself is changed; :func:`install` returns a function that puts
every original name back.
"""

from __future__ import annotations

import itertools
import statistics
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; ``op`` tags every span with the current op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn: Callable, info: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``info(result)`` adds counts."""

        def traced(*args, **kwargs):
            sid = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                span = Span(sid, name, start, end, parent, self.op)
                self.spans.append(span)
            if info is not None:
                span.info = info(result)
            return result

        return traced

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def covered(lo: float, hi: float, intervals) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered(s.start, s.end, children[s.id]) for s in spans}


# Names in ``projpair.cli`` that call into a layer, with their span names and
# the counts read off each result.
LAYER_CALLS = {
    "view_range": ("geometry.view_range", None),
    "check_pair_admissible": ("geometry.check_pair_admissible", None),
    "random_phantom": ("phantom.random_phantom", None),
    "project_view": ("projector.project_view", lambda data: {"rays": data.grid.n_bins}),
    "rasterize": ("discrete.rasterize", None),
    "cgne_solve": ("solver.cgne_solve", lambda state: {"iterations": state.iterations}),
    "known_kernels": ("consistency.known_kernels", None),
    "pprc_sides": ("consistency.pprc_sides", None),
    "separability_test": ("consistency.separability_test", None),
    "expo_surface": ("consistency.expo_surface", None),
    "write_image": ("cli.write", None),
    "write_pgm": ("cli.write", None),
    "write_projection_csv": ("cli.write", None),
}


def install(tracer: Tracer, cli) -> Callable[[], None]:
    """Wrap the layer entry points in ``cli``; return the function that undoes it."""
    saved = {name: getattr(cli, name) for name in (*LAYER_CALLS, "PairOperator")}
    for name, (span_name, info) in LAYER_CALLS.items():
        setattr(cli, name, tracer.wrap(span_name, saved[name], info))

    operator_class = saved["PairOperator"]

    def build(*args, **kwargs):
        op = operator_class(*args, **kwargs)
        op.forward = tracer.wrap("discrete.forward", op.forward)
        op.adjoint = tracer.wrap("discrete.adjoint", op.adjoint)
        return op

    cli.PairOperator = tracer.wrap(
        "discrete.operator", build, lambda op: {"pixels": int(op.image.mask.sum())}
    )
    # a staticmethod the CLI reaches through the class, so it is wrapped there
    grid_class = cli.ImageGrid
    from_domain = grid_class.__dict__["from_domain"]
    grid_class.from_domain = staticmethod(tracer.wrap("discrete.image_grid", grid_class.from_domain))

    def uninstall() -> None:
        for name, fn in saved.items():
            setattr(cli, name, fn)
        grid_class.from_domain = from_domain

    return uninstall


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[Span], ops: list[dict], untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a traced phase.

    ``ops`` are the traced phase's op records and ``untraced`` the records
    of the untraced phase run just before it, both with ``wall`` and ``cpu``
    seconds and ``bytes`` written.  Per-call times are medians over calls,
    per-op values medians over ops.  A layer a workload never calls reads 0.
    Counts come from the calls that returned; a call that raised has a span
    but no counts.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)
    op_ids = sorted({s.op for s in spans if s.op is not None})

    def per_call(name):
        return _median(s.duration for s in by_name[name])

    def per_op(*names, time=False):
        """Median over ops of the calls to (or, with ``time``, seconds in) ``names``."""
        totals = dict.fromkeys(op_ids, 0)
        for name in names:
            for s in by_name[name]:
                totals[s.op] += s.duration if time else 1
        return _median(totals.values())

    def returned(name, key):
        return [s for s in by_name[name] if key in s.info]

    cgne = returned("solver.cgne_solve", "iterations")
    views = returned("projector.project_view", "rays")
    view_time = sum(s.duration for s in views)
    return {
        "discrete.forward_s": per_call("discrete.forward"),
        "discrete.adjoint_s": per_call("discrete.adjoint"),
        "discrete.forward_calls": per_op("discrete.forward"),
        "discrete.adjoint_calls": per_op("discrete.adjoint"),
        "discrete.build_s": per_op("discrete.image_grid", "discrete.operator", time=True),
        "discrete.rasterize_s": per_call("discrete.rasterize"),
        "discrete.pixels": _median(s.info["pixels"] for s in returned("discrete.operator", "pixels")),
        "solver.iterations": _median(s.info["iterations"] for s in cgne),
        "solver.self_s_per_iter": _median(
            selfs[s.id] / s.info["iterations"] for s in cgne if s.info["iterations"]
        ),
        "projector.project_view_s": per_call("projector.project_view"),
        "projector.rays_per_s": sum(s.info["rays"] for s in views) / view_time if view_time else 0.0,
        "projector.calls": per_op("projector.project_view"),
        "consistency.separability_test_s": per_call("consistency.separability_test"),
        "consistency.expo_surface_s": per_call("consistency.expo_surface"),
        "consistency.pprc_sides_s": per_call("consistency.pprc_sides"),
        "consistency.known_kernels_s": per_call("consistency.known_kernels"),
        "phantom.random_phantom_s": per_call("phantom.random_phantom"),
        "geometry.view_range_s": per_call("geometry.view_range"),
        "geometry.check_pair_admissible_s": per_call("geometry.check_pair_admissible"),
        "cli.write_s": per_op("cli.write", time=True),
        "cli.bytes_written": _median(r["bytes"] for r in ops),
        "cli.self_s": _median(selfs[s.id] for s in by_name["cli.main"]),
        "process.cpu_s_per_op": _median(r["cpu"] for r in untraced),
        "trace.overhead_s": _median(r["wall"] for r in ops) - _median(r["wall"] for r in untraced),
    }


LAYER_UNITS = {
    "discrete.forward_calls": "count",
    "discrete.adjoint_calls": "count",
    "discrete.pixels": "count",
    "solver.iterations": "count",
    "projector.rays_per_s": "1/s",
    "projector.calls": "count",
    "cli.bytes_written": "B",
}


def unit_of(name: str) -> str:
    return LAYER_UNITS.get(name, "s")
