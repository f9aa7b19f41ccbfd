"""End-to-end benchmark of the projpair CLI, with a traced per-layer run.

    python3 bench/run.py --workload solve --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

One client drives ``projpair.cli.main(argv)`` in this process in a closed
loop: the next op starts when the previous one has returned and been
checked.  Set-up (importing projpair, generating the inputs, the warm-up
ops) is timed apart from the ops.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics; with ``--trace 1`` it
has the per-layer metrics of a traced phase, measured after an untraced
phase of the same length.  ``--workload all`` runs every workload in its
own process and prints all their metrics.  Run records and traces are
written to ``.bench_run/`` at the repository root.  README.md says why each
workload exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

from time import perf_counter, process_time

PROCESS_START = perf_counter()

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import spans
from workloads import WORKLOADS, Workload

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
RUN_DIR = ROOT / ".bench_run"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170


def import_program():
    """Import ``projpair.cli`` from this checkout's sources, and nowhere else."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        import projpair.cli as cli
    except ImportError as exc:
        raise SystemExit(f"cannot import projpair from {src}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"projpair imported from {cli.__file__}, not from {src}")
    return cli


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_op(main, op, index: int) -> dict:
    """Run one op, timing only the ``main`` call, then check and delete its output."""
    err = io.StringIO()
    rc = None
    failure = None
    c0 = process_time()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(op.argv)
    except (Exception, SystemExit):
        failure = "raised " + traceback.format_exc().strip()
    wall = perf_counter() - t0
    cpu = process_time() - c0
    written = _tree_bytes(op.out) if op.out.exists() else 0
    if failure is None and rc != 0:
        failure = f"exit code {rc}, expected 0"
    if failure is None:
        try:
            failure = op.check()
        except (OSError, ValueError, IndexError) as exc:
            failure = f"output check could not read the output: {exc!r}"
    if failure is not None and err.getvalue().strip():
        failure += f"; stderr: {err.getvalue().strip()}"
    shutil.rmtree(op.out, ignore_errors=True)
    return {"op": index, "wall": wall, "cpu": cpu, "bytes": written, "failure": failure, "argv": op.argv}


def run_for(main, ops, first_index: int, seconds: float, tracer: spans.Tracer | None = None) -> list[dict]:
    """Closed loop: ops one after another until ``seconds`` have passed (at least one)."""
    records = []
    deadline = perf_counter() + seconds
    for index in itertools.count(first_index):
        if tracer is not None:
            tracer.op = index
        records.append(run_op(main, next(ops), index))
        if perf_counter() >= deadline:
            return records


def setup(workload: Workload, seed: int, tmp: Path):
    """Import the program, generate the inputs and run the warm-up ops."""
    cli = import_program()
    ops = workload.ops(tmp, seed)
    warmups = [run_op(cli.main, next(ops), i) for i in range(workload.warmups)]
    return cli, ops, warmups, perf_counter() - PROCESS_START


def setup_in_child(name: str, seed: int) -> float:
    """Set-up time of a fresh process running the same set-up."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of a workload; returns the result object and the run record, which it also writes."""
    workload = WORKLOADS[name]
    RUN_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=RUN_DIR))
    try:
        cli, ops, warmups, setup_s = setup(workload, seed, tmp)
        records = list(warmups)
        first = len(warmups)
        if trace:
            untraced = run_for(cli.main, ops, first, seconds / 2)
            tracer = spans.Tracer()
            uninstall = spans.install(tracer, cli)
            try:
                traced = run_for(tracer.wrap("cli.main", cli.main), ops, first + len(untraced), seconds / 2, tracer)
            finally:
                uninstall()
            records += untraced + traced
            raw = spans.layer_metrics(tracer.spans, traced, untraced)
            metrics = {k: {"value": v, "unit": spans.unit_of(k)} for k, v in raw.items()}
            extra = {"spans": tracer.dump()}
        else:
            measured = run_for(cli.main, ops, first, seconds)
            records += measured
            setups = [setup_s] + [setup_in_child(name, seed) for _ in range(SETUP_SAMPLES - 1)]
            failed = sum(r["failure"] is not None for r in records)
            metrics = {
                "op_s": {"value": statistics.median(r["wall"] for r in measured), "unit": "s"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
                "ok_ratio": {"value": 1 - failed / len(records), "unit": "ratio"},
            }
            extra = {"op_samples": len(measured), "setup_samples": setups}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failures = [r for r in records if r["failure"] is not None]
    result = {"correct": not failures, "attempted": len(records), "failed": len(failures), "metrics": metrics}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(),
        "result": result,
        "ops": records,
        **extra,
    }
    (RUN_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result, record


def summary_lines(name: str, result: dict, record: dict) -> list[str]:
    m = result["metrics"]
    lines = [f"workload {name}, seed {record['seed']}, {result['attempted']} ops attempted, {result['failed']} failed"]
    if "op_s" in m:
        failed_ratio = result["failed"] / result["attempted"]
        lines += [
            f"  op_s          {m['op_s']['value']:.6f} s (median of {record['op_samples']} ops)",
            f"  setup_s       {m['setup_s']['value']:.6f} s (median of {len(record['setup_samples'])} set-ups)",
            f"  peak_rss_mb   {m['peak_rss_mb']['value']:.1f} MB",
            f"  failed_ratio  {failed_ratio:.4f} ({result['failed']} of {result['attempted']})",
        ]
    else:
        lines += [f"  {k:34s} {v['value']:.6g} {v['unit']}" for k, v in m.items()]
    lines += [f"  FAILED op {r['op']} ({' '.join(r['argv'])}): {r['failure']}" for r in record["ops"] if r["failure"]]
    lines.append("  machine: " + json.dumps(record["machine"], sort_keys=True))
    return lines


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Every workload, one after another, each in its own process."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        *lines, last = proc.stdout.splitlines() or [""]
        print("\n".join(lines))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        results[name] = json.loads(last)
    print(json.dumps(results))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="only set up, and print the set-up seconds as JSON"
    )
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.setup_only:
        RUN_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="setup-", dir=RUN_DIR) as tmp:
            *_, setup_s = setup(WORKLOADS[args.workload], args.seed, Path(tmp))
        print(json.dumps({"setup_s": setup_s}))
        return 0
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary_lines(args.workload, result, record)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
