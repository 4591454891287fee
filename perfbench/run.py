"""Benchmark of repeated cross-validation with nested dichotomies.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` the workload runs
untraced for about S seconds and the end-to-end metrics are printed; with
``--trace 1`` a fixed number of units runs untraced and then traced, and
the per-layer metrics are printed.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from speed import SpeedProbe
from workloads import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    WORKLOADS,
    import_package,
    recorded_outputs,
)

SETUP_SAMPLES = 9  # the in-process set-up plus this many minus one fresh processes
SETUP_TIMEOUT_S = 60

E2E_UNITS = {
    "setup_s": "s",
    "runs_per_s": "1/ref-s",
    "train_s_p50": "ref-s",
    "peak_rss_mb": "MB",
    "run_ok_ratio": "ratio",
}


def per_layer_unit(name: str) -> str:
    if name == "data.copy.bytes":
        return "bytes-computed"
    if name.endswith(".rows"):
        return "rows"
    if name.endswith(".pct"):
        return "pct"
    if name.endswith((".share", ".member_yield", ".cpu_per_wall", ".overhead_ratio")):
        return "ratio"
    if name.endswith(("_s", ".s", ".train_s_tail")):
        return "s"
    return "count"


@dataclass
class Phase:
    results: list
    start: float
    end: float
    cpu_s: float

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def runs(self) -> int:
        return sum(r.runs for r in self.results)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.results)

    @property
    def train_seconds(self) -> dict:
        """Per-run training seconds by method, over all units."""
        out = {}
        for r in self.results:
            for method, seconds in r.train_seconds.items():
                out.setdefault(method, []).extend(seconds)
        return out


def train_p50(by_method: dict) -> float:
    """Mean over methods of each method's median training seconds per run
    (one pooled median would fall in the gap between two methods); 0 when
    no run finished."""
    medians = [statistics.median(v) for v in by_method.values() if v]
    return statistics.fmean(medians) if medians else 0.0


def _cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_phase(workload, pkg, state, seconds=None, units=None) -> Phase:
    """Run units back to back: exactly ``units`` of them, or else until
    another unit of the mean length so far would pass ``seconds``."""
    results = []
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    while True:
        results.append(workload.run_unit(pkg, state, len(results)))
        elapsed = time.perf_counter() - start
        done = len(results)
        if units is not None:
            if done >= units:
                break
        elif elapsed * (done + 1) / done > seconds:
            break
    end = time.perf_counter()
    return Phase(results, start, end, _cpu_seconds() - cpu0)


def measure_setup(workload, seed: int):
    recorded = recorded_outputs(workload.name, seed)
    started = time.perf_counter()
    pkg = import_package()
    state = workload.setup(pkg, seed, recorded)
    return pkg, state, time.perf_counter() - started


def setup_sample(workload_name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--setup-sample",
            "--workload", workload_name, "--seed", str(seed),
        ],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    finished child (kilobytes on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def train_tail(seconds: list) -> tuple[float, float, int]:
    """The highest percentile with at least ten runs beyond it: the order
    statistic with ten larger samples, its percentile and the sample count."""
    ordered = sorted(seconds)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    index = max(n - 11, 0)
    return ordered[index], 100.0 * (index + 1) / n, n


# ---------------------------------------------------------------------------
# Environment capture
# ---------------------------------------------------------------------------


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _src_sha256() -> str:
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads():
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.with_name("numpy.libs")
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(workload_name: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def reference_timing(probe: SpeedProbe, phase: Phase):
    """Phase length and per-run training times in reference seconds.  A
    run's time scales by the mean speed over the window it ran in."""
    train = {}
    for result in phase.results:
        for method, seconds in result.train_seconds.items():
            train.setdefault(method, []).extend(
                t * probe.reference_seconds(start, end) / (end - start)
                for t, (start, end) in zip(seconds, result.windows[method])
            )
    return probe.reference_seconds(phase.start, phase.end), train


def untraced_run(workload, seed: int, seconds: int):
    pkg, state, first_setup = measure_setup(workload, seed)
    try:
        with SpeedProbe() as probe:
            phase = run_phase(workload, pkg, state, seconds=seconds)
        recheck = workload.recheck(pkg, state, phase.results[0])
    finally:
        workload.cleanup(state)
    ref_wall, ref_train = reference_timing(probe, phase)
    rss = peak_rss_mb()
    setups = [first_setup] + [
        setup_sample(workload.name, seed) for _ in range(SETUP_SAMPLES - 1)
    ]
    attempted = phase.runs + recheck.runs
    failed = phase.failed + recheck.failed
    metrics = {
        "setup_s": statistics.median(setups),
        "runs_per_s": (phase.runs - phase.failed) / ref_wall,
        "train_s_p50": train_p50(ref_train),
        "peak_rss_mb": rss,
        "run_ok_ratio": (attempted - failed) / attempted,
    }
    problems = [p for r in phase.results + [recheck] for p in r.problems]
    info = {
        "wall_runs_per_s": (phase.runs - phase.failed) / phase.wall,
        "wall_train_s_p50": train_p50(phase.train_seconds),
        "probe_loop_s_p50": probe.median_loop_s(phase.start, phase.end),
        "units": len(phase.results),
    }
    return attempted, failed, problems, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, info


def traced_run(workload, seed: int, env: dict):
    from probe import run_probe
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    pkg = import_package()
    tracer.install(pkg)
    try:
        state = workload.setup(pkg, seed, recorded_outputs(workload.name, seed))
    finally:
        tracer.uninstall()
    try:
        with SpeedProbe() as probe:
            plain = run_phase(workload, pkg, state, units=workload.trace_units)
            tracer.install(pkg)
            try:
                traced = run_phase(workload, pkg, state, units=workload.trace_units)
            finally:
                tracer.uninstall()
        recheck = workload.recheck(pkg, state, plain.results[0])
    finally:
        workload.cleanup(state)

    problems = [p for r in plain.results + traced.results + [recheck] for p in r.problems]
    failed = plain.failed + traced.failed + recheck.failed
    for u, (a, b) in enumerate(zip(plain.results, traced.results)):
        if a.outputs != b.outputs:
            failed += b.runs
            problems.append(f"unit {u}: traced outputs differ from untraced outputs")
    attempted = plain.runs + traced.runs + recheck.runs

    metrics = layer_metrics(tracer, (traced.start, traced.end), threading.get_ident())
    tail, pct, n = train_tail([t for v in plain.train_seconds.values() for t in v])
    metrics.update({
        "evaluation.train_s_tail": tail,
        "evaluation.train_s_tail.pct": pct,
        "evaluation.train_s_tail.n": n,
        "cli.cpu_per_wall": plain.cpu_s / plain.wall,
        "trace.overhead_ratio": probe.reference_seconds(traced.start, traced.end)
        / probe.reference_seconds(plain.start, plain.end),
    })
    metrics.update(run_probe(pkg, seed))

    OUT_DIR.mkdir(exist_ok=True)
    tracer.write_jsonl(
        OUT_DIR / f"trace-{workload.name}-seed{seed}.jsonl",
        {"env": env, "traced_window": [traced.start, traced.end]},
    )
    return attempted, failed, problems, {
        k: (v, per_layer_unit(k)) for k, v in metrics.items()
    }, {}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [
        p for p in ("src/nested_dichotomies/__init__.py", "datasets/pendigits.arff")
        if not (ROOT / p).is_file()
    ]
    if missing:
        print(f"error: run from a checkout of the repository; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]

    if args.setup_sample:
        _, state, seconds = measure_setup(workload, args.seed)
        workload.cleanup(state)
        print(json.dumps({"setup_s": seconds}))
        return 0

    if args.trace:
        env = environment(args.workload, args.seed, args.seconds, args.trace)
        attempted, failed, problems, metrics, info = traced_run(workload, args.seed, env)
    else:
        attempted, failed, problems, metrics, info = untraced_run(
            workload, args.seed, args.seconds
        )
        env = environment(args.workload, args.seed, args.seconds, args.trace)
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(env))
    if info:
        print("info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
