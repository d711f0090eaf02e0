"""covham benchmark: one workload per process, one JSON line of results.

    python3 perfbench/run.py --workload orbit-evolve --seed 1 --seconds 10 --trace 0

Run it from the root of a covham checkout.  The benchmark imports covham
from the checkout's src/ and fails when it is missing.  It is a closed
loop with one caller: after set-up it makes whole passes of the workload
until --seconds have gone by (at least one pass, and three rather than
two).  With --trace 0 it
prints the end-to-end metrics: the median pass wall time, the median of
several set-ups made in fresh interpreters, the peak resident memory,
and the workload's worst deviation from the benchmark's own reference.
With --trace 1 it wraps the program's layers (tracer.py) and prints
per-layer metrics for the set-up plus the median pass instead.  The last
line of standard output is the result; the exit code is 0 whenever the
workload ran, whether or not its checks passed.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# each child times `import covham` plus the workload's set-up
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import covham
import workloads
wl = workloads.WORKLOADS[sys.argv[3]]
t1 = time.perf_counter()
inp = wl.inputs(int(sys.argv[4]), workloads.Path(sys.argv[5]))
t2 = time.perf_counter()
wl.setup(inp)
print((t1 - t0) + (time.perf_counter() - t2))
"""


def declared_units(section: str) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares in a section."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def cap_threads() -> None:
    """Cap numpy/BLAS threads at the usable core count (before numpy loads)."""
    cores = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = cores


def setup_seconds(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE), workload,
             str(seed), str(ROOT)],
            capture_output=True, text=True, check=True, timeout=120)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def layer_metrics(setup_stats: dict, passes: list, walls: list,
                  per_call_s: float, extra: dict) -> dict:
    """Per-layer figures for the set-up plus the median pass."""
    keys = set(setup_stats).union(*passes)
    s = {k: setup_stats.get(k, 0.0)
         + statistics.median(p.get(k, 0.0) for p in passes) for k in keys}

    def ratio(num, den, scale):
        return s.get(num, 0.0) / s[den] * scale if s.get(den) else 0.0

    calls = sum(v for k, v in s.items() if k.endswith(".calls"))
    out = {
        "dynamics.source_rate.ns_per_mode_source": ratio(
            "dynamics.source_rate.self_s",
            "dynamics.source_rate.mode_source_evals", 1e9),
        "dynamics.evolve_amplitudes.ns_per_mode_step": ratio(
            "dynamics.evolve_amplitudes.self_s",
            "dynamics.evolve_amplitudes.mode_steps", 1e9),
        "dynamics.reconstruct_field.ns_per_mode_point": ratio(
            "dynamics.reconstruct_field.s",
            "dynamics.reconstruct_field.mode_points", 1e9),
        "brackets.poisson_bracket.us_per_state_var": ratio(
            "brackets.poisson_bracket.s",
            "brackets.poisson_bracket.state_vars", 1e6),
        "position.parseval_check.ns_per_point_mode": ratio(
            "position.parseval_check.s",
            "position.parseval_check.point_modes", 1e9),
        "verify.report_bytes": s.get("verify.write_report.bytes", 0.0),
        "trace.wall_s": statistics.median(walls),
        "trace.overhead_s": calls * per_call_s + s.get("trace.count_s", 0.0),
    }
    out.update(extra)
    return {name: {"value": out.get(name, s.get(name, 0.0)), "unit": unit}
            for name, unit in declared_units("per_layer").items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "covham" / "__init__.py").is_file():
        print(f"error: no covham sources under {SRC}", file=sys.stderr)
        return 2
    cap_threads()
    sys.path.insert(0, str(SRC))
    import covham  # noqa: F401  (imported before the tracer wraps it)
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]

    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    per_call_s = tracing.call_overhead_s() if args.trace else 0.0
    if tracer:
        tracer.install()
    try:
        state = wl.setup(wl.inputs(args.seed, ROOT))
        setup_stats = tracer.stats() if tracer else {}
        results, layer_passes = [], []
        start = time.perf_counter()
        # never stop at exactly two passes: the median of two would
        # average in the first pass, which pays for warming up
        while (len(results) in (0, 2)
               or time.perf_counter() - start < args.seconds):
            results.append(wl.run_pass(state, len(results)))
            if tracer:
                layer_passes.append(tracer.stats())
    finally:
        if tracer:
            tracer.uninstall()

    ops = [op for r in results for op in r.ops]
    failed = [op for op in ops if not op.ok]
    for name in dict.fromkeys(op.name for op in failed):
        same = [op for op in failed if op.name == name]
        tag = "known fault" if same[0].known_fault else "FAILED"
        print(f"{tag}: {args.workload} {name} value={same[-1].value:.3e} "
              f"tol={same[-1].tol:.1e} ({len(same)} of {len(results)} "
              f"passes)")
    walls = [r.wall_s for r in results]
    values = {k: statistics.median(r.values[k] for r in results)
              for k in results[0].values}
    if args.trace:
        metrics = layer_metrics(setup_stats, layer_passes, walls, per_call_s,
                                {k: v for k, v in values.items()
                                 if k != "accuracy_dev"})
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        e2e = {"wall_s": statistics.median(walls), "setup_s": setup_s,
               "peak_rss_mb": peak_mb, "accuracy_dev": values["accuracy_dev"]}
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in declared_units("end_to_end").items()}
    print(json.dumps({
        "correct": all(op.ok or op.known_fault for op in ops),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
