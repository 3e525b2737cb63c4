#!/usr/bin/env python3
"""Benchmark of spinbundles, run from the root of a source checkout.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 28 --trace 0

Workloads: verify, holonomy-probes, section-roundtrips, pointwise-queries
(see perfbench/README.md).  The library is imported from ./src.  Each run
sets up (import, inputs, one warm-up op of each kind) three times and
reports the median as setup_s, then repeats the workload's fixed op list
until --seconds have passed.  Every op is checked; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones; with --trace 1
a separate traced pass over the op list gives the per-layer ones.  The exit
code is 0 only when every check passed.
"""

import os

# Pin BLAS to one thread before numpy is imported: the workloads are a single
# closed-loop caller, and extra BLAS threads only add scheduling noise.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
PROBE_TIMEOUT_S = 170
# Set-ups per run, one in this process and the rest in fresh ones; setup_s is
# their median.
SETUPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fault-inject", default=None, help="verify only: sabotage a check family")
    p.add_argument("--spans", default=None, help="with --trace 1, write the traced pass's spans here")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args):
    """Import the library, build the op list and its inputs, warm up; timed."""
    t0 = time.perf_counter()
    if not os.path.isdir(os.path.join(SRC, "spinbundles")):
        raise SystemExit(f"error: no spinbundles sources under {SRC}")
    sys.path.insert(0, SRC)
    import spinbundles
    import workloads

    if not os.path.abspath(spinbundles.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported spinbundles from {spinbundles.__file__}, not {SRC}")
    w = workloads.Workload(args.workload, args.seed, args.fault_inject)
    w.materialize()
    w.warm_up()
    return w, time.perf_counter() - t0


def probe_setup(args) -> float:
    """One more set-up in a fresh process, so import costs are paid again."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


class Tally:
    """Per-op latencies, per-pass wall times and gate outcomes."""

    def __init__(self, ops: int):
        self.latencies: list[list[float]] = [[] for _ in range(ops)]
        self.passes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.worst_ratio = 0.0

    def record_gate(self, outcome) -> None:
        (attempted, failed), ratios = outcome
        self.attempted += attempted
        self.failed += failed
        self.worst_ratio = max([self.worst_ratio, *ratios])


def run_pass(w, tally: Tally, tracer=None) -> float:
    """Execute the op list once; returns the summed op time of the pass."""
    total = 0.0
    for i, item in enumerate(w.inputs):
        if tracer is not None:
            tracer.op_id = i
            tracer.recording = True
        t0 = time.perf_counter()
        payload = w.execute(item)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
        total += elapsed
        tally.latencies[i].append(elapsed)
        tally.record_gate(w.gate(item, payload))
    tally.passes.append(total)
    return total


def run_passes(w, tally: Tally, budget: float) -> None:
    """Whole passes, at least one, while the next is expected to end within budget."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass(w, tally)
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > budget:
            return


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        _, seconds = setup(args)
        print(repr(seconds))
        return 0

    w, first_setup = setup(args)
    import workloads

    tally = Tally(len(w.inputs))
    summary = {"workload": w.name, "seed": w.seed, "op_list_hash": w.hash, "ops_per_pass": len(w.inputs),
               "env": workloads.environment()}
    if args.trace == 0:
        setups = [first_setup] + [probe_setup(args) for _ in range(SETUPS - 1)]
        run_passes(w, tally, args.seconds)
        # Each op at its slowest repeat.  This host's speed swings by up to
        # 1.7x over seconds to minutes; the slow phase shows up in every run
        # and the fast one does not, so the slowest repeat is the figure that
        # repeats from run to run (perfbench/README.md).
        op_s = [max(v) for v in tally.latencies]
        metrics = {
            "wall_s": (sum(op_s), "s"),
            "op_ms_p50": (1e3 * statistics.median(op_s), "ms"),
            "op_ms_p90": (1e3 * percentile(op_s, 90), "ms"),
            "residual_ratio_max": (tally.worst_ratio, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        summary["setups_s"] = setups
    else:
        from layertrace import Tracer

        run_passes(w, tally, args.seconds / 2)
        untraced = sum(max(v) for v in tally.latencies)
        with Tracer() as tracer:
            w.materialize()  # rebuilt under the tracer, so polynomial evaluators are counted
            tracer.reset()
            traced = run_pass(w, tally, tracer)
        metrics = tracer.layer_metrics()
        metrics["trace_overhead_s"] = (traced - untraced, "s")
        summary["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write_spans(args.spans)

    summary["passes"] = len(tally.passes)
    summary["ops"] = sum(len(v) for v in tally.latencies)
    summary["fail_ratio"] = tally.failed / tally.attempted
    print("# " + json.dumps(summary))
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
