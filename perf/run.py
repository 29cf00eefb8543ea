"""drsl benchmark: run one workload and print its metrics as JSON.

    python3 perf/run.py --workload desk-cv --seed 0 --seconds 36 --trace 0
    python3 perf/run.py --workload all --seed 0 --seconds 36 --trace 0

Run from the root of a source checkout: the benchmark imports drsl from
``src/`` beside this directory and refuses any other copy. A run makes
its inputs from ``--seed``, repeats whole rounds of the workload's
operations for ``--seconds`` (at least two rounds), checks every round's
outputs against computations made apart from the program, and prints one
JSON object as the last line of standard output. ``--trace 0`` reports
the end-to-end metrics of untraced rounds; ``--trace 1`` reports the
per-layer metrics of traced rounds and the tracing overhead against an
untraced round in the same process. ``--workload all`` runs each workload
in its own process and prints one JSON object keyed by workload.

Thread settings are made before numpy loads. By default (``--threads 1``)
the run is single-threaded: DRSL_THREADS=1 and every BLAS thread variable
set to 1. The user's default, multi-threaded OpenBLAS under a subject pool
of one worker per core, oversubscribes the cores and on a shared machine
measures the scheduler rather than the program; even a pool of one worker
per core, with one BLAS thread each, spreads the Python-bound desk-cv
rounds through contention for the interpreter lock. ``--threads default``
removes every thread variable, for a reference run with the user's
default.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("desk-cv", "paper-fit", "tsv-linear")
THREAD_VARIABLES = (
    "DRSL_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
# set-up repeats at least this often and for at least this long
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
MIN_ROUNDS = 2
END_TO_END = {"setup_s": "s", "round_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", choices=("1", "default"), default="1")
    return parser.parse_args(argv)


def set_threads(mode: str) -> None:
    for name in THREAD_VARIABLES:
        os.environ.pop(name, None)
        if mode == "1":
            os.environ[name] = "1"


def import_program():
    """Import drsl from this checkout's src/, and only from there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import drsl
    except ImportError as exc:
        sys.exit(f"cannot import drsl from {src}: {exc}")
    if not os.path.abspath(drsl.__file__).startswith(os.path.join(src, "")):
        sys.exit(f"imported drsl from {drsl.__file__}, not from {src}")


def run_all(args) -> int:
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--threads", args.threads]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        code = code or proc.returncode
    print(json.dumps(results))
    return code


def digest_problems(digests) -> list[str]:
    """Repeats of a workload must give bit-identical outputs."""
    if len({digest for _, digest in digests}) <= 1:
        return []
    return ["repeats of the workload gave different outputs: "
            + ", ".join(f"{label} {digest[:12]}" for label, digest in digests)]


class Rounds:
    """The rounds of one run: operation counts, the full check of the first
    round, and a digest of every round's outputs."""

    def __init__(self, workload, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.digests: list[tuple[str, str]] = []

    def run(self, inputs, label: str):
        """One round; returns it, or None when an operation failed."""
        rnd = self.workload.run_round(inputs, self.workdir)
        self.attempted += len(self.workload.ops)
        self.failed += rnd.failed
        if rnd.failed:
            return None
        if not self.digests:
            self.problems += self.workload.check(inputs, rnd)
        self.digests.append((label, self.workload.digest(rnd)))
        return rnd


def _time_left(start: float, durations: list, seconds: float) -> bool:
    # start another round only if a typical round still ends in time
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def untraced_metrics(rounds: Rounds, args) -> dict:
    """setup_s, round_s and peak_rss_mb of untraced rounds."""
    import resource

    workload = rounds.workload
    setup_s = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        began = time.perf_counter()
        inputs = workload.setup(args.seed)
        setup_s.append(time.perf_counter() - began)
    per_op = {op: [] for op in workload.ops}
    start, durations = time.perf_counter(), []
    while len(durations) < MIN_ROUNDS or _time_left(start, durations, args.seconds):
        began = time.perf_counter()
        rnd = rounds.run(inputs, "untraced")
        durations.append(time.perf_counter() - began)
        if rnd:
            for op in workload.ops:
                per_op[op].append(rnd.seconds[op])
    for op, values in per_op.items():
        if values:
            print(f"{op:12s} median {statistics.median(values):9.4f} s over "
                  f"{len(values)} rounds", file=sys.stderr)
    # the sum of per-operation medians resists a slow spell better than the
    # median of whole rounds
    round_s = (sum(statistics.median(v) for v in per_op.values())
               if all(per_op.values()) else float("nan"))
    return {
        "setup_s": statistics.median(setup_s),
        "round_s": round_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_metrics(rounds: Rounds, args) -> dict:
    """Per-layer metrics of traced rounds, each of which sets up its inputs
    again, and the overhead against one untraced round."""
    from tracer import Tracer

    workload = rounds.workload
    start = time.perf_counter()
    rnd = rounds.run(workload.setup(args.seed), "untraced")
    untraced = sum(rnd.seconds.values()) if rnd else float("nan")
    tracer = Tracer()
    tracer.install()
    traced, durations = [], []
    try:
        while not durations or _time_left(start, durations, args.seconds):
            began = time.perf_counter()
            rnd = rounds.run(workload.setup(args.seed), "traced")
            durations.append(time.perf_counter() - began)
            if rnd:
                traced.append(sum(rnd.seconds.values()))
    finally:
        tracer.uninstall()
    print(f"untraced round {untraced:.4f} s, traced rounds "
          + ", ".join(f"{t:.4f}" for t in traced) + " s", file=sys.stderr)
    metrics = tracer.metrics(len(durations))
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced) - untraced) / untraced if traced else float("nan"))
    return metrics


def run_workload(args) -> int:
    import shutil
    import tempfile

    from tracer import metric_units
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(HERE, "work"))
    rounds = Rounds(workload, workdir)
    try:
        if args.trace:
            metrics, units = traced_metrics(rounds, args), metric_units()
        else:
            metrics, units = untraced_metrics(rounds, args), END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = rounds.problems + digest_problems(rounds.digests)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:44s} {value:14.6g} {units[name]}", file=sys.stderr)
    print(f"attempted {rounds.attempted} failed {rounds.failed}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    set_threads(args.threads)
    import_program()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
