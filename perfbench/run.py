"""ctinv benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run it from the repository root; it imports ctinv from ./src and writes
its scratch files and run records under ./.perfbench/.  The last line of
standard output is one JSON object: `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
# cli.main reads its defaults from the file CTINV_CONFIG names; the replay
# and the oracles use the built-in defaults, so the timed work must too.
HOST_CTINV_CONFIG = os.environ.pop("CTINV_CONFIG", None)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3
END_TO_END = {
    "ops_per_s": "ops/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "closure_err": "rad",
    "moment_err": "1",
    "tail_err": "1",
}


def import_program():
    """Import ctinv from this checkout's src/, and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "ctinv", "__init__.py")):
        sys.exit(f"perfbench: no ctinv sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import ctinv

    if os.path.dirname(os.path.dirname(os.path.abspath(ctinv.__file__))) != SRC:
        sys.exit(f"perfbench: ctinv was imported from {ctinv.__file__}, not {SRC}")


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter importing ctinv.cli."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ctinv.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "loadavg": os.getloadavg(),
        "machine": platform.machine(),
        "ignored_CTINV_CONFIG": HOST_CTINV_CONFIG,
    }


def run_pass(workload: str, seed: int, budget: float, work: str, after_call=None):
    """Whole cycles until the expected end of the next one would pass `budget`.

    `after_call(op, call)`, when given, runs after each call, untimed.
    """
    import workloads as wl

    inputs, execute = wl.WORKLOADS[workload]
    execute(wl.WARMUP[workload], -1, work)
    calls, cycle_times = [], []
    t0 = time.perf_counter()
    k = 0
    while True:
        c0 = time.perf_counter()
        for spec in inputs(seed, k):
            call = execute(spec, k, work)
            calls.append(call)
            if after_call is not None:
                after_call(len(calls) - 1, call)
        cycle_times.append(time.perf_counter() - c0)
        k += 1
        if time.perf_counter() - t0 + statistics.median(cycle_times) / 2 >= budget:
            return calls


def taxonomy(calls) -> dict:
    import workloads as wl

    return {kind: sum(c.failures.get(kind, 0) for c in calls) for kind in wl.FAILURE_KINDS}


def accuracy(calls) -> dict:
    """Max of each scoreboard figure over the run's reference reconstructions.

    Only the fixed references count: the seeded draws would make the
    figures depend on the seed.  Every draw's figures are in the record.
    A reference call without figures stops the run: dropping it would make
    the figures look better.
    """
    refs = [c for c in calls if "expect_T" in c.spec]
    lost = [(c.label, c.cycle, c.failures) for c in refs if not c.accuracy]
    if not refs or lost:
        raise RuntimeError(f"reference reconstructions gave no accuracy figures: {lost or 'none ran'}")
    rows = [c.accuracy for c in refs]
    return {key: max(row[key] for row in rows) for key in ("closure_err", "moment_err", "tail_err")}


def run_workload(args) -> dict:
    import workloads as wl

    work = os.path.join(WORK, "work", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(work, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if args.trace:
        import replay

        tracer, mismatches = replay.Tracer(), []

        def after_call(op, call):
            note = replay.replay_call(tracer, op, call, work)
            if note:
                mismatches.append(note)

        calls = run_pass(args.workload, args.seed, args.seconds, work, after_call)
    else:
        calls = run_pass(args.workload, args.seed, args.seconds, work)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup = setup_seconds()
    attempted = sum(c.ops for c in calls)
    failed = sum(c.failed for c in calls)
    # every workload draws only inputs that the program can handle, so any
    # failed op, of whatever kind, is a wrong result
    correct = failed == 0
    record.update(
        calls=[c.record() for c in calls],
        attempted=attempted,
        failed=failed,
        fail_frac=failed / attempted,
        failures=taxonomy(calls),
    )
    if args.trace:
        values = replay.layer_metrics(calls, tracer)
        correct = correct and not mismatches
        record.update(replay_mismatches=mismatches)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in replay.PER_LAYER.items()}
        spans_path = record_path(args, "spans.jsonl")
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(span) + "\n" for span in tracer.dump())
        record["spans"] = spans_path
    else:
        values = {
            "ops_per_s": (attempted - failed) / sum(c.seconds for c in calls),
            "peak_rss_mb": peak_rss,
            "setup_s": setup,
        }
        if args.workload == "roundtrip":
            scored = calls
        else:
            # other workloads reconstruct nothing: score the criterion 04/05/12
            # reference once, outside the timed pass and after peak RSS is read
            probe = wl.run_roundtrip(wl.REF1, 0, work)
            correct = correct and probe.failed == 0
            record["scoreboard_probe"] = probe.record()
            scored = [probe]
        values.update(accuracy(scored))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    record["metrics"] = metrics
    record["correct"] = correct
    path = record_path(args, "json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print_summary(record, path)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def record_path(args, ext: str) -> str:
    runs = os.path.join(WORK, "runs")
    os.makedirs(runs, exist_ok=True)
    return os.path.join(runs, f"{args.workload}-seed{args.seed}-trace{args.trace}.{ext}")


def print_summary(record: dict, path: str) -> None:
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"calls={len(record['calls'])} record={os.path.relpath(path, ROOT)}")
    print(f"#   attempted={record['attempted']} failed={record['failed']} "
          f"fail_frac={record['fail_frac']:.4g} failures={record['failures']}")
    for name, m in record["metrics"].items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    for line in record.get("replay_mismatches", []):
        print(f"#   replay mismatch: {line}")


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS stays per workload."""
    results = {}
    for name in ("roundtrip", "map", "forward", "tsolve"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("roundtrip", "map", "forward", "tsolve", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.workload == "all":
        return run_all(args)
    import_program()
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
