"""Minimum-size check of the benchmark harness; takes a few seconds.

    python3 perfbench/selfcheck.py

Run from the repository root.  One call of each workload runs with its
oracle, is replayed through the traced pass, and must match; then each
oracle is shown a wrong answer and must reject it.  Exits 0 when all pass.
Last, the inputs the workloads avoid because the program fails on them
at the time of writing are run, and reported as KNOWN (still failing) or
FIXED; they do not change the exit code.
"""

from __future__ import annotations

import os
import sys

from run import WORK, import_program


def main() -> int:
    import_program()
    import replay
    import workloads as wl
    from ctinv.ctcore import ShiftedSet

    work = os.path.join(WORK, "work", "selfcheck")
    os.makedirs(work, exist_ok=True)
    tsolve_spec = wl.tsolve_inputs(0, 0)[0]
    specs = {
        "roundtrip": wl.REF1,
        "map": wl.WARMUP["map"],
        "forward": wl.WARMUP["forward"] | {"label": "ref-well"},
        "tsolve": tsolve_spec,
    }
    results = []
    tracer = replay.Tracer()
    for op, (name, spec) in enumerate(specs.items()):
        call = wl.WORKLOADS[name][1](spec, 0, work)
        mismatch = replay.replay_call(tracer, op, call, work)
        ok = call.failed == 0 and call.ops > 0 and mismatch is None
        results.append((f"{name}: one call, oracle and replay", ok, call.failures or mismatch or ""))

    inp = wl.tsolve_phases(tsolve_spec)
    wrong_T = [tsolve_spec["T"][0], tsolve_spec["T"][1] + 0.05]
    ok = not wl.tsolve_oracle(inp, wrong_T, [ShiftedSet(tuple(wrong_T))])
    results.append(("tsolve oracle rejects a T that does not reproduce the phases", ok, ""))
    fake = {"candidates": [{"T": [1.6], "zeros": [1.0]}]}
    ok = not wl.rejection_verified([0], fake)
    results.append(("roundtrip oracle rejects a 'zero' where D(r) is not zero", ok, ""))

    for label, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {label} {detail}")

    unsettled = wl.run_roundtrip(wl.KNOWN_UNSETTLED, 0, work)
    print(f"[{'KNOWN' if unsettled.failed else 'FIXED'}] roundtrip on delta = "
          f"{wl.KNOWN_UNSETTLED['deltas']} ends unsettled (exit 4) {unsettled.failures}")
    miss = wl.run_tsolve({"label": "known-miss", "ells": [0, 1], "T": list(wl.KNOWN_MISS_T)}, 0, work)
    print(f"[{'KNOWN' if miss.failed else 'FIXED'}] solve_T misses the generating "
          f"T = {wl.KNOWN_MISS_T} {miss.failures}")
    return 0 if all(ok for _, ok, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
