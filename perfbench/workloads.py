"""Workload inputs, the untraced operations that time them, and their oracles.

Each workload is a stream of cycles.  Cycle k of a run with seed s is drawn
from its own generator, ``random.Random(f"{workload}:{s}:{k}")``, so the
inputs of a cycle never depend on how many cycles ran before it, and the
traced replay can rebuild them exactly.  A cycle is a fixed mix of calls;
a run measures whole cycles, so the op mix, and hence ops/s, does not
depend on where the time budget happened to cut.

The benchmark draws every input itself.  Only ``tsolve`` asks the program
for something at set-up (``phases_from_T`` turns the drawn T into phases).
No input is kept or dropped at run time because of a verdict the program
gave; the regions the generators leave out are fixed constants here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

import numpy as np

from ctinv import cli
from ctinv.consistency import scan_zeros
from ctinv.ctcore import InputSet, ShiftedSet, phases_from_T, solve_T
from ctinv.glm import det_and_scale

FAILURE_KINDS = (
    "exception",
    "exit3_unverified",
    "exit4_unsettled",
    "extraction_error",
    "oracle_miss",
)

# The acceptance scoreboard's reference sets (criteria 01, 03, 04, 05, 12).
REF1 = {"label": "ref1", "ells": [0], "deltas": [0.2 * math.pi], "expect_T": [-0.4]}
REF2 = {
    "label": "ref2",
    "ells": [0, 1],
    "deltas": [0.4389, 0.1246],
    "expect_T": [-0.3056, 0.9295],
}
# Criterion 02: Woods-Saxon well (depth, radius, diffuseness) and its phases.
REF_WELL = (1.0, 1.0, 0.4)
REF_WELL_PHASES = {0: 0.4389, 1: 0.1246}

CLOSURE_TOL = 1e-2
ZERO_TOL = 1e-8
PHASE_TOL = 1e-9
MAP_RES = 0.25
MAP_SIDE = 9
MAP_SAMPLED_CELLS = 3
MAP_THREADS = 2
FORWARD_ELLMAX = 8
TSOLVE_S = (0, 1)
TSOLVE_GRID = 5
# (L1 range, L2 range) around the T that solve_T misses, e.g. KNOWN_MISS_T
TSOLVE_MISS_BOX = ((-0.45, 0.0), (1.95, 2.25))
KNOWN_MISS_T = (-0.11018738628146602, 2.0809271650807553)
# phases on which `ctinv roundtrip` ends unsettled (exit 4)
KNOWN_UNSETTLED = {"label": "known-unsettled", "ells": [0, 1], "deltas": [0.4, 0.02]}


@dataclass
class Call:
    """One call into the program; it stands for `ops` counted operations."""

    workload: str
    cycle: int
    label: str
    spec: dict
    ops: int
    seconds: float
    failures: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    csv_sha256: dict = field(default_factory=dict)
    accuracy: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def fail(self, kind: str, count: int = 1) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + count

    def record(self) -> dict:
        return {
            "cycle": self.cycle,
            "label": self.label,
            "spec": self.spec,
            "ops": self.ops,
            "seconds": self.seconds,
            "failures": self.failures,
            "csv_sha256": self.csv_sha256,
            "accuracy": self.accuracy,
        }


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def fmt(x: float) -> str:
    """The CLI's 12-significant-digit number format."""
    return format(float(x), ".12g")


def call_cli(argv: list[str]):
    """Run `ctinv` in-process; returns (exit code or None, report, seconds, error)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        error = err.getvalue().strip() or None
    except Exception as exc:  # a crash is a counted failure, the run goes on
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    text = out.getvalue().strip()
    report = json.loads(text) if code is not None and text.startswith("{") else None
    return code, report, seconds, error


def wrap_pi(x: float) -> float:
    return abs(math.remainder(x, math.pi))


# ---------------------------------------------------------------- roundtrip

def roundtrip_inputs(seed: int, k: int) -> list[dict]:
    """Both references plus two seeded S={0,1} phase pairs.

    The draw regions come from a landscape probe at the seed commit:
    delta0 in (0.2, 0.6) with delta1/delta0 in (0.4, 0.6) reconstructs,
    delta0 in (0.85, 1.0) has no admissible T.  delta1/delta0 below ~0.1
    ends unsettled (exit 4, a known defect), so no draw goes there: the
    timed ops must all be able to succeed.
    """
    rng = random.Random(f"roundtrip:{seed}:{k}")
    mid = rng.uniform(0.2, 0.6)
    mid_ratio = rng.uniform(0.4, 0.6)
    high = rng.uniform(0.85, 1.0)
    high_ratio = rng.uniform(0.2, 0.6)
    return [
        REF1,
        REF2,
        {"label": "mid-delta", "ells": [0, 1], "deltas": [mid, mid * mid_ratio]},
        {"label": "high-delta", "ells": [0, 1], "deltas": [high, high * high_ratio]},
    ]


def roundtrip_paths(work: str, k: int, spec: dict) -> tuple[str, str]:
    base = os.path.join(work, f"roundtrip-c{k}-{spec['label']}")
    return base + ".phases.txt", base + ".potential.csv"


def run_roundtrip(spec: dict, k: int, work: str) -> Call:
    phases, out = roundtrip_paths(work, k, spec)
    with open(phases, "w", encoding="utf-8") as fh:
        fh.writelines(f"{e} {d!r}\n" for e, d in zip(spec["ells"], spec["deltas"]))
    with contextlib.suppress(FileNotFoundError):
        os.remove(out)
    code, report, seconds, error = call_cli(["roundtrip", "--phases", phases, "--out", out])
    call = Call("roundtrip", k, spec["label"], spec, 1, seconds)
    call.outputs = {"code": code, "error": error}
    if code is None or report is None:
        call.fail("exception")
        return call
    call.outputs["candidates"] = [
        (c["T"], c["admissible"], c["settled"], c["zeros"]) for c in report.get("candidates", [])
    ]
    if code == cli.EXIT_UNSETTLED:
        call.fail("exit4_unsettled")
    elif code == cli.EXIT_NO_ADMISSIBLE:
        if "expect_T" in spec:
            call.fail("oracle_miss")
        elif not rejection_verified(spec["ells"], report):
            call.fail("exit3_unverified")
    elif code != cli.EXIT_OK:
        call.fail("exception")
    else:
        check_reconstruction(call, spec, report, out)
    return call


def rejection_verified(ells, report: dict) -> bool:
    """Every candidate carries a located zero with |D(z)| <= 1e-8 * scale."""
    cands = report.get("candidates", [])
    if not cands:
        return False
    for cand in cands:
        if not cand["zeros"]:
            return False
        for z in cand["zeros"]:
            det, scale = det_and_scale(ells, cand["T"], z)
            if abs(det) > ZERO_TOL * scale:
                return False
    return True


def check_reconstruction(call: Call, spec: dict, report: dict, out: str) -> None:
    rows = report["phases"] + report.get("parity_leakage", {}).get("rows", [])
    if any("error" in row for row in rows) or report.get("moment_numeric") is None:
        call.fail("extraction_error")
        return
    chosen = report["chosen_T"]
    call.outputs.update(chosen_T=chosen, recovered=[row["recovered"] for row in report["phases"]])
    call.csv_sha256["potential"] = sha256_file(out)
    closure = report["max_phase_discrepancy"]
    expect = spec.get("expect_T")
    if not closure < CLOSURE_TOL or (
        expect is not None and max(abs(a - b) for a, b in zip(chosen, expect)) > 1e-3
    ):
        call.fail("oracle_miss")
    tail, cf = report["tail"], report["tail_closed_form"]
    call.accuracy = {
        "closure_err": closure,
        "moment_err": abs(report["moment_numeric"] - report["moment_closed_form"]),
        "tail_err": max(abs(tail["alpha"] - cf["alpha"]), abs(tail["beta"] - cf["beta"])),
    }


# ---------------------------------------------------------------------- map

def map_inputs(seed: int, k: int) -> list[dict]:
    """A 9x9 lattice at resolution 0.25 whose origin the seed shifts."""
    rng = random.Random(f"map:{seed}:{k}")
    a = -0.5 + rng.uniform(0.01, 0.24)
    return [{"label": "map", "ells": [0, 1], "origin": a, "res": MAP_RES, "side": MAP_SIDE}]


def map_axis(spec: dict) -> np.ndarray:
    a, res = spec["origin"], spec["res"]
    b = a + (spec["side"] - 1) * res
    return np.arange(a, b + 0.5 * res, res)


def map_box(spec: dict) -> list[float]:
    a, b = spec["origin"], spec["origin"] + (spec["side"] - 1) * spec["res"]
    return [a, b, a, b]


def map_cell_valid(ells, l1: float, l2: float) -> bool:
    """Cells the map must leave at 0 without a scan: L <= -1/2, on S, or L1 = L2."""
    if l1 <= -0.5 + 1e-9 or l2 <= -0.5 + 1e-9 or abs(l1 - l2) < 1e-6:
        return False
    return min(abs(l - e) for l in (l1, l2) for e in ells) >= 1e-6


def map_scanned_cells(spec: dict) -> list[tuple[int, int]]:
    """Upper-triangle cells that `admissibility_map` scans (the rest mirror)."""
    axis = map_axis(spec)
    return [
        (i, j)
        for i in range(len(axis))
        for j in range(i, len(axis))
        if map_cell_valid(spec["ells"], float(axis[i]), float(axis[j]))
    ]


def read_map_csv(path: str, n: int) -> np.ndarray:
    flags = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("L1"):
                continue
            flags.append(int(line.rsplit(",", 1)[1]))
    return np.asarray(flags, dtype=int).reshape(n, n)


def run_map(spec: dict, k: int, work: str) -> Call:
    out = os.path.join(work, f"map-c{k}.csv")
    box = ",".join(repr(v) for v in map_box(spec))
    argv = ["map", "--ells", "0,1", f"--box={box}", "--res", repr(spec["res"]),
            "--threads", str(MAP_THREADS), "--out", out]
    code, report, seconds, error = call_cli(argv)
    n = spec["side"]
    call = Call("map", k, spec["label"], spec, n * n, seconds)
    call.outputs = {"code": code, "error": error}
    if code != cli.EXIT_OK or report is None:
        call.fail("exception", n * n)
        return call
    if report["errors"]:
        call.fail("exception", len(report["errors"]))
    call.csv_sha256["map"] = sha256_file(out)
    flags = read_map_csv(out, n)
    call.outputs["flags"] = flags.tolist()
    axis = map_axis(spec)
    bad = int(np.count_nonzero(np.triu(flags != flags.T)))
    for i in range(n):
        for j in range(n):
            if flags[i, j] and not map_cell_valid(spec["ells"], float(axis[i]), float(axis[j])):
                bad += 1
    rng = random.Random(f"map-oracle:{k}:{spec['origin']!r}")
    for i, j in rng.sample(map_scanned_cells(spec), MAP_SAMPLED_CELLS):
        v = scan_zeros(spec["ells"], (float(axis[i]), float(axis[j])))
        bad += int(bool(v.settled and v.admissible) != bool(flags[i, j]))
    if bad:
        call.fail("oracle_miss", bad)
    return call


# ------------------------------------------------------------------ forward

def forward_inputs(seed: int, k: int) -> list[dict]:
    """Cycle 0 is the criterion 02 well; later cycles draw Woods-Saxon wells."""
    if k == 0:
        well = REF_WELL
    else:
        rng = random.Random(f"forward:{seed}:{k}")
        well = (rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.6))
    return [{"label": "ref-well" if k == 0 else "well", "ws": list(well)}]


def run_forward(spec: dict, k: int, work: str) -> Call:
    out = os.path.join(work, f"forward-c{k}.csv")
    ws = ",".join(repr(v) for v in spec["ws"])
    argv = ["forward", f"--ws={ws}", "--ellmax", str(FORWARD_ELLMAX), "--out", out]
    code, report, seconds, error = call_cli(argv)
    n = FORWARD_ELLMAX + 1
    call = Call("forward", k, spec["label"], spec, n, seconds)
    call.outputs = {"code": code, "error": error}
    if code != cli.EXIT_OK or report is None:
        call.fail("exception", n)
        return call
    call.csv_sha256["phases"] = sha256_file(out)
    deltas = {row["ell"]: row["delta"] for row in report["phases"] if row["error"] is None}
    call.outputs["deltas"] = [deltas.get(ell) for ell in range(n)]
    missing = n - sum(1 for d in deltas.values() if d is not None and math.isfinite(d))
    if missing:
        call.fail("extraction_error", missing)
    if spec["label"] == "ref-well":
        miss = sum(
            1 for ell, ref in REF_WELL_PHASES.items()
            if ell not in deltas or wrap_pi(deltas[ell] - ref) >= 1e-3
        )
        if miss:
            call.fail("oracle_miss", miss)
    return call


# ------------------------------------------------------------------- tsolve

def tsolve_inputs(seed: int, k: int) -> list[dict]:
    """One seeded T for S={0,1} in each stratum of the domain.

    T = (L1 < L2) with L in (-0.45, 3.8), 0.1 apart and 0.05 from S.  The
    cost of a solve depends strongly on where T lies, so every cycle draws
    one T inside each cell of a TSOLVE_GRID x TSOLVE_GRID grid over that
    triangle: the seed moves the points, not the mix.  No T is drawn in
    TSOLVE_MISS_BOX, where the multistart misses the generating T at the
    seed commit (see README.md, known defects).
    """
    rng = random.Random(f"tsolve:{seed}:{k}")
    lo, hi = -0.45, 3.8  # solve_T's default search box for S={0,1} ends at max(S) + 3
    edges = np.linspace(lo, hi, TSOLVE_GRID + 1)
    (m1, m2), (m3, m4) = TSOLVE_MISS_BOX
    specs = []
    for i in range(TSOLVE_GRID):
        for j in range(i, TSOLVE_GRID):
            while True:
                Ls = sorted((rng.uniform(edges[i], edges[i + 1]), rng.uniform(edges[j], edges[j + 1])))
                if (
                    Ls[1] - Ls[0] >= 0.1
                    and min(abs(L - e) for L in Ls for e in TSOLVE_S) >= 0.05
                    and not (m1 < Ls[0] < m2 and m3 < Ls[1] < m4)
                ):
                    break
            specs.append({"label": f"cell{i}{j}", "ells": list(TSOLVE_S), "T": Ls})
    return specs


def tsolve_phases(spec: dict) -> InputSet:
    deltas = phases_from_T(spec["ells"], ShiftedSet(tuple(spec["T"])))
    return InputSet(tuple(spec["ells"]), tuple(float(d) for d in deltas))


def run_tsolve(spec: dict, k: int, work: str) -> Call:
    inp = tsolve_phases(spec)
    call = Call("tsolve", k, spec["label"], spec, 1, 0.0)
    t0 = time.perf_counter()
    try:
        result = solve_T(inp)
    except Exception as exc:  # a crash is a counted failure, the run goes on
        call.seconds = time.perf_counter() - t0
        call.outputs = {"error": f"{type(exc).__name__}: {exc}"}
        call.fail("exception")
        return call
    call.seconds = time.perf_counter() - t0
    cands = [list(c.Ls) for c in result.candidates]
    call.outputs = {"candidates": cands, "seeds_tried": result.seeds_tried}
    if not tsolve_oracle(inp, spec["T"], result.candidates):
        call.fail("oracle_miss")
    return call


def tsolve_oracle(inp: InputSet, generating_T, candidates) -> bool:
    """The generating T is among the candidates; each one reproduces the phases."""
    found = any(max(abs(a - b) for a, b in zip(c.Ls, generating_T)) < 1e-6 for c in candidates)
    for cand in candidates:
        got = phases_from_T(inp.ells, cand)
        if max(wrap_pi(g - d) for g, d in zip(got, inp.deltas)) > PHASE_TOL:
            return False
    return found


# One untimed call per run, before the timed pass, so that first-call costs
# (lazy imports, interpreter specialisation) stay out of ops/s.
WARMUP = {
    "roundtrip": REF1,
    "map": {"label": "warmup", "ells": [0, 1], "origin": 0.3, "res": MAP_RES, "side": 3},
    "forward": {"label": "warmup", "ws": list(REF_WELL)},
    "tsolve": {"label": "warmup", "ells": list(TSOLVE_S), "T": [0.4, 2.2]},
}

WORKLOADS = {
    "roundtrip": (roundtrip_inputs, run_roundtrip),
    "map": (map_inputs, run_map),
    "forward": (forward_inputs, run_forward),
    "tsolve": (tsolve_inputs, run_tsolve),
}
