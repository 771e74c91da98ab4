"""The traced pass: replay the untraced calls through each module's public API.

Spans are recorded here, around the calls into each layer, so the program
itself carries no tracing code.  The replay follows the order in which
`ctinv roundtrip` (and `map`, `forward`) call the library, and checks that
it reproduces the untraced outputs.  Two probes time one layer in
isolation after each op: `riccati` on the op's tables (specfun) and
`phases_from_T` on its solved T (ctcore).  Each call is replayed right
after its untraced run, so the two timings see the same host state.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from ctinv import cli
from ctinv.consistency import AdmissibilityMap, admissible_1d, default_scan_radius, scan_zeros
from ctinv.ctcore import (
    InputSet,
    ShiftedSet,
    asymptotic_data,
    moment_closed_form,
    phases_from_T,
    solve_T,
)
from ctinv.errors import DomainError, WindowTooSmallError
from ctinv.forward import (
    PhaseRow,
    PhaseShiftTable,
    SampledPotential,
    WoodsSaxon,
    extract_phase,
    integrate_regular,
)
from ctinv.glm import RadialGrid, moment_numeric, potential, solve_kernel, transformed_wave
from ctinv.specfun import riccati

import workloads as wl

CFG = cli.RunConfig()
PHASES_PROBE_CALLS = 50
MAP_PROBED_CELLS = 4
PER_LAYER = {
    "ctcore.solve_T.busy_s": "s/op",
    "ctcore.seeds_tried": "count/op",
    "ctcore.seed_yield": "ratio",
    "ctcore.phases_from_T.calls_per_s": "1/s",
    "consistency.scan_zeros.busy_s": "s/op",
    "consistency.scans": "count/op",
    "consistency.scan_samples": "count/op",
    "consistency.doublings": "count/op",
    "consistency.unsettled": "count/op",
    "consistency.map.parallel_eff": "ratio",
    "glm.solve_kernel.busy_s": "s/op",
    "glm.transformed_wave.busy_s": "s/op",
    "glm.kernel_points": "count/op",
    "specfun.riccati_table.busy_s": "s/op",
    "specfun.riccati.points_per_s": "1/s",
    "specfun.wronskian_max": "ratio",
    "forward.integrate_regular.busy_s": "s/op",
    "forward.extract_phase.busy_s": "s/op",
    "forward.numerov_steps": "count/op",
    "forward.extract_resid_max": "ratio",
    "cli.write_csv.busy_s": "s/op",
    "cli.untraced_s": "s/op",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """In-memory spans (name, start, end, parent index, op id, weight) plus counters.

    A span's weight scales its time when it stands for more work than it
    timed (the map's Riccati probe covers a sample of cells).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.deferred: list = []

    @contextmanager
    def span(self, name: str, op: int, weight: float = 1.0):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, op, weight])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, op: int, fn, *args, **kwargs):
        with self.span(name, op):
            return fn(*args, **kwargs)

    def defer(self, probe, *args) -> None:
        """Queue a probe to run after the current op span has closed."""
        self.deferred.append((probe, args))

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "op", "weight")
        return [dict(zip(keys, span)) for span in self.spans]


def note_scan(tr: Tracer, ells, Ls, verdict) -> list[int]:
    """Count a scan; returns the sample count of every grid it sampled."""
    radius = default_scan_radius(ells, Ls)
    doublings = int(round(math.log2(verdict.r_max / radius)))
    samples = [int(radius * 2.0**a / CFG.scan_resolution) for a in range(doublings + 1)]
    tr.counts["scans"] += 1
    tr.counts["doublings"] += doublings
    tr.counts["unsettled"] += int(not verdict.settled)
    tr.counts["scan_samples"] += sum(samples)
    return samples


def riccati_probe(tr: Tracer, op: int, tables: set, weight: float = 1.0) -> None:
    """Time `riccati` on each distinct (order, step, points) table an op used."""
    for order, step, points in sorted(tables):
        x = (np.arange(points, dtype=float) + 1.0) * step
        with tr.span("probe.riccati", op, weight):
            pair = riccati(order, x)
        tr.counts["riccati_points"] += weight * points
        wron = float(np.max(np.abs(pair.u * pair.dv - pair.du * pair.v - 1.0)))
        tr.maxima["wronskian"] = max(tr.maxima["wronskian"], wron)


def phases_probe(tr: Tracer, op: int, ells, chosen) -> None:
    with tr.span("probe.phases_from_T", op):
        for _ in range(PHASES_PROBE_CALLS):
            phases_from_T(ells, chosen)
    tr.counts["phases_calls"] += PHASES_PROBE_CALLS


def extract(tr: Tracer, op: int, r, wave, ell: int):
    """Traced `extract_phase`; None where `phase_table` would record an error."""
    try:
        ext = tr.call("forward.extract_phase", op, extract_phase, r, wave, ell)
    except (DomainError, WindowTooSmallError):
        return None
    tr.maxima["extract_resid"] = max(tr.maxima["extract_resid"], ext.residual / abs(ext.b_norm))
    return ext


# ---------------------------------------------------------------- roundtrip

def replay_roundtrip(tr: Tracer, op: int, call: wl.Call, work: str) -> dict:
    phases, out = wl.roundtrip_paths(work, call.cycle, call.spec)
    inp = tr.call("cli.read_phase_file", op, cli.read_phase_file, phases)
    solve = tr.call(
        "ctcore.solve_T", op, solve_T, inp,
        seeds_per_axis=CFG.seeds_per_axis, k_range=CFG.k_range,
    )
    tr.counts["seeds_tried"] += solve.seeds_tried
    tr.counts["candidates"] += len(solve.candidates)
    tables: set[tuple[float, float, int]] = set()
    verdicts = []
    for cand in solve.candidates:
        v = tr.call(
            "consistency.scan_zeros", op, scan_zeros, inp.ells, cand,
            resolution=CFG.scan_resolution,
        )
        if len(inp.ells) == 1:
            tr.call("consistency.admissible_1d", op, admissible_1d, float(inp.ells[0]), cand.Ls[0])
        for points in note_scan(tr, inp.ells, cand.Ls, v):
            tables.update((float(o), CFG.scan_resolution, points) for o in (*inp.ells, *cand.Ls))
        verdicts.append(v)
    got = {
        "candidates": [
            [list(c.Ls), v.admissible, v.settled, list(v.zeros)]
            for c, v in zip(solve.candidates, verdicts)
        ]
    }
    tr.defer(riccati_probe, tables)
    admissible = [c for c, v in zip(solve.candidates, verdicts) if v.settled and v.admissible]
    if not admissible:
        unsettled = any(not v.settled for v in verdicts)
        got["code"] = cli.EXIT_UNSETTLED if unsettled else cli.EXIT_NO_ADMISSIBLE
        return got
    chosen = admissible[0]
    got.update(code=cli.EXIT_OK, chosen_T=list(chosen.Ls))
    grid = RadialGrid(CFG.step, CFG.lambda_max)
    kernel = tr.call("glm.solve_kernel", op, solve_kernel, inp, chosen, grid)
    tr.counts["kernel_points"] += grid.n * len(inp.ells)
    tables.update((float(o), CFG.step, grid.n) for o in (*inp.ells, *chosen.Ls))
    profile = tr.call("glm.potential", op, potential, inp, chosen, grid, kernel=kernel)
    tr.call("glm.moment_numeric", op, moment_numeric, profile)
    tr.call("ctcore.moment_closed_form", op, moment_closed_form, inp, chosen)
    tr.call("ctcore.asymptotic_data", op, asymptotic_data, inp, chosen)
    for ell in inp.ells:
        wave = tr.call("glm.transformed_wave", op, transformed_wave, inp, chosen, float(ell), grid, kernel)
        extract(tr, op, grid.r, wave, ell)
    tr.call("cli.write_potential_csv", op, cli.write_potential_csv, out, profile, inp)
    got["csv_sha256"] = {"potential": wl.sha256_file(out)}
    pot = tr.call("forward.SampledPotential.from_profile", op, SampledPotential.from_profile, profile)
    fgrid = RadialGrid(profile.h, profile.r_max)
    recovered = []
    for ell in inp.ells + leakage_channels(inp):
        wave = tr.call("forward.integrate_regular", op, integrate_regular, pot, ell, fgrid)
        tr.counts["numerov_steps"] += fgrid.n
        ext = extract(tr, op, fgrid.r, wave, ell)
        if ell in inp.ells:
            recovered.append(None if ext is None else ext.delta)
    got["recovered"] = recovered
    tr.defer(phases_probe, inp.ells, chosen)
    return got


def leakage_channels(inp: InputSet) -> tuple[int, ...]:
    """Opposite-parity channels `ctinv roundtrip` checks when S has one parity."""
    parities = {ell % 2 for ell in inp.ells}
    if len(parities) != 1:
        return ()
    parity = parities.pop()
    return tuple(ell for ell in range(max(inp.ells) + 2) if ell % 2 != parity)


# ---------------------------------------------------------------------- map

def replay_map(tr: Tracer, op: int, call: wl.Call, work: str) -> dict:
    spec = call.spec
    axis = wl.map_axis(spec)
    flags = np.zeros((len(axis), len(axis)), dtype=bool)
    cells = wl.map_scanned_cells(spec)
    probed = cells[:: max(1, len(cells) // MAP_PROBED_CELLS)][:MAP_PROBED_CELLS]
    for i, j in cells:
        Ls = (float(axis[i]), float(axis[j]))
        v = tr.call(
            "consistency.scan_zeros", op, scan_zeros, spec["ells"], Ls,
            resolution=CFG.scan_resolution,
        )
        samples = note_scan(tr, spec["ells"], Ls, v)
        flags[i, j] = v.settled and v.admissible
        if (i, j) in probed:
            # the probe covers a sample of cells; weight it up to every scanned cell
            tables = {(float(o), CFG.scan_resolution, n) for n in samples for o in (*spec["ells"], *Ls)}
            tr.defer(riccati_probe, tables, len(cells) / len(probed))
    flags |= np.triu(flags, 1).T
    amap = AdmissibilityMap(tuple(spec["ells"]), axis, axis, flags, [])
    out = f"{work}/map-c{call.cycle}.csv"
    meta = {"box": ",".join(wl.fmt(v) for v in wl.map_box(spec)), "res": wl.fmt(spec["res"])}
    tr.call("cli.write_map_csv", op, cli.write_map_csv, out, amap, meta)
    return {
        "code": cli.EXIT_OK,
        "flags": flags.astype(int).tolist(),
        "csv_sha256": {"map": wl.sha256_file(out)},
    }


# ------------------------------------------------------------------ forward

def replay_forward(tr: Tracer, op: int, call: wl.Call, work: str) -> dict:
    pot = WoodsSaxon(*call.spec["ws"])
    grid = RadialGrid(CFG.step, CFG.forward_lambda)
    rows = []
    for ell in range(wl.FORWARD_ELLMAX + 1):
        wave = tr.call("forward.integrate_regular", op, integrate_regular, pot, ell, grid)
        tr.counts["numerov_steps"] += grid.n
        ext = extract(tr, op, grid.r, wave, ell)
        rows.append(
            PhaseRow(ell, None, None, None, "extraction failed")
            if ext is None
            else PhaseRow(ell, ext.delta, ext.b_norm, ext.residual)
        )
    table = PhaseShiftTable(pot.describe(), rows)
    out = f"{work}/forward-c{call.cycle}.csv"
    meta = {"potential": table.source, "h": wl.fmt(grid.h), "lambda": wl.fmt(grid.r[-1])}
    tr.call("cli.write_phase_csv", op, cli.write_phase_csv, out, table, meta)
    return {
        "code": cli.EXIT_OK,
        "deltas": [row.delta for row in rows],
        "csv_sha256": {"phases": wl.sha256_file(out)},
    }


# ------------------------------------------------------------------- tsolve

def replay_tsolve(tr: Tracer, op: int, call: wl.Call, work: str) -> dict:
    inp = wl.tsolve_phases(call.spec)
    result = tr.call("ctcore.solve_T", op, solve_T, inp)
    tr.counts["seeds_tried"] += result.seeds_tried
    tr.counts["candidates"] += len(result.candidates)
    tr.defer(phases_probe, inp.ells, ShiftedSet(tuple(call.spec["T"])))
    return {"candidates": [list(c.Ls) for c in result.candidates], "seeds_tried": result.seeds_tried}


REPLAY = {
    "roundtrip": replay_roundtrip,
    "map": replay_map,
    "forward": replay_forward,
    "tsolve": replay_tsolve,
}


def expected(call: wl.Call) -> dict:
    """The untraced outputs the replay must reproduce, in replay form."""
    want = {k: v for k, v in call.outputs.items() if k != "error"}
    if call.csv_sha256:
        want["csv_sha256"] = call.csv_sha256
    if call.workload == "roundtrip" and "candidates" in want:
        want["candidates"] = [[list(t), a, s, list(z)] for t, a, s, z in want["candidates"]]
    return want


def replay_call(tr: Tracer, op: int, call: wl.Call, work: str) -> str | None:
    """Replay one untraced call as op `op`; returns a mismatch note or None."""
    with tr.span(f"op:{call.workload}:{call.label}", op):
        got = REPLAY[call.workload](tr, op, call, work)
    for probe, args in tr.deferred:
        probe(tr, op, *args)
    tr.deferred.clear()
    want = expected(call)
    diff = sorted(k for k in want if got.get(k) != want[k])
    return f"cycle {call.cycle} {call.label}: {', '.join(diff)} differ" if diff else None


def layer_metrics(calls: list[wl.Call], tr: Tracer) -> dict:
    """Per-layer metrics; times and counts are per counted op of the workload."""
    seconds = [weight * (end - start) for _, start, end, _, _, weight in tr.spans]

    def busy(prefix: str, op: int | None = None, top: bool = False) -> float:
        return sum(
            sec
            for sec, (name, _, _, parent, o, _) in zip(seconds, tr.spans)
            if name.startswith(prefix)
            and (op is None or o == op)
            and (not top or (parent is not None and tr.spans[parent][0].startswith("op:")))
        )

    n = sum(call.ops for call in calls)
    c = tr.counts
    untraced = sum(call.seconds for call in calls)
    traced = busy("op:")
    layers = sum(busy("", op, top=True) for op in range(len(calls)))
    scans = busy("consistency.scan_zeros")
    is_map = calls[0].workload == "map"
    threads = wl.MAP_THREADS
    if is_map:
        layers -= scans - scans / threads  # the untraced map scans on `threads` threads
    riccati_s = busy("probe.riccati")
    phases_s = busy("probe.phases_from_T")
    return {
        "ctcore.solve_T.busy_s": busy("ctcore.solve_T") / n,
        "ctcore.seeds_tried": c["seeds_tried"] / n,
        "ctcore.seed_yield": c["candidates"] / c["seeds_tried"] if c["seeds_tried"] else 0.0,
        "ctcore.phases_from_T.calls_per_s": c["phases_calls"] / phases_s if phases_s else 0.0,
        "consistency.scan_zeros.busy_s": scans / n,
        "consistency.scans": c["scans"] / n,
        "consistency.scan_samples": c["scan_samples"] / n,
        "consistency.doublings": c["doublings"] / n,
        "consistency.unsettled": c["unsettled"] / n,
        "consistency.map.parallel_eff": scans / (threads * untraced) if is_map else 0.0,
        "glm.solve_kernel.busy_s": busy("glm.solve_kernel") / n,
        "glm.transformed_wave.busy_s": busy("glm.transformed_wave") / n,
        "glm.kernel_points": c["kernel_points"] / n,
        "specfun.riccati_table.busy_s": riccati_s / n,
        "specfun.riccati.points_per_s": c["riccati_points"] / riccati_s if riccati_s else 0.0,
        "specfun.wronskian_max": tr.maxima["wronskian"],
        "forward.integrate_regular.busy_s": busy("forward.integrate_regular") / n,
        "forward.extract_phase.busy_s": busy("forward.extract_phase") / n,
        "forward.numerov_steps": c["numerov_steps"] / n,
        "forward.extract_resid_max": tr.maxima["extract_resid"],
        "cli.write_csv.busy_s": busy("cli.write_") / n,
        "cli.untraced_s": (untraced - layers) / n,
        "trace.overhead_frac": (traced - untraced) / untraced,
    }
