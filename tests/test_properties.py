"""Property tests: identities the pipeline rests on, checked on drawn (S, T)."""

import math
import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ctinv.cli import write_map_csv
from ctinv.consistency import AdmissibilityMap, scan_zeros
from ctinv.ctcore import InputSet, coeffs_to_T, expansion_coeffs, phases_from_T, solve_T
from ctinv.errors import InadmissibleConfigurationError
from ctinv.glm import RadialGrid, det_and_scale, solve_kernel
from ctinv.specfun import RiccatiTables, cross_wronskian

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def s_and_t(draw):
    """S: up to 3 distinct ell in 0..4; T: as many L in (-0.45, 5), 0.1 apart and 0.05 from S."""
    ells = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    Ls = draw(st.lists(st.floats(-0.45, 5.0), min_size=len(ells), max_size=len(ells)))
    Ls.sort()
    assume(all(hi - lo >= 0.1 for lo, hi in zip(Ls, Ls[1:])))
    assume(all(abs(L - ell) >= 0.05 for L in Ls for ell in ells))
    return ells, Ls


@PROPERTY_SETTINGS
@given(s_and_t())
def test_coeffs_to_T_inverts_expansion_coeffs(pair):
    ells, Ls = pair
    back = coeffs_to_T(ells, expansion_coeffs(ells, Ls))
    assert np.max(np.abs(np.asarray(back.Ls) - Ls)) < 1e-7


@PROPERTY_SETTINGS
@given(s_and_t())
def test_kernel_diagonal_is_log_derivative_of_determinant(pair):
    # dM/dr = v u^T / r^2 has rank one, so K(r, r) = r^2 D'(r) / D(r)
    ells, Ls = pair
    grid = RadialGrid(0.05, 10.0)
    try:
        kernel = solve_kernel(ells, Ls, grid)
    except InadmissibleConfigurationError:
        assume(False)
    # fourth-order central difference from r = 1 on: the O(h^2) one misses 1e-6
    # (2.3e-6 at S = {2}, T = {3.375}), and near 0 D ~ r^-n is too steep
    outer = grid.r >= 1.0
    r, h = grid.r[outer], 1e-4
    det, scale = det_and_scale(ells, Ls, r)

    def step(m):
        return det_and_scale(ells, Ls, r + m * h)[0] - det_and_scale(ells, Ls, r - m * h)[0]

    slope = (8.0 * step(1) - step(2)) / (12.0 * h)
    use = np.abs(det) > 1e-3 * scale
    k = kernel.k_diag[outer][use]
    assert np.all(np.abs(k - r[use] ** 2 * slope[use] / det[use]) <= 1e-6 * (1.0 + np.abs(k)))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.lists(st.floats(-0.45, 3.8), min_size=2, max_size=2))
def test_every_solve_T_candidate_reproduces_the_phases(Ls):
    # T for S = {0, 1} drawn over solve_T's search box: 0.1 apart and 0.05 from S
    Ls.sort()
    assume(Ls[1] - Ls[0] >= 0.1 and all(abs(L - ell) >= 0.05 for L in Ls for ell in (0, 1)))
    deltas = tuple(float(d) for d in phases_from_T((0, 1), Ls))
    for cand in solve_T(InputSet((0, 1), deltas)).candidates:
        got = phases_from_T((0, 1), cand)
        assert max(abs(math.remainder(g - d, math.pi)) for g, d in zip(got, deltas)) <= 1e-9


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    st.lists(st.floats(-0.45, 4.0), min_size=3, max_size=3),
    st.sampled_from([(20.0, 0.05), (35.0, 0.05), (None, 0.1)]),
)
def test_scan_through_shared_tables_equals_a_fresh_scan(Ls, radius_step):
    # a first scan on (L1, L3) leaves tables of S and L1, maybe longer than
    # the second scan needs; the short radii double their range, most of
    # them twice, so tables also grow under the second scan
    L1, L2, L3 = Ls
    assume(min(abs(L1 - L2), abs(L1 - L3)) >= 0.1)
    assume(all(abs(L - ell) >= 0.05 for L in Ls for ell in (0, 1)))
    r_max, step = radius_step
    tables = RiccatiTables(step)
    scan_zeros((0, 1), (L1, L3), r_max, step, tables=tables)
    shared = scan_zeros((0, 1), (L1, L2), r_max, step, tables=tables)
    assert shared == scan_zeros((0, 1), (L1, L2), r_max, step)
    assert shared.admissible == (shared.settled and not shared.zeros)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(-0.45, 5.0), st.integers(0, 4), st.floats(1000.0, 5000.0))
def test_cross_wronskian_tends_to_cosine(big_l, ell, x):
    bound = (1.0 + abs(ell * (ell + 1) - big_l * (big_l + 1))) / x
    assert abs(cross_wronskian(big_l, ell, x) - math.cos((ell - big_l) * math.pi / 2)) <= bound


def _read_map_csv(path):
    """S, metadata, axes and flags of a map CSV (rows L1,L2,admissible, L1 outer)."""
    meta, rows = {}, []
    with open(path, encoding="utf-8") as fh:
        for line in fh.read().splitlines():
            if line.startswith("#"):
                if " = " in line:
                    key, _, value = line[1:].partition(" = ")
                    meta[key.strip()] = value
            elif line != "L1,L2,admissible":
                rows.append(line.split(","))
    ells = tuple(int(e) for e in meta.pop("S").split(","))
    axis1 = np.array(list(dict.fromkeys(float(row[0]) for row in rows)))
    axis2 = np.array([float(row[1]) for row in rows[: len(rows) // len(axis1)]])
    flags = np.array([row[2] == "1" for row in rows]).reshape(len(axis1), len(axis2))
    return ells, meta, AdmissibilityMap(ells, axis1, axis2, flags)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(0, 6), min_size=2, max_size=2, unique=True),
    st.floats(-0.5, 6.0),
    st.floats(0.01, 1.0),
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
)
def test_map_csv_round_trips_exactly(ells, start, res, n1, n2, data):
    axis1 = start + res * np.arange(n1)
    axis2 = start + res * np.arange(n2)
    flags = np.array(data.draw(st.lists(st.booleans(), min_size=n1 * n2, max_size=n1 * n2)))
    amap = AdmissibilityMap(tuple(ells), axis1, axis2, flags.reshape(n1, n2))
    meta = {"box": "a,b,c,d", "res": format(res, ".12g")}
    with tempfile.TemporaryDirectory() as tmp:
        first, second = os.path.join(tmp, "first.csv"), os.path.join(tmp, "second.csv")
        write_map_csv(first, amap, meta)
        got_ells, got_meta, back = _read_map_csv(first)
        write_map_csv(second, back, got_meta)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()
    assert (got_ells, got_meta) == (tuple(ells), meta)
    assert np.array_equal(back.admissible, amap.admissible)
