"""Admissibility layer: determinant scans, the |L-ell|<=1 rule, selection, maps."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from ctinv import consistency
from ctinv.consistency import (
    admissibility_map,
    admissible_1d,
    default_scan_radius,
    scan_zeros,
    select_physical,
)
from ctinv.ctcore import InputSet, ShiftedSet
from ctinv.errors import DomainError, SingularConfigurationError
from ctinv.glm import det_and_scale
from ctinv.specfun import RiccatiTables, _riccati_halves

RAMM_ZERO = 2.4431401944940823


def test_scan_locates_reference_zero():
    v = scan_zeros((0,), (2.0,), 60.0, 0.05)
    assert v.settled
    assert not v.admissible
    assert len(v.zeros) >= 1
    assert abs(v.zeros[0] - RAMM_ZERO) < 1e-6


def test_scan_admissible_case_settles():
    v = scan_zeros((0,), (-0.4,))
    assert v.settled
    assert v.admissible
    assert v.zeros == ()


def test_scan_multiple_zeros():
    v = scan_zeros((0,), (3.6,), 60.0, 0.05)
    assert not v.admissible
    assert len(v.zeros) == 2
    assert abs(v.zeros[0] - 2.0205) < 2e-3
    assert abs(v.zeros[1] - 9.2170) < 2e-3


def test_scan_unsettled_when_radius_too_small():
    # still unsettled after the two range doublings, at r = 700 * 4
    v = scan_zeros((0, 1), (0.5, -0.2))
    assert not v.settled
    assert v.r_max == 2800.0
    assert not v.admissible  # no claim is made either way


def test_default_scan_radius():
    assert default_scan_radius((0,), (-0.4,)) == 700.0
    assert default_scan_radius((0,), (80.0,)) == pytest.approx(50.0 + 10 * 80.0)


def test_admissible_1d_rule_table():
    cases = [
        (0.0, -0.4, True),
        (0.0, 1.0, True),     # boundary |L - ell| = 1 included
        (0.0, 1.0001, False),
        (0.0, 2.0, False),
        (2.0, 1.2, True),
        (1.3, 0.4, True),     # real ell, real L
        (1.3, 2.7, False),
        (4.0, 4.9, True),
    ]
    for ell, big_l, expected in cases:
        assert admissible_1d(ell, big_l) is expected, (ell, big_l)


def test_admissible_1d_domain_guard():
    with pytest.raises(DomainError):
        admissible_1d(0.0, -0.6)


def test_rule_matches_scan_on_sample():
    # small fixed-seed slice of the full 200-pair acceptance sweep
    rng = np.random.default_rng(7)
    pairs = rng.uniform(-0.5, 5.0, size=(20, 2))
    for ell, big_l in pairs:
        if abs(big_l - ell) < 1e-6:
            continue
        v = scan_zeros((float(ell),), (float(big_l),))
        assert v.settled, (ell, big_l)
        assert v.admissible == admissible_1d(float(ell), float(big_l)), (ell, big_l)


def test_select_physical_reference_candidates():
    s = InputSet((0, 1), (0.4389, 0.1246))
    cands = [ShiftedSet((-0.3056, 0.9295)), ShiftedSet((1.0650, 1.7016))]
    rep = select_physical(s, cands)
    assert rep.chosen is not None
    assert np.allclose(rep.chosen.Ls, (-0.3056, 0.9295))
    assert not rep.ambiguous
    assert not rep.unsettled
    assert len(rep.verdicts) == 2
    assert rep.verdicts[0].admissible
    assert not rep.verdicts[1].admissible
    assert len(rep.verdicts[1].zeros) >= 1


def test_select_physical_ambiguous():
    s = InputSet((0,), (0.2 * np.pi,))
    rep = select_physical(s, [ShiftedSet((-0.4,)), ShiftedSet((0.6,))])
    assert rep.ambiguous
    assert rep.chosen is None
    assert len(rep.admissible) == 2


def test_select_physical_none_admissible():
    s = InputSet((0,), (0.2 * np.pi,))
    rep = select_physical(s, [ShiftedSet((2.0,))])
    assert rep.chosen is None
    assert rep.admissible == []
    assert not rep.ambiguous


def test_map_symmetry_and_validity():
    amap = admissibility_map((0, 1), (0.2, 1.2, 0.2, 1.2), resolution=0.5)
    assert list(amap.axis1) == pytest.approx([0.2, 0.7, 1.2])
    assert amap.admissible.shape == (3, 3)
    # T is unordered: the map is symmetric
    assert np.array_equal(amap.admissible, amap.admissible.T)
    # coincident-component diagonal is never admissible
    assert not np.any(np.diag(amap.admissible))
    assert amap.errors == []


def test_map_non_square_box_scans_every_cell():
    # no cell here has its swapped pair on the lattice, so each needs a scan
    amap = admissibility_map((0, 1), (0.3, 0.4, 0.25, 0.35), resolution=0.1)
    assert amap.admissible.shape == (2, 2)
    for i, l1 in enumerate(amap.axis1):
        for j, l2 in enumerate(amap.axis2):
            v = scan_zeros((0, 1), (float(l1), float(l2)))
            assert amap.admissible[i, j] == (v.settled and v.admissible)
    assert amap.errors == []


def test_map_contains_reference_solution_cell():
    amap = admissibility_map((0, 1), (-0.4, -0.2, 0.85, 0.95), resolution=0.1)
    i = int(np.argmin(np.abs(amap.axis1 - (-0.3056))))
    j = int(np.argmin(np.abs(amap.axis2 - 0.9295)))
    assert amap.admissible[i, j]


def test_map_single_cell_when_resolution_exceeds_box():
    amap = admissibility_map((0, 1), (0.2, 0.6, 0.2, 0.6), resolution=5.0)
    assert amap.admissible.shape == (1, 1)


def test_map_requires_two_channels():
    with pytest.raises(DomainError):
        admissibility_map((0,), (0.2, 1.2, 0.2, 1.2), resolution=0.5)


@pytest.mark.parametrize(
    "ells, threads, message",
    [
        ((0.5, 1.5), 1, "the admissibility map needs integer angular momenta"),
        ((0, 1), 0, "threads must be >= 1"),
        ((0, 1), -3, "threads must be >= 1"),
    ],
)
def test_map_refuses_non_integer_S_and_threads_below_one(ells, threads, message):
    with pytest.raises(DomainError, match=message):
        admissibility_map(ells, (0.0, 1.0, 0.0, 1.0), resolution=0.5, threads=threads)


@pytest.mark.parametrize(
    "ells, Ls, error",
    [
        ((0, 0), (0.5, 1.5), SingularConfigurationError),
        ((1, 1 + 1e-10), (0.5, 1.5), SingularConfigurationError),
        ((-3,), (0.5,), DomainError),
        ((-0.5,), (0.5,), DomainError),
        ((float("nan"),), (0.5,), DomainError),
    ],
)
def test_raw_S_validated_like_input_set(ells, Ls, error):
    # a plain sequence S gets the checks InputSet and ShiftedSet make
    with pytest.raises(error):
        scan_zeros(ells, Ls)
    with pytest.raises(error):
        select_physical(ells, [ShiftedSet(Ls)])


@pytest.mark.parametrize(
    "box, resolution",
    [
        ((0.0, 1.0, 0.0, 1.0), 0.0),
        ((0.0, 1.0, 0.0, 1.0), -0.5),
        ((0.0, 1.0, 0.0, 1.0), float("nan")),
        ((0.0, 1.0, 0.0, 1.0), float("inf")),
        ((0.0, float("inf"), 0.0, 1.0), 0.5),
        ((-float("inf"), 1.0, 0.0, 1.0), 0.5),
    ],
)
def test_map_lattice_must_be_finite(box, resolution):
    with pytest.raises(DomainError):
        admissibility_map((0, 1), box, resolution=resolution)


@pytest.mark.parametrize(
    "r_max, resolution",
    [
        (float("nan"), 0.05),
        (float("inf"), 0.05),
        (0.01, 0.05),
        (60.0, float("nan")),
        # no scan sample in the settle window [0.9 r_max, r_max]
        (0.06, 0.05),
        (0.3, 0.05),
        (None, 400.0),
    ],
)
def test_scan_radius_and_resolution_must_be_finite(r_max, resolution):
    with pytest.raises(DomainError):
        scan_zeros((0,), (0.5,), r_max, resolution)
    with pytest.raises(DomainError):
        admissibility_map((0, 1), (0.2, 0.6, 0.2, 0.6), 0.2, r_max=r_max, scan_resolution=resolution)


@pytest.mark.parametrize(
    "box, resolution",
    [((0.2, 1.2, 0.2, 1.2), 0.25), ((0.3, 0.9, 1.6, 2.0), 0.2)],
    ids=["square", "box"],
)
def test_tiled_map_equals_per_cell_scans(monkeypatch, box, resolution):
    # two lattice values per tile side: both lattices span several tiles
    monkeypatch.setattr(consistency, "MAP_TILE", 2)
    maps = [
        admissibility_map((0, 1), box, resolution, r_max=30.0, threads=threads)
        for threads in (1, 2)
    ]
    axis1, axis2 = maps[0].axis1, maps[0].axis2
    square = np.array_equal(axis1, axis2)
    tiles: dict = {}
    for i, l1 in enumerate(axis1):
        for j, l2 in enumerate(axis2):
            if (square and j < i) or l1 == l2:
                continue
            v = scan_zeros((0, 1), (float(l1), float(l2)), r_max=30.0)
            for amap in maps:
                assert amap.admissible[i, j] == (v.settled and v.admissible), (l1, l2)
            tiles.setdefault((i // 2, j // 2), set()).update((float(l1), float(l2)))
    # the S tables once per map, each lattice value once per tile that scans it
    assert len(tiles) > 1
    filled = 2 + sum(len(values) for values in tiles.values())
    most_live = 2 + max(len(values) for values in tiles.values())
    for amap in maps:
        assert amap.errors == []
        assert (amap.tables["filled"], amap.tables["most_live"]) == (filled, most_live)
    assert maps[0].tables == maps[1].tables


@pytest.mark.parametrize(
    "s, t", [((0,), (2.0,)), ((0, 1), (-0.3056, 0.9295)), ((0, 1, 2), (0.3, 1.2, 2.6))]
)
def test_scan_determinant_equals_det_and_scale_on_the_scan_grid(s, t):
    # more samples than one SCAN_BLOCK, and a range extended in two steps
    n = consistency.SCAN_BLOCK + 1000
    det, scale = det_and_scale(s, t, np.arange(1, n + 1, dtype=float) * 0.05)
    ells, Ls = np.asarray(s, dtype=float), np.asarray(t, dtype=float)
    tables = RiccatiTables(0.05)
    held = consistency._scan_det(ells, Ls, tables, 1500, np.empty(0), np.empty(0))
    scan_det, scan_scale = consistency._scan_det(ells, Ls, tables, n, *held)
    assert np.array_equal(scan_det, det) and np.array_equal(scan_scale, scale)


def test_doubled_scan_sends_each_sample_through_the_matrix_builder_once(monkeypatch):
    rows = []
    build = consistency._glm_matrix

    def counting(*args, **kwargs):
        m = build(*args, **kwargs)
        rows.append(len(m))
        return m

    monkeypatch.setattr(consistency, "_glm_matrix", counting)
    v = scan_zeros((0, 1), (0.5, -0.2), 50.0, 0.05)
    assert (v.settled, v.zeros, v.r_max) == (False, (), 200.0)  # doubled twice, no refinement
    assert sum(rows) == int(200.0 / 0.05)


def test_admissibility_is_derived_not_stored():
    assert "admissible" not in {f.name for f in dataclasses.fields(consistency.AdmissibilityVerdict)}
    for zeros, settled in (((), True), ((), False), ((2.5,), True)):
        verdict = consistency.AdmissibilityVerdict(zeros, 100.0, settled)
        assert verdict.admissible == (settled and not zeros)


def test_scan_through_shared_tables_refuses_another_step():
    with pytest.raises(DomainError, match="another scan step"):
        scan_zeros((0, 1), (0.5, 1.5), 30.0, 0.05, tables=RiccatiTables(0.1))


def test_shared_tables_fill_each_order_once_under_thread_contention():
    # more threads than cores, a short switch interval, and requests that
    # grow the same tables out of order: a lost update would refill a table
    # (filled > 4) or shrink one (a mismatch below)
    tables = RiccatiTables(0.05)
    lams = (-0.3056, 0.9295, 1.5, 2.5)
    lengths = [400, 1600, 800, 3200, 200, 2400]
    errors = []

    def worker(k):
        try:
            for step in range(12):
                n = lengths[(k + step) % len(lengths)]
                for (val, dval) in tables.halves(lams[k % 2 :], True, n):
                    assert len(val) == len(dval) == n
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads) and errors == []
    counts = tables.counts()
    assert counts == {"filled": 4, "bessel_points": 3 * 4 * 3200, "most_live": 4}
    x = np.arange(1, 3201, dtype=float) * 0.05
    for (val, dval), (ref, dref) in zip(tables.halves(lams, True, 3200), _riccati_halves(lams, x, True)):
        assert np.array_equal(val, ref) and np.array_equal(dval, dref)
