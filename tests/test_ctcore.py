"""Algebraic layer: coefficient maps, nonlinear solves, tail sum rules."""

import math
import warnings

import numpy as np
import pytest
from scipy import optimize

from ctinv.ctcore import (
    _phase_residual,
    _wrap_pi,
    InputSet,
    ShiftedSet,
    asymptotic_data,
    coeffs_to_T,
    expansion_coeffs,
    kappa_matrices,
    moment_closed_form,
    one_shift_phase_formula,
    phases_from_T,
    reduce_phase,
    solve_T,
    sum_rules,
)
from ctinv.errors import (
    DomainError,
    IllConditionedWarning,
    InternalInconsistencyError,
    SingularConfigurationError,
)


def test_reduce_phase_branch():
    assert reduce_phase(0.2 * math.pi) == pytest.approx(0.2 * math.pi, abs=1e-15)
    assert reduce_phase(0.2 * math.pi + math.pi) == pytest.approx(0.2 * math.pi, abs=1e-12)
    # the branch is (-pi/2, pi/2]: both endpoints map to +pi/2
    assert reduce_phase(-math.pi / 2) == pytest.approx(math.pi / 2)
    assert reduce_phase(math.pi / 2) == pytest.approx(math.pi / 2)


def test_input_set_validation():
    with pytest.raises(DomainError):
        InputSet((0, 0), (0.1, 0.2))
    with pytest.raises(DomainError):
        InputSet((-1,), (0.1,))
    with pytest.raises(DomainError):
        InputSet((0.5,), (0.1,))
    with pytest.raises(DomainError):
        InputSet((0, 1), (0.1,))
    with pytest.raises(DomainError):
        InputSet((), ())
    with pytest.raises(DomainError):
        InputSet((0,), (math.inf,))
    for ell in (math.inf, math.nan):  # checked before int(), which raises OverflowError/ValueError
        with pytest.raises(DomainError):
            InputSet((ell,), (0.1,))
    s = InputSet((0,), (0.2 * math.pi + math.pi,))
    assert s.deltas[0] == pytest.approx(0.2 * math.pi)


def test_shifted_set_validation():
    with pytest.raises(DomainError):
        ShiftedSet((-0.6,))
    with pytest.raises(SingularConfigurationError):
        ShiftedSet((1.3027756, 1.3027756))


def test_expansion_coeffs_single_shift():
    s = InputSet((0,), (0.2 * math.pi,))
    c = expansion_coeffs(s, (-0.4,))
    # c_0 = (0*1 - (-0.4)(0.6)) / 1 = 0.24
    assert c.shape == (1,)
    assert c[0] == pytest.approx(0.24, abs=1e-14)


def test_coeffs_roundtrip_random():
    rng = np.random.default_rng(314159)
    s = InputSet((0, 1, 2), (0.1, 0.05, 0.02))
    ells = np.array([0.0, 1.0, 2.0])
    trials = 0
    while trials < 40:
        T = np.sort(rng.uniform(-0.45, 6.0, size=3))
        if np.min(np.diff(T)) < 0.1:
            continue
        if np.min(np.abs(T[:, None] - ells[None, :])) < 0.1:
            continue
        trials += 1
        c = expansion_coeffs(s, tuple(T))
        back = coeffs_to_T(s, c)
        assert np.max(np.abs(np.sort(back.Ls) - T)) < 1e-8


def test_kappa_matrix_convention():
    # single-shift cosine matrix: cos((ell - L) pi/2) / (L(L+1) - ell(ell+1))
    s = InputSet((0,), (0.2 * math.pi,))
    m_sin, m_cos = kappa_matrices(s, (-0.4,))
    assert m_cos[0, 0] == pytest.approx(math.cos(0.2 * math.pi) / -0.24, rel=1e-12)
    assert m_sin[0, 0] == pytest.approx(math.sin(-(-0.4) * math.pi / 2) / -0.24, rel=1e-12)


def test_phases_from_T_reference_pair():
    s = InputSet((0, 1), (0.0, 0.0))
    ph = phases_from_T(s, (-0.3056, 0.9295))
    assert abs(ph[0] - 0.4389) < 1e-4
    assert abs(ph[1] - 0.1246) < 1e-4


def test_phases_from_T_single_closed_form():
    # |S|=1: tan(delta) has the closed one-shift form for even ell
    s = InputSet((0,), (0.0,))
    for big_l in (-0.4, 0.3, 1.6):
        ph = phases_from_T(s, (big_l,))
        ref = reduce_phase(-math.pi * (big_l - 0.0) / 2.0)
        assert abs(reduce_phase(ph[0] - ref)) < 1e-12


def test_solve_T_family_single_shift():
    s = InputSet((0,), (0.2 * math.pi,))
    res = solve_T(s)
    assert not res.zero_potential
    family = [t.Ls[0] for t in res.candidates]
    assert family == pytest.approx([-0.4, 1.6, 3.6, 5.6], abs=1e-12)
    # every family member reproduces the input phase
    for t in res.candidates:
        ph = phases_from_T(s, t)
        assert abs(reduce_phase(ph[0] - 0.2 * math.pi)) < 1e-9


def test_solve_T_family_unique_k0():
    # exactly one member within |L - ell| <= 1 for phases on the principal
    # branch -- provided the k=0 value stays above the L > -1/2 floor (it
    # drops below only for ell=0 with delta > pi/4)
    for ell in (0, 1, 2):
        for delta in (0.3, -0.4, 1.0, -1.3):
            s = InputSet((ell,), (delta,))
            res = solve_T(s, k_range=6)
            inside = [t.Ls[0] for t in res.candidates if abs(t.Ls[0] - ell) <= 1.0 + 1e-12]
            k0 = ell - 2 * s.deltas[0] / math.pi
            if k0 > -0.5:
                assert len(inside) == 1, (ell, delta, inside)
                assert inside[0] == pytest.approx(k0, abs=1e-12)
            else:
                assert inside == [], (ell, delta, inside)


def test_solve_T_two_shifts_reference():
    s = InputSet((0, 1), (0.4389, 0.1246))
    res = solve_T(s)
    cands = [np.sort(t.Ls) for t in res.candidates]
    def has(target, tol):
        return any(np.max(np.abs(c - np.asarray(target))) < tol for c in cands)
    assert has((-0.3056, 0.9295), 1e-3)
    assert has((1.0650, 1.7016), 1e-3)
    # defining contract of the solver
    for t in res.candidates:
        ph = phases_from_T(InputSet(s.ells, (0.0, 0.0)), t)
        assert np.max(np.abs([reduce_phase(a - b) for a, b in zip(ph, s.deltas)])) < 1e-8


def test_solve_T_zero_potential_shortcut():
    res = solve_T(InputSet((0, 1), (0.0, 0.0)))
    assert res.zero_potential
    assert res.candidates == []


def test_solve_T_empty_with_diagnostics():
    # a lattice too coarse to reach any solution still reports per-seed residuals
    s = InputSet((0, 1), (0.4389, 0.1246))
    res = solve_T(s, seeds_per_axis=2)
    assert res.candidates == []
    assert res.seeds_tried > 0
    assert len(res.seed_residuals) == res.seeds_tried


def test_asymptotic_data_solves_systems():
    for s, t in [
        (InputSet((0,), (0.2 * math.pi,)), (-0.4,)),
        (InputSet((0, 1), (0.4389, 0.1246)), (-0.3056, 0.9295)),
        (InputSet((0, 2), (0.3, 0.1)), (0.35, 1.9)),
    ]:
        d = asymptotic_data(s, t)
        _, m_cos = kappa_matrices(s, t)
        ells = np.asarray(s.ells, dtype=float)
        assert np.max(np.abs(m_cos @ d.a - np.cos(ells * math.pi / 2))) < 1e-10
        assert np.max(np.abs(m_cos @ d.b - np.sin(ells * math.pi / 2))) < 1e-10


def test_asymptotic_parity():
    even = asymptotic_data(InputSet((0, 2), (0.3, 0.1)), (0.35, 1.9))
    assert np.max(np.abs(even.b)) < 1e-12
    odd = asymptotic_data(InputSet((1, 3), (0.3, 0.1)), (1.45, 2.8))
    assert np.max(np.abs(odd.a)) < 1e-12


def test_sum_rules_match_asymptotics_single_even():
    # with the even-parity normalisation B cos(delta) = 1 the residuals are closed forms
    s = InputSet((0,), (0.2 * math.pi,))
    t = (-0.4,)
    rules = sum_rules(s, t, s.deltas, 1.0 / np.cos(s.deltas))
    d = asymptotic_data(s, t)
    assert rules.coeff_sum == pytest.approx(0.24, abs=1e-14)
    assert rules.residual_cos == pytest.approx(-2 * d.alpha, abs=1e-12)
    assert rules.residual_sin == pytest.approx(-2 * d.beta, abs=1e-12)


def test_sum_rules_vanish_at_searched_configuration():
    # even S: alpha vanishes on the linear locus sum of L(L+1) = sum of ell(ell+1);
    # beta has a simple zero along it, located by 1-D bisection
    s = InputSet((0, 4), (0.0, 0.0))

    def t_of(w1):
        w2 = 20.0 - w1
        return (
            (-1 + math.sqrt(1 + 4 * w1)) / 2,
            (-1 + math.sqrt(1 + 4 * w2)) / 2,
        )

    def beta_of(w1):
        return asymptotic_data(s, t_of(w1)).beta

    w_star = optimize.brentq(beta_of, 3.77, 4.26, xtol=1e-13)
    t_star = t_of(w_star)
    assert t_star[0] == pytest.approx(1.5413812651491097, abs=1e-9)
    d = asymptotic_data(s, t_star)
    assert abs(d.alpha) < 1e-12
    assert abs(d.beta) < 1e-12
    deltas = phases_from_T(s, t_star)
    rules = sum_rules(InputSet((0, 4), tuple(deltas)), t_star, deltas, 1.0 / np.cos(deltas))
    assert abs(rules.residual_cos) < 1e-8
    assert abs(rules.residual_sin) < 1e-8


def test_sum_rules_even_parity_sign_pattern():
    # all-even S: residual_cos is exactly sum c_ell under B cos(delta) = 1
    s = InputSet((0, 2), (0.3, 0.1))
    t = (0.35, 1.9)
    rules = sum_rules(s, t, s.deltas, 1.0 / np.cos(s.deltas))
    assert rules.residual_cos == pytest.approx(rules.coeff_sum, rel=1e-12)


def test_sum_rules_need_b_for_mixed_parity():
    s = InputSet((0, 1), (0.3, 0.1))
    out = sum_rules(s, (0.4, 1.5), s.deltas, b_factors=(1.0, 1.0))
    assert math.isfinite(out.residual_cos)


def test_moment_closed_form_values():
    s = InputSet((0,), (0.2 * math.pi,))
    assert moment_closed_form(s, (-0.4,)) == pytest.approx(-0.8, abs=1e-14)
    # T -> S limit: moment vanishes linearly
    for eps in (1e-1, 1e-2, 1e-3):
        assert abs(moment_closed_form(s, (eps,))) < 2.5 * eps


def test_moment_closed_form_symmetry():
    s = InputSet((0, 1, 3), (0.1, 0.05, 0.02))
    t = (0.4, 1.7, 2.3)
    ref = moment_closed_form(s, t)
    assert moment_closed_form(s, (2.3, 0.4, 1.7)) == pytest.approx(ref, rel=1e-12)
    s2 = InputSet((3, 0, 1), (0.02, 0.1, 0.05))
    assert moment_closed_form(s2, t) == pytest.approx(ref, rel=1e-12)


def test_one_shift_phase_formula():
    delta0 = 0.2 * math.pi
    r2 = one_shift_phase_formula(-0.4, 2, delta0)
    ref = (-0.24) / (-0.24 - 6.0) * math.tan(delta0)
    assert r2.tan_delta == pytest.approx(ref, rel=1e-12)
    assert r2.delta == pytest.approx(math.atan(ref), rel=1e-12)
    assert r2.bound_ok is None  # bound only applies to attractive delta_0 < 0
    assert one_shift_phase_formula(-0.4, 3, delta0).tan_delta == 0.0
    attractive = one_shift_phase_formula(0.5, 2, -0.3)
    assert attractive.bound_ok is not None  # evaluated, truth not asserted
    with pytest.raises(SingularConfigurationError):
        one_shift_phase_formula(2.0, 2, 0.1)  # L(L+1) = ell(ell+1) pole


def test_cos_cond_per_candidate():
    for s in (InputSet((0, 1), (0.4389, 0.1246)), InputSet((0,), (0.2 * math.pi,))):
        res = solve_T(s)
        assert res.candidates and len(res.cos_cond) == len(res.candidates)
        for t, cond in zip(res.candidates, res.cos_cond):
            assert cond == np.linalg.cond(kappa_matrices(s, t)[1])


def _public_residual(ells, deltas, trial):
    """The Newton residual through the public, checked functions."""
    srt = np.sort(trial)
    if np.any(trial <= -0.5 + 1e-9) or (len(srt) > 1 and np.min(np.diff(srt)) < 1e-7):
        return None
    if np.min(np.abs(ells[:, None] - trial[None, :])) < 1e-7:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IllConditionedWarning)
            return _wrap_pi(phases_from_T(ells, ShiftedSet(tuple(srt))) - deltas)
    except InternalInconsistencyError:
        return None


def test_phase_residual_matches_public_path(monkeypatch):
    rng = np.random.default_rng(20)
    trials = []
    for ells in ((0.0, 1.0), (0.0, 1.0, 2.0)):
        ells = np.array(ells)
        for k in range(200):
            trial = rng.uniform(-0.49, ells[-1] + 3.0, len(ells))
            if k % 4 == 1:
                trial[0] = -0.5 + rng.uniform(0.0, 2e-9)  # at the order floor
            elif k % 4 == 2:
                trial[1] = trial[0] + rng.uniform(0.0, 1e-7)  # near-duplicate L
            elif k % 4 == 3:
                trial[-1] = rng.choice(ells) + rng.uniform(-1e-7, 1e-7)  # L on S
            trials.append((ells, rng.uniform(-1.5, 1.5, len(ells)), trial))
    expected = [_public_residual(*args) for args in trials]
    assert sum(e is None for e in expected) >= 200
    assert sum(e is not None for e in expected) >= 100

    def forbidden(*args, **kwargs):
        raise AssertionError("the Newton residual must not run cond() or catch warnings")

    with monkeypatch.context() as patch:  # undone before pytest reports
        patch.setattr(np.linalg, "cond", forbidden)
        patch.setattr(warnings, "catch_warnings", forbidden)
        residuals = [_phase_residual(*args) for args in trials]
    for got, want in zip(residuals, expected):
        assert (got is None) == (want is None)
        assert want is None or np.array_equal(got, want)
