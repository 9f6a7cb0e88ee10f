import numpy as np
import pytest

from cpshrink.channel import (
    KrausChannel,
    identity_channel,
    partial_trace_channel,
    random_channel,
    random_cptp_channel,
)
from cpshrink.errors import ConvergenceFailure, DimensionMismatch
from cpshrink.gauge import Combination, KyFan, Schatten, gauge_eval
from cpshrink.shrink import (
    check_gauge_bounds,
    check_kyfan_bounds,
    empirical_lower_bound,
    fan_projectors,
    norm_battery,
    padded_dim_for,
    shrink_report,
    shrink_upper_bound,
    spectral_shrink_factor,
    top_k_eigensum,
    trace_shrink_factor,
)
from cpshrink.spectral import random_hermitian, singular_values, spectral_norm, trace_norm

INF = float("inf")


def _random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    return q


def _random_feasible_projector_like(dim, k, rng):
    """Random p with 0 <= p <= I and tr(p) = k, via capped-simplex eigenvalues."""
    lam = rng.random(dim)
    lam *= k / lam.sum()
    # water-filling: clip the overshoot to 1 and rescale the rest
    while lam.max() > 1.0 + 1e-12:
        capped = lam >= 1.0
        lam[capped] = 1.0
        rest = ~capped
        need = k - capped.sum()
        lam[rest] *= need / lam[rest].sum()
    u = _random_unitary(dim, rng)
    return (u * lam) @ u.conj().T


class TestTopKEigensum:
    def test_example(self):
        assert top_k_eigensum(np.diag([2.0, -5.0, 1.0]), 2) == pytest.approx(3.0)

    def test_k_beyond_dim_is_trace(self):
        rng = np.random.default_rng(1)
        x = random_hermitian(4, rng)
        assert top_k_eigensum(x, 9) == pytest.approx(np.trace(x).real, abs=1e-10)

    def test_k_positive(self):
        with pytest.raises(ValueError):
            top_k_eigensum(np.eye(2), 0)

    def test_dominates_feasible_traces(self):
        rng = np.random.default_rng(2)
        x = random_hermitian(4, rng)
        top = top_k_eigensum(x, 2)
        for _ in range(200):
            p = _random_feasible_projector_like(4, 2, rng)
            assert np.trace(p @ x).real <= top + 1e-9


class TestFanProjectors:
    def test_diagonal_example(self):
        proj = fan_projectors(np.diag([2.0, -5.0, 1.0]), 2)
        e0 = np.zeros((3, 3))
        e0[0, 0] = 1.0
        e1 = np.zeros((3, 3))
        e1[1, 1] = 1.0
        np.testing.assert_allclose(proj.p_q, e0, atol=1e-12)
        np.testing.assert_allclose(proj.p_r, e1, atol=1e-12)

    def test_trace_formula_example(self):
        x = np.diag([2.0, -5.0, 1.0])
        proj = fan_projectors(x, 2)
        val = np.trace((proj.p_q - proj.p_r) @ x).real
        assert val == pytest.approx(7.0, abs=1e-12)

    def test_psd_input_has_no_negative_block(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        proj = fan_projectors(a @ a.conj().T, 3)
        assert np.abs(proj.p_r).max() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_invariants_random(self, dim):
        rng = np.random.default_rng(40 + dim)
        for _ in range(10):
            x = random_hermitian(dim, rng)
            for k in range(1, dim + 3):
                proj = fan_projectors(x, k)
                for p in (proj.p_q, proj.p_r):
                    assert np.abs(p @ p - p).max() <= 1e-9
                assert np.abs(proj.p_q @ proj.p_r).max() <= 1e-9
                ranks = round(np.trace(proj.p_q).real) + round(np.trace(proj.p_r).real)
                assert ranks <= min(k, dim)
                want = gauge_eval(KyFan(k), singular_values(x, dim))
                got = np.trace((proj.p_q - proj.p_r) @ x).real
                assert abs(got - want) <= 1e-9 * max(1.0, want)

    def test_zero_matrix(self):
        proj = fan_projectors(np.zeros((3, 3)), 2)
        assert np.abs(proj.p_q).max() == 0.0
        assert np.abs(proj.p_r).max() == 0.0


class TestExactFactors:
    def test_upper_bound_partial_trace(self):
        assert shrink_upper_bound(partial_trace_channel(2, 3)) == pytest.approx(3.0, abs=1e-12)

    def test_upper_bound_identity(self):
        assert shrink_upper_bound(identity_channel(4)) == pytest.approx(1.0, abs=1e-12)

    def test_upper_bound_scale_covariance(self):
        a = shrink_upper_bound(random_channel(3, 2, 2, 1.0, 17))
        b = shrink_upper_bound(random_channel(3, 2, 2, 2.0, 17))
        assert b == pytest.approx(4.0 * a, rel=1e-12)

    def test_spectral_factor_identity(self):
        val, witness = spectral_shrink_factor(identity_channel(3))
        assert val == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(witness, np.eye(3), atol=1e-12)

    def test_spectral_factor_partial_trace(self):
        val, witness = spectral_shrink_factor(partial_trace_channel(2, 3))
        assert val == pytest.approx(3.0, abs=1e-12)
        assert witness.shape == (6, 6)

    def test_spectral_factor_single_kraus(self):
        val, _ = spectral_shrink_factor(KrausChannel(2, 2, (np.diag([2.0, 1.0]),)))
        assert val == pytest.approx(4.0, abs=1e-12)

    def test_spectral_witness_achieves(self):
        for seed in range(10):
            phi = random_channel(3, 2, 2, 1.0, seed)
            val, witness = spectral_shrink_factor(phi)
            padded = padded_dim_for(phi)
            unit = witness / gauge_eval(Schatten(INF), singular_values(witness, padded))
            achieved = gauge_eval(Schatten(INF), singular_values(phi.apply(unit), padded))
            assert abs(achieved - val) <= 1e-9 * max(1.0, val)

    def test_trace_factor_single_kraus(self):
        val, witness = trace_shrink_factor(KrausChannel(2, 2, (np.diag([2.0, 1.0]),)))
        assert val == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(witness, np.diag([1.0, 0.0]), atol=1e-12)

    def test_trace_factor_cptp_is_one(self):
        for seed in range(10):
            val, _ = trace_shrink_factor(random_cptp_channel(3, 2, 2, seed))
            assert abs(val - 1.0) <= 1e-10

    def test_trace_witness_is_rank_one_projector_and_achieves(self):
        for seed in range(10):
            phi = random_channel(3, 4, 2, 1.0, seed)
            val, witness = trace_shrink_factor(phi)
            assert np.trace(witness).real == pytest.approx(1.0, abs=1e-9)
            assert np.abs(witness @ witness - witness).max() <= 1e-9
            assert abs(trace_norm(phi.apply(witness)) - val) <= 1e-9 * max(1.0, val)

    def test_trace_witness_deterministic_under_degeneracy(self):
        phi = identity_channel(3)  # fully degenerate invariant operator
        _, w1 = trace_shrink_factor(phi)
        _, w2 = trace_shrink_factor(phi)
        np.testing.assert_array_equal(w1, w2)

    def test_upper_is_max_of_exact_factors(self):
        for seed in range(10):
            phi = random_channel(2, 4, 2, 1.0, seed)
            s_val, _ = spectral_shrink_factor(phi)
            t_val, _ = trace_shrink_factor(phi)
            assert shrink_upper_bound(phi) == max(s_val, t_val)


class TestEmpiricalLowerBound:
    def test_saturates_spectral_with_analytic_seeds_only(self):
        for seed in range(5):
            phi = random_channel(3, 2, 2, 1.0, seed)
            lower, _ = empirical_lower_bound(phi, Schatten(INF), restarts=0, steps=0, seed=0)
            val, _ = spectral_shrink_factor(phi)
            assert abs(lower - val) <= 1e-10

    def test_saturates_trace_with_analytic_seeds_only(self):
        for seed in range(5):
            phi = random_channel(3, 2, 2, 1.0, seed)
            lower, _ = empirical_lower_bound(phi, Schatten(1.0), restarts=0, steps=0, seed=0)
            val, _ = trace_shrink_factor(phi)
            assert abs(lower - val) <= 1e-10

    def test_never_exceeds_upper_bound(self):
        norms = [Schatten(1.0), Schatten(2.0), Schatten(INF), KyFan(2),
                 Combination(((1.0, KyFan(1)), (1.0, Schatten(1.0))))]
        for seed in range(5):
            phi = random_channel(2, 3, 2, 1.0, seed)
            bound = shrink_upper_bound(phi)
            for norm in norms:
                lower, _ = empirical_lower_bound(phi, norm, restarts=8, steps=25, seed=3)
                assert lower <= bound + 1e-7

    def test_monotone_in_restarts(self):
        phi = random_channel(2, 2, 3, 1.0, 19)
        norm = Schatten(2.0)
        a, _ = empirical_lower_bound(phi, norm, restarts=3, steps=15, seed=5)
        b, _ = empirical_lower_bound(phi, norm, restarts=9, steps=15, seed=5)
        assert b >= a - 1e-12

    def test_deterministic(self):
        phi = random_channel(2, 2, 2, 1.0, 23)
        a, wa = empirical_lower_bound(phi, Schatten(2.0), restarts=6, steps=20, seed=11)
        b, wb = empirical_lower_bound(phi, Schatten(2.0), restarts=6, steps=20, seed=11)
        assert a == b
        np.testing.assert_array_equal(wa, wb)

    def test_witness_has_unit_norm_and_achieves(self):
        norms = [Schatten(2.0), KyFan(2), Schatten(1.5)]
        for seed in range(5):
            phi = random_channel(3, 2, 2, 1.0, seed)
            padded = padded_dim_for(phi)
            for norm in norms:
                lower, witness = empirical_lower_bound(phi, norm, restarts=5, steps=15, seed=2)
                assert gauge_eval(norm, singular_values(witness, padded)) == pytest.approx(
                    1.0, abs=1e-9
                )
                achieved = gauge_eval(norm, singular_values(phi.apply(witness), padded))
                assert abs(achieved - lower) <= 1e-9 * max(1.0, lower)

    def test_scale_covariance(self):
        a = random_channel(2, 2, 2, 1.0, 29)
        b = KrausChannel(2, 2, tuple(2.0 * op for op in a.kraus))
        la, _ = empirical_lower_bound(a, Schatten(2.0), restarts=4, steps=15, seed=1)
        lb, _ = empirical_lower_bound(b, Schatten(2.0), restarts=4, steps=15, seed=1)
        assert lb == pytest.approx(4.0 * la, rel=1e-9)

    def test_rejects_negative_arguments(self):
        phi = identity_channel(2)
        with pytest.raises(ValueError):
            empirical_lower_bound(phi, Schatten(2.0), restarts=-1, steps=5, seed=0)
        with pytest.raises(ValueError):
            empirical_lower_bound(phi, Schatten(2.0), restarts=1, steps=-1, seed=0)


class TestInequalityChecks:
    def test_zero_input_all_ok(self):
        phi = random_channel(3, 2, 2, 1.0, 31)
        checks = check_kyfan_bounds(phi, np.zeros((3, 3)))
        assert len(checks) == padded_dim_for(phi)
        for chk in checks:
            assert chk.ok and chk.lhs == 0.0 and chk.rhs == 0.0

    def test_identity_channel_is_tight(self):
        rng = np.random.default_rng(32)
        phi = identity_channel(3)
        x = random_hermitian(3, rng)
        for chk in check_kyfan_bounds(phi, x):
            assert chk.ok
            assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)

    def test_random_fuzz_all_ok(self):
        rng = np.random.default_rng(33)
        for seed in range(20):
            phi = random_channel(int(rng.integers(2, 5)), int(rng.integers(2, 5)), 2, 1.0, seed)
            x = random_hermitian(phi.d_in, rng)
            assert all(chk.ok for chk in check_kyfan_bounds(phi, x))
            assert all(chk.ok for chk in check_gauge_bounds(phi, x, norm_battery(6)))
            # a stack of inputs gives one length-T array per field, matching per-input calls
            xs = np.stack([x] + [random_hermitian(phi.d_in, rng) for _ in range(3)])
            for check in (check_kyfan_bounds, lambda p, y: check_gauge_bounds(p, y, norm_battery(6))):
                stacked = check(phi, xs)
                singles = [check(phi, y) for y in xs]
                for n, chk in enumerate(stacked):
                    assert chk.lhs.shape == chk.rhs.shape == chk.ok.shape == (4,)
                    for t, single in enumerate(s[n] for s in singles):
                        assert chk.norm == single.norm and chk.ok[t] == single.ok
                        assert chk.lhs[t] == pytest.approx(single.lhs, rel=1e-15)
                        assert chk.rhs[t] == pytest.approx(single.rhs, rel=1e-15)

    def test_k_range_is_padded_dim(self):
        phi = random_channel(2, 5, 2, 1.0, 34)
        ks = [chk.norm.k for chk in check_kyfan_bounds(phi, np.eye(2))]
        assert ks == list(range(1, 6))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_kyfan_bounds(partial_trace_channel(2, 2), np.eye(3))


@pytest.mark.parametrize(
    "call, min_ndim",
    [
        # only stacks fail here, so the error must come from the ascent's batched SVD
        (lambda phi: empirical_lower_bound(phi, Schatten(2.0), restarts=1, steps=1, seed=0), 3),
        (shrink_upper_bound, 2),
        (lambda phi: spectral_norm(phi.kraus[0]), 2),
        (lambda phi: trace_norm(phi.kraus[0]), 2),
        (lambda phi: check_gauge_bounds(phi, np.eye(phi.d_in), norm_battery(3)), 2),
        # only stacks fail here, so the error must come from the stacked check's SVDs
        (lambda phi: check_gauge_bounds(phi, np.stack([np.eye(phi.d_in)] * 3), norm_battery(3)), 3),
    ],
    ids=["empirical_lower_bound", "shrink_upper_bound", "spectral_norm", "trace_norm",
         "check_gauge_bounds", "check_gauge_bounds_stacked"],
)
def test_svd_failure_surfaces_as_convergence_failure(monkeypatch, call, min_ndim):
    # every SVD goes through singular_values, which wraps the solver's error
    real_svd = np.linalg.svd

    def flaky(a, *args, **kwargs):
        if np.ndim(a) >= min_ndim:
            raise np.linalg.LinAlgError("SVD did not converge")
        return real_svd(a, *args, **kwargs)

    phi = random_channel(2, 3, 2, 1.0, 35)
    monkeypatch.setattr(np.linalg, "svd", flaky)
    with pytest.raises(ConvergenceFailure):
        call(phi)


class TestBatteryAndReport:
    def test_norm_battery_contents(self):
        battery = norm_battery(6)
        assert len(battery) == 5 + 6 + 2
        assert Schatten(INF) in battery
        assert KyFan(6) in battery
        assert sum(isinstance(n, Combination) for n in battery) == 2

    def test_report_fields(self):
        phi = partial_trace_channel(2, 2)
        rep = shrink_report(phi, [Schatten(INF), Schatten(1.0)], restarts=4, steps=10, seed=0)
        assert rep.upper_bound == max(rep.spectral_factor, rep.trace_factor)
        assert rep.upper_bound == pytest.approx(2.0, abs=1e-12)
        assert rep.trace_factor == pytest.approx(1.0, abs=1e-12)
        assert rep.padded_dim == 4
        assert len(rep.per_norm) == 2
        for bracket in rep.per_norm:
            assert bracket.empirical_lower <= rep.upper_bound + 1e-7
            assert bracket.witness.shape == (4, 4)

    def test_report_brackets_contain_known_factors(self):
        phi = partial_trace_channel(2, 3)
        rep = shrink_report(phi, [Schatten(INF), Schatten(1.0)], restarts=2, steps=5, seed=0)
        by_norm = {b.norm: b.empirical_lower for b in rep.per_norm}
        assert by_norm[Schatten(INF)] == pytest.approx(3.0, abs=1e-9)
        assert by_norm[Schatten(1.0)] == pytest.approx(1.0, abs=1e-9)
