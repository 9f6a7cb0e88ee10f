import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cpshrink.channel import (
    KrausChannel,
    identity_channel,
    partial_trace_channel,
    random_channel,
    random_cptp_channel,
    random_isometry,
)
from cpshrink import channel, shrink, spectral
from cpshrink.cli import DEFAULT_NORMS, main
from cpshrink.errors import ConvergenceFailure, DimensionMismatch, NonFinite
from cpshrink.gauge import (
    Combination,
    KyFan,
    Schatten,
    base_terms,
    format_norm,
    gauge_eval,
    gauge_table,
    parse_norm,
    table_eval,
)
from cpshrink.shrink import (
    check_gauge_bounds,
    check_kyfan_bounds,
    empirical_lower_bound,
    fan_projectors,
    norm_battery,
    padded_dim_for,
    schatten2_shrink_factor,
    shrink_report,
    shrink_upper_bound,
    spectral_shrink_factor,
    top_k_eigensum,
    trace_shrink_factor,
)
from cpshrink.spectral import (
    HERMITICITY_TOL,
    hermitian_decomposition,
    hermitize,
    random_hermitian,
    singular_values,
    spectral_norm,
    trace_norm,
)

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

    @pytest.mark.parametrize("scale", [1.0, 1e-20, 2.0**-490, 2.0**490])
    def test_zero_eigenvalue_tolerance_is_relative(self, scale):
        # the projectors of c x are those of x at any scale c: a floor of 1 under the tolerance
        # dropped every direction of 1e-20 diag(2, -5, 1), so tr[(p_q - p_r) x] read 0, not 7e-20
        x = np.diag([2.0, -5.0, 1.0])
        proj, unit = fan_projectors(scale * x, 2), fan_projectors(x, 2)
        assert np.array_equal(proj.p_q, unit.p_q) and np.array_equal(proj.p_r, unit.p_r)
        val = np.trace((proj.p_q - proj.p_r) @ (scale * x)).real
        assert val == pytest.approx(7.0 * scale, rel=1e-12)

    @pytest.mark.parametrize("w, k, ranks", [
        ([1.0, 1e-9, -1e-9, 0.0], 3, (2, 1)),
        ([1.0, 0.5, 0.0, 0.0], 4, (2, 0)),
    ], ids=["small", "zero"])
    def test_rank_deficient_input(self, w, k, ranks):
        # (rank p_q, rank p_r) of U diag(w) U†: directions 1e-9 of the largest keep their
        # signs, and the exact zeros, which the rotation leaves at rounding level, are dropped
        u = _random_unitary(4, np.random.default_rng(7))
        proj = fan_projectors(u @ np.diag(w) @ u.conj().T, k)
        assert tuple(round(np.trace(p).real) for p in (proj.p_q, proj.p_r)) == ranks

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

    def test_order_below_one_is_named(self):
        with pytest.raises(ValueError, match="k must be >= 1, got 0$"):
            fan_projectors(np.eye(2), 0)


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
        # Phi†(I) = I ties every eigenvector: eigh lists the basis in order and the reversal puts
        # the last basis vector first. The rows of ptrace: reports depend on that tie
        for phi in (identity_channel(3), partial_trace_channel(2, 3)):
            _, witness = trace_shrink_factor(phi)
            last = np.zeros((phi.d_in, phi.d_in))
            last[-1, -1] = 1.0
            np.testing.assert_array_equal(witness, last)

    def test_upper_is_max_of_exact_factors(self):
        for seed in range(10):
            phi = random_channel(2, 4, 2, 1.0, seed)
            s_val, _ = spectral_shrink_factor(phi)
            t_val, _ = trace_shrink_factor(phi)
            assert shrink_upper_bound(phi) == max(s_val, t_val)


def _schatten2_cases():
    # shapes with d_in or d_out equal to 1, a cptp, a ptrace and an identity channel, and a
    # Kraus set holding a zero and a rank-one operator; the ptrace and identity channels have
    # a degenerate top eigenvalue
    shapes = [(1, 1, 1), (1, 4, 2), (4, 1, 3), (3, 3, 2), (2, 5, 1), (6, 4, 3), (8, 8, 2)]
    return [random_channel(*shape, 1.0, seed) for seed, shape in enumerate(shapes)] + [
        random_cptp_channel(4, 3, 2, 8),
        partial_trace_channel(2, 3),
        identity_channel(3),
        KrausChannel(3, 2, (np.zeros((2, 3)), np.outer([1.0, 2j], [1.0, 0.0, -1.0]))),
    ]


def _assert_attaining_witness(phi, h, witness):
    # Hermitian bit for bit, unit Frobenius norm, and its image's Frobenius norm is h
    padded = padded_dim_for(phi)
    assert witness.shape == (phi.d_in, phi.d_in)
    np.testing.assert_array_equal(witness, witness.conj().T)
    assert gauge_eval(Schatten(2.0), singular_values(witness, padded)) == pytest.approx(1.0, rel=1e-12)
    achieved = gauge_eval(Schatten(2.0), singular_values(phi.apply(witness), padded))
    assert achieved == pytest.approx(h, rel=1e-12)


class TestSchattenTwoFactor:
    def test_matches_dense_oracle(self):
        # the oracle: the largest singular value of the map's matrix sum_n E_n (x) conj(E_n)
        for phi in _schatten2_cases():
            h, _ = schatten2_shrink_factor(phi)
            oracle = np.linalg.svd(sum(np.kron(e, e.conj()) for e in phi.kraus), compute_uv=False)[0]
            assert h == pytest.approx(oracle, rel=1e-12)

    def test_witness_is_hermitian_unit_and_attains(self):
        for phi in _schatten2_cases():
            _assert_attaining_witness(phi, *schatten2_shrink_factor(phi))

    @pytest.mark.parametrize("turn", [1, -1, 1j], ids=["hermitian", "anti-hermitian", "between"])
    def test_witness_for_any_eigenvector_phase(self, monkeypatch, turn):
        # a simple top eigenvector is fixed only up to a phase, and X† is a multiple of X;
        # turn it so that X is Hermitian, anti-Hermitian or neither: the witness must take the
        # larger Hermitian part, normalized, whatever the phase
        real = shrink.hermitian_eigensystem

        def turned(x):
            values, vectors = real(x)
            top = vectors[:, 0].reshape(round(len(values) ** 0.5), -1)
            return values, vectors * np.sqrt(turn * np.vdot(top, top.conj().T) / np.vdot(top, top))

        monkeypatch.setattr(shrink, "hermitian_eigensystem", turned)
        for phi in _schatten2_cases()[:7]:  # random draws, whose top eigenvalue is simple
            _assert_attaining_witness(phi, *schatten2_shrink_factor(phi))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        e=st.integers(-150, 150),
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
        seed=st.integers(0, 1000),
    )
    @example(e=-150, shape=(3, 2, 2), seed=5)
    @example(e=150, shape=(3, 2, 2), seed=5)
    def test_scales_by_c_squared(self, e, shape, seed):
        phi = random_channel(*shape, 1.0, seed)
        h, witness = schatten2_shrink_factor(phi)
        h_c, _ = schatten2_shrink_factor(KrausChannel(phi.d_in, phi.d_out, 10.0**e * phi.kraus))
        assert h_c / 10.0 ** (2 * e) == pytest.approx(h, rel=1e-12)
        # a power-of-two scale is exact: the rescaled Kraus set is the same
        p = 2.0 ** (3 * e)
        h_p, witness_p = schatten2_shrink_factor(KrausChannel(phi.d_in, phi.d_out, p * phi.kraus))
        assert h_p == h * p**2
        np.testing.assert_array_equal(witness_p, witness)

    def test_subnormal_kraus_entries(self):
        # the power-of-two rescale is exact down to subnormal entries: the witness is unchanged
        # and the value underflows to 0, as the exact one does in float64
        ops = np.array([[[1.0, 2.0], [0.0, -1j]], [[0.5, 0.0], [1j, 1.0]]])
        _, witness = schatten2_shrink_factor(KrausChannel(2, 2, ops))
        h_tiny, witness_tiny = schatten2_shrink_factor(KrausChannel(2, 2, 2.0**-1070 * ops))
        assert h_tiny == 0.0
        np.testing.assert_array_equal(witness_tiny, witness)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3)),
        extra=st.integers(0, 2),
        seed=st.integers(0, 1000),
    )
    def test_unchanged_under_remix(self, shape, extra, seed):
        phi = random_channel(*shape, 1.0, seed)
        mixed = phi.remix(random_isometry(phi.n_kraus + extra, phi.n_kraus, seed))
        assert schatten2_shrink_factor(mixed)[0] == pytest.approx(schatten2_shrink_factor(phi)[0], rel=1e-12)


def _scaled(phi, j):
    return KrausChannel(phi.d_in, phi.d_out, 2.0**j * phi.kraus)


def _tensor(phi, psi):
    """The product channel Phi (x) Psi: Kraus operators E_i (x) F_j."""
    ops = np.einsum("iab,jcd->ijacbd", phi.kraus, psi.kraus)
    d_out, d_in = phi.d_out * psi.d_out, phi.d_in * psi.d_in
    return KrausChannel(d_in, d_out, ops.reshape(phi.n_kraus * psi.n_kraus, d_out, d_in))


def _exact_factors(phi):
    inv = phi.invariants()
    return np.array([inv.identity_image_norm, inv.adjoint_identity_image_norm, schatten2_shrink_factor(phi)[0]])


class TestProductChannels:
    # random and cptp factors 2 x 3 (K = 3) with 3 x 2 (K = 2), and squares up to d_in = 16, K = 6
    PAIRS = [
        *((random_channel(2, 3, 3, 1.0, i), random_channel(3, 2, 2, 1.0, 10 + i)) for i in range(3)),
        *((random_cptp_channel(2, 3, 3, i), random_cptp_channel(3, 2, 2, 10 + i)) for i in range(3)),
        (random_cptp_channel(3, 3, 2, 0), random_cptp_channel(3, 3, 2, 1)),
        (random_cptp_channel(4, 4, 2, 0), random_cptp_channel(4, 4, 2, 1)),
        (random_cptp_channel(2, 3, 3, 2), random_cptp_channel(4, 4, 2, 2)),
        (random_channel(4, 4, 2, 1.0, 3), random_cptp_channel(4, 4, 3, 3)),
    ]

    @pytest.mark.parametrize("j, k", [(0, 0), (245, 245), (-245, -245), (490, -490)])
    def test_exact_factors_multiply(self, j, k):
        # (Phi (x) Psi)(I) = Phi(I) (x) Psi(I), likewise for the adjoint, and the product's map matrix
        # is M(Phi) (x) M(Psi) up to a permutation, so s, t and h multiply. The product's entries lie
        # at 2^(j + k): 1, 2^+-490, and 1 again from factors at 2^490 and 2^-490. Each value is
        # within 16 eps of the product of the factors' (at most 5 eps measured)
        for phi, psi in self.PAIRS:
            phi, psi = _scaled(phi, j), _scaled(psi, k)
            want = _exact_factors(phi) * _exact_factors(psi)
            np.testing.assert_allclose(_exact_factors(_tensor(phi, psi)), want, rtol=16 * np.finfo(float).eps)

    def test_factors_at_the_range_ends_overflow_the_pair(self):
        # both factors at 2^490 put the product's Phi(I) near 2^1960, beyond float64
        phi, psi = self.PAIRS[0]
        with pytest.raises(NonFinite, match=r"^Phi\(I\) overflows float64"):
            _tensor(_scaled(phi, 490), _scaled(psi, 490))


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
        first, second = (empirical_lower_bound(phi, norm_battery(3), restarts=6, steps=20, seed=11) for _ in "ab")
        for (a, wa), (b, wb) in zip(first, second, strict=True):
            assert a == b
            np.testing.assert_array_equal(wa, wb)

    def test_norm_gradient_matches_central_differences(self):
        # the search's gradient at positive definite inputs (the search only measures images
        # of PSD inputs), one block per battery norm, against central differences of gauge_eval
        rng = np.random.default_rng(44)
        norms = norm_battery(3)
        xs = np.stack([np.stack([_random_psd(4, 4, rng) for _ in range(3)]) for _ in norms])
        assert (np.linalg.eigvalsh(xs)[..., 0] > 1e-3).all()
        weights, exponents, coefficients = gauge_table(tuple(norms), 4)
        owner = np.repeat(np.arange(len(norms)), 3)
        values, grads = shrink._norm_gradients(weights[owner], exponents, coefficients[owner], xs.reshape(-1, 4, 4))
        values, grads = values.reshape(len(norms), 3), grads.reshape(xs.shape)
        h = 1e-6
        for norm, block, vals, ys in zip(norms, xs, values, grads):
            for x, val, y in zip(block, vals, ys):
                assert val == pytest.approx(gauge_eval(norm, singular_values(x, 4)), rel=1e-12)
                for _ in range(3):
                    e = random_hermitian(4, rng)
                    up = gauge_eval(norm, singular_values(x + h * e, 4))
                    down = gauge_eval(norm, singular_values(x - h * e, 4))
                    assert np.vdot(y, e).real == pytest.approx((up - down) / (2 * h), rel=1e-6, abs=1e-8)

    def test_batched_search_matches_single_norm_calls(self):
        # one batched search for all norms gives each norm's single-norm result bit for bit; a
        # report's rows are the exact factors for the norms with a closed form, Ky Fan k with
        # n_kraus <= k < padded among them, and those results for the rest, clamped to the
        # universal bound
        norms = norm_battery(3)
        for phi in (random_channel(3, 2, 2, 1.0, 40), random_channel(2, 4, 3, 1e-3, 41),
                    random_cptp_channel(4, 3, 2, 42), partial_trace_channel(2, 2)):
            batched = empirical_lower_bound(phi, norms, restarts=5, steps=12, seed=3)
            rep = shrink_report(phi, norms, restarts=5, steps=12, seed=3)
            s, t = spectral_shrink_factor(phi), trace_shrink_factor(phi)
            h = schatten2_shrink_factor(phi)
            closed = {Schatten(INF): s, KyFan(1): s, Schatten(1.0): t, Schatten(2.0): h}
            # Ky Fan k at or beyond the padded dimension is the trace norm on both sides
            closed.update({KyFan(k): t for k in range(padded_dim_for(phi), 4)})
            # below it, from n_kraus on: max(||Phi(I)||_(k) / k, t) at I / k or the trace
            # projector, and t at the projector once k exceeds d_in
            for k in range(phi.n_kraus, padded_dim_for(phi)):
                mean = top_k_eigensum(phi.invariants().identity_image, k) / k
                closed[KyFan(k)] = (mean, np.eye(phi.d_in) / k) if k <= phi.d_in and mean >= t[0] else t
            assert len(batched) == len(rep.per_norm) == len(norms)
            for norm, (lower, witness), row in zip(norms, batched, rep.per_norm):
                single, single_witness = empirical_lower_bound(phi, norm, restarts=5, steps=12, seed=3)
                assert lower == single
                np.testing.assert_array_equal(witness, single_witness)
                want, want_witness = closed.get(norm, (single, single_witness))
                assert row.empirical_lower == min(want, rep.upper_bound)
                np.testing.assert_array_equal(row.witness, want_witness)

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

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(
        e=st.integers(-150, 150),
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)),
        seed=st.integers(0, 1000),
        norm=st.sampled_from([Schatten(1.0), Schatten(3.0), Schatten(INF), KyFan(2),
                              Combination(((0.5, Schatten(2.0)), (2.0, KyFan(1))))]),
    )
    @example(e=-150, shape=(3, 2, 2), seed=5, norm=Schatten(3.0))
    @example(e=150, shape=(3, 2, 2), seed=5, norm=Schatten(3.0))
    def test_scale_covariance_at_extreme_scales(self, e, shape, seed, norm):
        # values scale by c**2 up to 1e+-300; the search runs on the Kraus set rescaled by a power
        # of two, so none of its steps over- or underflows
        phi = random_channel(*shape, 1.0, seed)
        c = 10.0**e
        scaled = KrausChannel(phi.d_in, phi.d_out, c * phi.kraus)
        lower, _ = empirical_lower_bound(phi, norm, restarts=4, steps=10, seed=1)
        lower_c, _ = empirical_lower_bound(scaled, norm, restarts=4, steps=10, seed=1)
        assert lower_c / c**2 == pytest.approx(lower, rel=1e-9)

    def test_schatten_two_reaches_exact_factor(self):
        # oracle: the Schatten-2 factor is the largest singular value of sum_n E_n (x) conj(E_n)
        rng = np.random.default_rng(7)
        for seed in range(10):
            d_in, d_out, n_kraus = (int(v) for v in rng.integers((1, 1, 1), (5, 5, 4)))
            phi = random_channel(d_in, d_out, n_kraus, 1.0, seed)
            h = np.linalg.svd(sum(np.kron(e, e.conj()) for e in phi.kraus), compute_uv=False)[0]
            lower, _ = empirical_lower_bound(phi, Schatten(2.0), restarts=20, steps=40, seed=0)
            assert h * (1 - 1e-9) <= lower <= h * (1 + 1e-12)

    @pytest.mark.parametrize("scale", [1e-170, 2.0**-1070], ids=["1e-170", "subnormal"])
    def test_underflowing_trace_factor(self, scale):
        # at Kraus entries below about 1e-162, t = ||Phi†(I)|| underflows to 0; the search
        # rescales from the largest Kraus entry, exactly down to subnormal entries, so it still
        # runs, and only its values underflow
        phi = random_channel(3, 2, 2, scale, 40)
        assert trace_shrink_factor(phi)[0] == 0.0
        padded = padded_dim_for(phi)
        norms = norm_battery(3)
        for norm, (lower, witness) in zip(norms, empirical_lower_bound(phi, norms, 3, 5, seed=0), strict=True):
            assert lower == 0.0
            assert gauge_eval(norm, singular_values(witness, padded)) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("norm, ties", [(Schatten(3.0), 5), (parse_norm("combo:0.5*schatten:2+2*kyfan:2"), 2)],
                             ids=["conditional-gradient", "mixed-combination"])
    def test_ties_go_to_the_identity_start(self, monkeypatch, norm, ties):
        # on the identity channel every start reaches the factor 1 up to rounding (`ties` of them
        # exactly), and values within STALL_GAIN of the best tie; the earliest, the normalized
        # identity, must win over the trace witness and the random ones
        phi = identity_channel(3)
        real = shrink._winners
        tied = []

        def spy(best_vals, best_xs, n_norms):
            tied.append(int(np.count_nonzero(best_vals == 1.0)))
            return real(best_vals, best_xs, n_norms)

        monkeypatch.setattr(shrink, "_winners", spy)
        val, witness = empirical_lower_bound(phi, norm, 4, 10, 0)
        assert tied[0] >= ties and val == 1.0
        np.testing.assert_allclose(witness, np.eye(3) / gauge_eval(norm, np.ones(3)), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("restarts", [0, 3])
    def test_mixed_norms_get_the_common_starts(self, monkeypatch, restarts):
        # a mixed combination starts where every other norm does: the identity, the trace witness
        # and one stacked draw of pure states, empty at restarts=0
        phi = random_channel(3, 2, 2, 1.0, 42)
        mixed = parse_norm("combo:0.5*schatten:2+2*kyfan:2")
        real = shrink._conditional_gradient
        seen = []
        monkeypatch.setattr(shrink, "_conditional_gradient", lambda ops, norms, starts, *rest:
                            seen.append(starts) or real(ops, norms, starts, *rest))
        lower, witness = empirical_lower_bound(phi, mixed, restarts, 5, seed=7)
        empirical_lower_bound(phi, Schatten(3.0), restarts, 5, seed=7)
        starts, common = seen
        assert starts.tobytes() == common.tobytes()
        assert starts.shape == (2 + restarts, 3, 3)
        np.testing.assert_array_equal(starts[0], np.eye(3))
        np.testing.assert_array_equal(starts[1], trace_shrink_factor(phi)[1])
        for pure in starts[2:]:
            np.testing.assert_allclose(pure @ pure, pure, atol=1e-15)
            assert np.trace(pure).real == pytest.approx(1.0, rel=1e-15)
        assert 0.0 < lower <= shrink_upper_bound(phi)
        assert gauge_eval(mixed, singular_values(witness, padded_dim_for(phi))) == pytest.approx(1.0, rel=1e-12)

    # (norm, power-of-two exponent of its rescale): mixed combinations (k = 1, -6, 6, 2), one
    # Schatten base (k = 1, -5) and Ky Fan bases only (k = 5)
    RESCALED = [("combo:0.5*schatten:2+2*kyfan:2", 1), ("combo:0.01*schatten:3+0.03*kyfan:1", -6),
                ("combo:96*schatten:1.5+5*kyfan:2", 6), ("combo:3*schatten:3", 1),
                ("combo:40*kyfan:1+0.1*kyfan:3", 5), ("combo:0.05*schatten:1.5+0.01*schatten:1.5", -5),
                ("combo:6*schatten:3+0.7*schatten:1.5+1*kyfan:2", 2)]

    @pytest.mark.parametrize("spec, k", RESCALED, ids=[spec for spec, _ in RESCALED])
    def test_rescaled_coefficients_change_no_bit(self, monkeypatch, spec, k):
        # each search runs with the largest coefficient in [1, 2); in range that is the search
        # of the norm as given, values and witnesses bit for bit
        norm = parse_norm(spec)
        scaled, got_k = shrink._rescaled_norm(norm)
        assert got_k == k and 1.0 <= max(c for c, _ in scaled.terms) < 2.0
        phi = random_channel(3, 2, 2, 1.0, 48)
        rescaled = empirical_lower_bound(phi, norm, 4, 10, seed=2)
        monkeypatch.setattr(shrink, "_rescaled_norm", lambda n: (n, 0))
        as_given = empirical_lower_bound(phi, norm, 4, 10, seed=2)
        assert rescaled[0] == as_given[0]
        assert rescaled[1].tobytes() == as_given[1].tobytes()

    @pytest.mark.parametrize("spec, plain", [
        ("combo:1e308*kyfan:1+1e308*kyfan:2", "combo:1*kyfan:1+1*kyfan:2"),
        ("combo:1e-320*kyfan:2", "kyfan:2"),
        ("combo:1.7e308*schatten:3", "schatten:3"),
        ("combo:5e-324*schatten:1.5+5e-324*schatten:1.5", "schatten:1.5"),
    ])
    def test_extreme_coefficients(self, spec, plain):
        # the search of a norm whose values over- or underflow runs on its rescaled coefficients;
        # no warning is raised (pytest makes RuntimeWarning an error), and the value is the
        # one of the norm with coefficient 1 up to rounding
        phi = random_channel(4, 3, 2, 1.0, 49)
        lower, _ = empirical_lower_bound(phi, parse_norm(spec), 4, 10, seed=0)
        want, _ = empirical_lower_bound(phi, parse_norm(plain), 4, 10, seed=0)
        assert lower == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("spec", ["combo:1.7e308*schatten:3+1.7e308*kyfan:8",
                                      "combo:1e-320*schatten:3+1e-320*kyfan:1"])
    def test_extreme_coefficients_in_a_mixed_step(self, spec):
        # a mixed combination's step fits and solves on its rescaled coefficients, so at these
        # scales nothing over- or underflows
        phi = random_channel(8, 8, 2, 1.0, 1)
        lower, witness = empirical_lower_bound(phi, parse_norm(spec), 4, 10, seed=0)
        assert 0.0 < lower <= shrink_upper_bound(phi) and witness.shape == (8, 8)

    def test_underflowing_term_is_dropped(self):
        # 1e-170 is more than 2**1074 below 1e160, so its rescaled coefficient is 0 and its term,
        # which adds exact zeros, is dropped: the row is its dominant base's bit for bit, under
        # its own label, and the search of the combination alone finds that value up to rounding
        phi = random_channel(3, 3, 2, 1.0, 0)
        norm = parse_norm("combo:1e-170*kyfan:1+1e160*schatten:3")
        assert [t for _, t in shrink._rescaled_norm(norm)[0].terms] == [Schatten(3.0)]
        row, base = shrink_report(phi, [norm, Schatten(3.0)], 0, 200, seed=0).per_norm
        assert format_norm(row.norm) == "combo:1e-170*kyfan:1+1e+160*schatten:3"
        assert (row.empirical_lower, row.upper) == (base.empirical_lower, base.upper)
        assert empirical_lower_bound(phi, norm, 0, 200, seed=0)[0] == pytest.approx(base.empirical_lower, rel=1e-12)

    def test_rejects_negative_arguments(self):
        phi = identity_channel(2)
        with pytest.raises(ValueError):
            empirical_lower_bound(phi, Schatten(2.0), restarts=-1, steps=5, seed=0)
        with pytest.raises(ValueError):
            empirical_lower_bound(phi, Schatten(2.0), restarts=1, steps=-1, seed=0)
        with pytest.raises(ValueError):
            empirical_lower_bound(phi, norm_battery(2), restarts=-1, steps=5, seed=0)
        with pytest.raises(ValueError):
            empirical_lower_bound(phi, norm_battery(2), restarts=1, steps=-1, seed=0)


def _random_psd(dim, rank, rng):
    a = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return a @ a.conj().T


# both cases of the linear step: Ky Fan bases only, and a Schatten base with or without Ky Fan
# terms, with one exponent or two
STEPPED_NORMS = [Schatten(1.0), Schatten(1.1), Schatten(1.5), Schatten(2.0), Schatten(3.0), Schatten(INF),
                 KyFan(1), KyFan(2), KyFan(3), KyFan(6),
                 Combination(((1.0, KyFan(1)), (1.0, Schatten(1.0)))),
                 Combination(((1.0, KyFan(1)), (2.0, KyFan(3)))),
                 Combination(((0.5, Schatten(INF)), (0.25, KyFan(2)))),
                 Combination(((0.5, Schatten(2.0)), (2.0, KyFan(2)))),
                 Combination(((1.0, Schatten(3.0)), (1.0, KyFan(1)))),
                 Combination(((1.0, Schatten(3.0)), (1.0, Schatten(1.5))))]

# the norms of every report-small command in bench/workloads.py
REPORT_SMALL_NORMS = (
    "schatten:1", "schatten:1.5", "schatten:2", "schatten:3", "schatten:inf", "kyfan:1", "kyfan:2", "kyfan:3",
    "combo:1*kyfan:1+1*schatten:1", "combo:0.5*schatten:2+2*kyfan:2",
)

# (channel, universal bound, empirical_lower_bound(phi, PINNED_NORMS, 20, 40, 0) values) of the
# batched Hermitian ascent that searched every norm before the conditional-gradient rule
PINNED_NORMS = [parse_norm(spec) for spec in (
    "schatten:1.5", "schatten:3", "kyfan:2",
    "combo:1*kyfan:1+1*schatten:1", "combo:1*kyfan:1+2*kyfan:3", "combo:0.5*schatten:2+2*kyfan:2",
)]
PINNED = [
    (random_channel(3, 2, 2, 1.0, 40), 9.816747190740418,
     [8.1511996437460255, 8.4826573691261959, 8.8606326284791876, 8.3347265115403282, 8.4933181239368789,
      8.6469169042847014]),
    (random_channel(2, 4, 3, 1.0, 41), 22.204257193980567,
     [18.938953103872723, 17.614436557156051, 21.613555494917609, 19.753332263056706, 20.394032075877629,
      20.773861338428027]),
    (random_channel(4, 4, 2, 1.0, 46), 33.84372117053839,
     [27.701105122429606, 24.818096915924496, 33.843721170538394, 28.233631907498086, 30.047825287402564,
      32.110661086583988]),
    (random_channel(3, 3, 3, 1.0, 47), 30.887254733627856,
     [22.640528071642112, 24.809411075999321, 23.869065777697866, 24.530093063460434, 23.599107697415132,
      23.114483842132291]),
    (random_cptp_channel(4, 3, 2, 42), 1.9190730439113832,
     [1.2166757661298417, 1.5233270927571425, 1.7663071012236831, 1.3058720938055377, 1.4170104348444832,
      1.6680908907342142]),
    (partial_trace_channel(2, 2), 2.0,
     [1.2599210498948732, 1.5874010519681998, 2.0, 1.3333286300013447, 1.4285714285714286,
      1.8828427124746192]),
]


class TestConditionalGradient:
    @pytest.mark.parametrize("norm", STEPPED_NORMS, ids=format_norm)
    def test_linear_step_is_optimal(self, norm):
        # the step's Z, cold and warm-started (from its spectrum perturbed by 1e-2 to 1e-4 of
        # itself, and from the poor e_n), has unit norm, is PSD, and beats <G, X> for 300
        # feasible PSD X: the identity, pure states, random inputs of every rank, and the
        # cold step's own spectrum perturbed by 1e-2 to 1e-4 of itself, each at unit norm
        rng, near, warm = np.random.default_rng(60), np.random.default_rng(61), np.random.default_rng(63)
        dim = 4
        for rank in (1, 2, 3, 4):
            g = _random_psd(dim, rank, rng)
            g /= spectral_norm(g)
            mu, u = hermitian_decomposition(g)
            entry = shrink._step_entry(norm, dim)
            cold = shrink._linear_step(entry, mu, np.zeros_like(mu))
            eps = 10.0 ** -warm.integers(2, 5)
            perturbed = -np.sort(-np.abs(cold * (1.0 + eps * warm.standard_normal(dim))))
            last = np.eye(dim)[-1]
            starts = [perturbed / gauge_eval(norm, perturbed), last / gauge_eval(norm, last)]
            steps = [cold] + [shrink._linear_step(entry, mu, z0) for z0 in starts]
            xs = [np.eye(dim)] + [_random_psd(dim, 1, rng) for _ in range(99)]
            xs += [_random_psd(dim, int(rng.integers(1, dim + 1)), rng) for _ in range(100)]
            for eps in 10.0 ** -near.integers(2, 5, size=100):
                nearby = np.abs(cold * (1.0 + eps * near.standard_normal(dim)) + eps * cold[0] * near.random(dim))
                xs.append((u * nearby) @ u.conj().T)
            for z in steps:
                step = (u * z) @ u.conj().T
                assert z.min() >= 0.0
                assert gauge_eval(norm, z) == pytest.approx(1.0, abs=1e-12)
                assert gauge_eval(norm, singular_values(step, dim)) == pytest.approx(1.0, abs=1e-12)
                best = np.vdot(g, step).real
                for x in xs:
                    assert np.vdot(g, x).real / gauge_eval(norm, singular_values(x, dim)) <= best + 1e-12

    @pytest.mark.parametrize("norm", STEPPED_NORMS, ids=format_norm)
    def test_start_without_a_positive_ratio_takes_the_cold_step(self, norm):
        # a block of warm-started rows: the middle one's start e_4 meets a gradient of rank 2
        # at ratio 0, and the all-zero block start meets every row at ratio 0, so the middle row
        # takes Hölder's start from both and gives the cold step of that row alone bit for bit
        rng = np.random.default_rng(62)
        dim = 4
        mu = -np.sort(-rng.random((3, dim)))
        mu[1, 2:] = 0.0
        entry = shrink._step_entry(norm, dim)
        zero = np.zeros_like(mu)
        cold = shrink._linear_step(entry, mu, zero)
        last = np.eye(dim)[-1]
        z0 = cold.copy()
        z0[1] = last / gauge_eval(norm, last)
        assert mu[1] @ z0[1] == 0.0
        for start in (z0, zero):
            warm = shrink._linear_step(entry, mu, start)
            assert warm[1].tobytes() == shrink._linear_step(entry, mu[1:2], zero[1:2])[0].tobytes() == cold[1].tobytes()

    @pytest.mark.parametrize("norm", [Schatten(1.5), KyFan(2), parse_norm("combo:1*schatten:3+1*kyfan:1")],
                             ids=format_norm)
    def test_linear_step_at_zero_gradient_is_first_direction(self, norm):
        first = np.array([1.0, 0.0, 0.0]) / gauge_eval(norm, [1.0, 0.0, 0.0])
        # a warm start meets a zero gradient at ratio 0, so it falls back to Hölder's direction too
        start = np.array([3.0, 2.0, 1.0]) / gauge_eval(norm, [3.0, 2.0, 1.0])
        entry = shrink._step_entry(norm, 3)
        for z in (shrink._linear_step(entry, np.zeros(3), np.zeros(3)),
                  shrink._linear_step(entry, np.zeros((1, 3)), start[None])):
            np.testing.assert_allclose(z.reshape(3), first, rtol=1e-15)

    def test_witnesses_are_psd_with_unit_norm(self):
        for phi in (random_channel(3, 2, 2, 1.0, 50), random_channel(4, 3, 3, 1.0, 51),
                    random_cptp_channel(3, 4, 2, 52)):
            padded = padded_dim_for(phi)
            for norm, (lower, witness) in zip(STEPPED_NORMS, empirical_lower_bound(phi, STEPPED_NORMS, 5, 15, 0)):
                np.testing.assert_array_equal(witness, witness.conj().T)
                spectrum = np.linalg.eigvalsh(witness)
                assert spectrum[0] >= -1e-12 * spectrum[-1]
                assert gauge_eval(norm, singular_values(witness, padded)) == pytest.approx(1.0, abs=1e-12)
                achieved = gauge_eval(norm, singular_values(phi.apply(witness), padded))
                assert achieved == pytest.approx(lower, rel=1e-12)

    def test_decomposed_matrices_are_psd(self, monkeypatch):
        # the search clips its eigenvalues at 0 because it decomposes only images Phi(X) and
        # adjoint images Phi†(Y) of PSD X and Y: on every channel kind, at extreme Kraus scales
        # and on the classical channel of the strict xfail, for every case of the linear step,
        # each matrix's smallest eigenvalue is at least -1e-12 times its largest
        p = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.3125, 0.0, 0.0], [0.453125, 0.0, 0.0]])
        rows, cols = np.nonzero(p)
        classical = np.zeros((len(rows), *p.shape))
        classical[np.arange(len(rows)), rows, cols] = np.sqrt(p[rows, cols])
        spectra, real = [], shrink.hermitian_decomposition

        def spy(x):
            w, v = real(x)
            spectra.append(w)
            return w, v

        monkeypatch.setattr(shrink, "hermitian_decomposition", spy)
        for phi in (random_channel(3, 2, 2, 1.0, 70), random_cptp_channel(3, 3, 2, 71), partial_trace_channel(2, 3),
                    identity_channel(3), random_channel(2, 3, 2, 1e-140, 72), random_channel(3, 3, 3, 1e140, 73),
                    KrausChannel(3, 4, classical)):
            spectra.clear()
            empirical_lower_bound(phi, STEPPED_NORMS, restarts=3, steps=30, seed=0)
            assert len(spectra) > 1
            for w in spectra:
                assert (w.min(axis=-1) >= -1e-12 * w.max(axis=-1)).all()

    def test_converged_search_stops_early(self, monkeypatch):
        # every start of both norms is stationary after 21 iterations: 1 + 2 * 21 decompositions
        # of stacks, not 1 + 2 * 10000, and a cap at 21 gives the same result bit for bit
        calls = []
        real = shrink.hermitian_decomposition
        monkeypatch.setattr(shrink, "hermitian_decomposition", lambda x: calls.append(len(x)) or real(x))
        phi = random_channel(3, 2, 2, 1.0, 40)
        norms = [Schatten(3.0), KyFan(2)]
        found = empirical_lower_bound(phi, norms, restarts=4, steps=10_000, seed=0)
        assert len(calls) == 43
        assert calls[:5] == [12, 12, 12, 11, 11] and calls[-2:] == [1, 1]
        for (a, wa), (b, wb) in zip(found, empirical_lower_bound(phi, norms, restarts=4, steps=21, seed=0)):
            assert a == b
            np.testing.assert_array_equal(wa, wb)

    @pytest.mark.parametrize("d", [3, 4, 6])
    def test_bound_stop_ends_a_unital_search_at_once(self, monkeypatch, d):
        # a mixture of three unitaries is unital and trace-preserving, so every factor is 1 and
        # the identity start is already at u: the stop at the bound ends all 4 * (2 + 5) rows
        # after one iteration, 3 decompositions, where the stall rule alone takes hundreds
        rng = np.random.default_rng(d)
        weights = rng.dirichlet(np.ones(3))
        phi = KrausChannel(d, d, [np.sqrt(w) * random_isometry(d, d, rng) for w in weights])
        calls = []
        real = shrink.hermitian_decomposition
        monkeypatch.setattr(shrink, "hermitian_decomposition", lambda x: calls.append(len(x)) or real(x))
        specs = ("schatten:3", "schatten:1.5", "kyfan:2", "combo:0.5*schatten:2+2*kyfan:2")
        report = shrink_report(phi, [parse_norm(spec) for spec in specs], 5, 200)
        assert calls == [28, 28, 28]
        u = report.upper_bound
        for row in report.per_norm:
            assert abs(row.empirical_lower - u) <= 1e-12 * u

    def test_warm_started_steps_take_fewer_rounds(self, monkeypatch):
        # report-small's norm list on a two-Kraus cptp channel, whose mixed rows run to the
        # 200-step cap: 1 + 2 * 200 decompositions, and a linear step that starts each row's
        # Dinkelbach rounds from its previous step takes about one isotonic fit per
        # iteration, not the 401 of rounds that start again from Hölder's direction
        fits, decompositions = [], []
        fit, decompose = shrink._isotonic_fit, shrink.hermitian_decomposition
        monkeypatch.setattr(shrink, "_isotonic_fit", lambda v: fits.append(len(v)) or fit(v))
        monkeypatch.setattr(shrink, "hermitian_decomposition", lambda x: decompositions.append(len(x)) or decompose(x))
        norms = [parse_norm(spec) for spec in (
            "schatten:1", "schatten:1.5", "schatten:2", "schatten:3", "schatten:inf", "kyfan:1", "kyfan:2",
            "kyfan:3", "combo:1*kyfan:1+1*schatten:1", "combo:0.5*schatten:2+2*kyfan:2",
        )]
        shrink_report(random_cptp_channel(3, 3, 2, 1), norms, 0, 200)
        assert (len(fits), len(decompositions)) == (202, 401)

    def test_search_builds_its_tables_once(self, monkeypatch):
        # the same report: its search builds the images' table and one step entry for each of its
        # four norms, 5 gauge_table calls, and takes one table_eval per image decomposition, 201;
        # the starts are sized, and every step spectrum normalized, by _unit_norm's closed form
        # from the norm's step entry. The decompositions and isotonic fits do not move
        counts = dict.fromkeys(("gauge_table", "table_eval", "hermitian_decomposition", "_isotonic_fit"), 0)

        def counted(name, real):
            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)
            return call

        for name in counts:
            monkeypatch.setattr(shrink, name, counted(name, getattr(shrink, name)))
        shrink_report(random_cptp_channel(3, 3, 2, 1), [parse_norm(spec) for spec in REPORT_SMALL_NORMS], 0, 200)
        assert counts == {"gauge_table": 5, "table_eval": 201, "hermitian_decomposition": 401, "_isotonic_fit": 202}

    @pytest.mark.parametrize("phi", [random_channel(2, 3, 2, 1.0, 1), random_channel(3, 2, 2, 1.0, 1)],
                             ids=["2to3", "3to2"])
    def test_batched_search_matches_single_norms_as_rows_stop(self, monkeypatch, phi):
        # the report's one batched search on a channel with d_in != d_out, whose live rows stop
        # norm by norm (8 down to 2), so the blocks and the rows' table slices are re-filtered
        # more than once: each norm's value and witness equal its single-norm search's bit for bit
        searches, live = [], []
        search, decompose = shrink.empirical_lower_bound, shrink.hermitian_decomposition

        def spy(*args):
            searches.append((args, search(*args)))
            return searches[-1][1]

        monkeypatch.setattr(shrink, "empirical_lower_bound", spy)
        monkeypatch.setattr(shrink, "hermitian_decomposition", lambda x: live.append(len(x)) or decompose(x))
        shrink_report(phi, [parse_norm(spec) for spec in REPORT_SMALL_NORMS], 0, 200)
        ((args, found),) = searches
        _, norms, restarts, steps, seed = args
        assert len(norms) == 4 and live[0] == 8 and live[-1] == 2
        assert sum(a != b for a, b in zip(live, live[1:])) >= 2
        monkeypatch.setattr(shrink, "hermitian_decomposition", decompose)
        for norm, (value, witness) in zip(norms, found, strict=True):
            alone, alone_witness = empirical_lower_bound(phi, norm, restarts, steps, seed)
            assert value == alone
            assert witness.tobytes() == alone_witness.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(1, 6),
        st.lists(st.one_of(st.sampled_from([1.0 + 1e-10, 2.0]), st.floats(1.0, 64.0, exclude_min=True)),
                 min_size=1, max_size=3, unique=True),
        st.lists(st.tuples(st.floats(1e-3, 1e3), st.integers(1, 6)), max_size=2),
        st.data(),
    )
    def test_unit_norm_is_table_eval_bit_for_bit(self, n, exponents, kyfan, data):
        # spectra with a leading 1, as the search normalizes them: the starts' spectra (all ones
        # and e_1), Hölder's direction of descending y >= 0 (zero rows and zero tails among them)
        # and, with two or three exponents, the Newton solve. The closed form equals table_eval's
        # value bit for bit, on the norm's one-row table and on its row of a whole-list table
        # whose other norms add exponent columns it holds at zero coefficient
        coefficients = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(exponents), max_size=len(exponents)))
        terms = [(c, Schatten(p)) for c, p in zip(coefficients, exponents)] + [(c, KyFan(k)) for c, k in kyfan]
        norm = Combination(tuple(terms))
        (w,), ps, (c,) = gauge_table((norm,), n)
        others = data.draw(st.lists(st.floats(1.0, 64.0, exclude_min=True), min_size=1, max_size=2, unique=True))
        table = gauge_table((Schatten(others[0]), norm, *(Schatten(p) for p in others[1:])), n)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        y = -np.sort(-rng.random((4, n)), axis=-1)
        y[0] = 0.0
        y[1, max(1, n // 2):] = 0.0
        starts = np.eye(1, n).repeat(3, axis=0)
        starts[0] = 1.0
        spectra = [starts, shrink._holder(y, ps[0])]
        if len(ps) > 1:
            y[0] = y[2]  # the Newton solve needs y_1 > 0
            spectra.append(shrink._solve_gradient(y, -np.sort(-rng.random((4, n)), axis=-1) + 0.1, ps, c))
        for z in spectra:
            assert (z[:, 0] == 1.0).all()
            closed = shrink._unit_norm(z, w, ps, c).tobytes()
            assert closed == table_eval(z, w, ps, c, grad=False)[0].tobytes()
            assert closed == table_eval(z[:, None, :], *table, grad=False)[0][:, 1].tobytes()

    # (channel, [combo:1*schatten:3+1*schatten:1.5, combo:0.5*schatten:2+2*kyfan:2] values of the
    # default schedule when every linear step started from Hölder's direction)
    @pytest.mark.parametrize("phi, pinned", [
        (random_channel(16, 16, 2, 1.0, 1), [134.16216125364207, 159.6935406794671]),
        (random_cptp_channel(16, 16, 2, 1), [1.270345747021489, 1.6340753003966504]),
    ], ids=["random", "cptp"])
    def test_warm_started_steps_keep_the_cold_values(self, phi, pinned):
        norms = [parse_norm("combo:1*schatten:3+1*schatten:1.5"), parse_norm("combo:0.5*schatten:2+2*kyfan:2")]
        bound = shrink_upper_bound(phi)
        for want, (lower, _) in zip(pinned, empirical_lower_bound(phi, norms, 0, 200, 0), strict=True):
            assert abs(lower - want) <= 1e-12 * bound

    def test_search_step_forms_no_superoperator(self):
        # one iteration at d = 32 maps and decomposes d x d stacks: a Kraus kernel that forms
        # the d^2 x d^2 matrix of the map allocates one d^4 complex array (17 MB) or more
        phi = random_channel(32, 32, 2, 1.0, 1)
        tracemalloc.start()
        try:
            empirical_lower_bound(phi, Schatten(3.0), restarts=0, steps=1, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32**4 * 16 / 8

    # (norm, the search it takes): whatever its base terms, the conditional gradient
    @pytest.mark.parametrize("spec, rule", [
        ("schatten:3", "_conditional_gradient"),
        ("combo:3*schatten:3", "_conditional_gradient"),
        ("combo:1*schatten:1.5+2*schatten:1.5", "_conditional_gradient"),
        ("combo:1*kyfan:1+1*schatten:inf+2*kyfan:2", "_conditional_gradient"),
        ("combo:1*schatten:3+1*kyfan:1", "_conditional_gradient"),
        ("combo:1*schatten:3+1*schatten:1.5", "_conditional_gradient"),
        ("combo:1*schatten:2+1*schatten:inf", "_conditional_gradient"),
    ])
    def test_step_rule_reads_the_base_terms(self, monkeypatch, spec, rule):
        # the base terms choose the linear step's case, not the search: every norm takes one call
        calls = []
        real = getattr(shrink, rule)
        monkeypatch.setattr(shrink, rule, lambda *a: calls.append(rule) or real(*a))
        empirical_lower_bound(random_channel(3, 2, 2, 1.0, 40), parse_norm(spec), 2, 3, seed=0)
        assert calls == [rule]

    @pytest.mark.parametrize("case", range(len(PINNED)))
    def test_no_loss_against_the_ascent(self, case):
        phi, bound, pinned = PINNED[case]
        assert shrink_upper_bound(phi) == bound
        found = empirical_lower_bound(phi, PINNED_NORMS, 20, 40, 0)
        for want, (lower, _) in zip(pinned, found, strict=True):
            assert lower >= want - 1e-9 * bound

    @pytest.mark.parametrize("kind", ["random", "cptp"])
    def test_default_schedule_loses_nothing_to_random_starts(self, kind):
        # the CLI's default schedule, the two analytic starts capped at 200 iterations,
        # against the former default of 20 random starts beside them capped at 40
        norms = [parse_norm(spec) for spec in (
            "schatten:3", "schatten:1.5", "kyfan:2",
            "combo:1*schatten:3+1*schatten:1.5", "combo:0.5*schatten:2+2*kyfan:2",
        )]
        rng = np.random.default_rng(25)
        for seed in range(6):
            d_in, d_out, n_kraus = (int(v) for v in rng.integers((2, 2, 1), (5, 5, 4)))
            if kind == "random":
                phi = random_channel(d_in, d_out, n_kraus, 1.0, seed)
            else:
                phi = random_cptp_channel(d_in, d_out, n_kraus, seed)
            bound = shrink_upper_bound(phi)
            analytic = empirical_lower_bound(phi, norms, restarts=0, steps=200, seed=0)
            restarted = empirical_lower_bound(phi, norms, restarts=20, steps=40, seed=0)
            for (lower, _), (former, _) in zip(analytic, restarted, strict=True):
                assert lower >= former - 1e-9 * bound


class TestInequalityChecks:
    def test_zero_input_all_ok(self):
        phi = random_channel(3, 2, 2, 1.0, 31)
        chk = check_kyfan_bounds(phi, np.zeros((3, 3)))
        assert len(chk.norms) == padded_dim_for(phi)
        assert chk.ok.shape == (padded_dim_for(phi), 1)
        assert chk.ok.all() and not chk.lhs.any() and not chk.rhs.any()

    def test_identity_channel_is_tight(self):
        rng = np.random.default_rng(32)
        phi = identity_channel(3)
        x = random_hermitian(3, rng)
        chk = check_kyfan_bounds(phi, x)
        assert chk.ok.all()
        np.testing.assert_allclose(chk.lhs, chk.rhs, rtol=1e-12, atol=1e-12)

    def test_random_fuzz_all_ok(self):
        rng = np.random.default_rng(33)
        for seed in range(20):
            phi = random_channel(int(rng.integers(2, 5)), int(rng.integers(2, 5)), 2, 1.0, seed)
            x = random_hermitian(phi.d_in, rng)
            assert check_kyfan_bounds(phi, x).ok.all()
            assert check_gauge_bounds([phi], [x], norm_battery(6)).ok.all()
            # a stack of inputs gains a trailing axis of length T, matching per-input calls
            xs = np.stack([x] + [random_hermitian(phi.d_in, rng) for _ in range(3)])
            for check in (check_kyfan_bounds, lambda p, y: check_gauge_bounds([p], [y], norm_battery(6))):
                stacked = check(phi, xs)
                assert stacked.lhs.shape == stacked.rhs.shape == stacked.ok.shape == (len(stacked.norms), 1, 4)
                for t, y in enumerate(xs):
                    single = check(phi, y)
                    assert single.norms == stacked.norms
                    assert np.array_equal(stacked.ok[..., t], single.ok)
                    for field in ("lhs", "rhs"):
                        np.testing.assert_allclose(
                            getattr(stacked, field)[..., t], getattr(single, field), rtol=1e-15, atol=1e-12
                        )

    def test_record_shapes_and_relative_slack(self, monkeypatch):
        # one record of (norms, channels, trials) arrays, its ok the relative comparison
        phis = [random_channel(3, 2, 2, 1.0, 60), random_channel(2, 4, 1, 1e-7, 61), random_channel(4, 3, 3, 1e7, 62)]
        rng = np.random.default_rng(63)
        xs = [random_hermitian(phi.d_in, rng, 5) for phi in phis]
        norms = norm_battery(4)
        for slack in (shrink.BOUND_SLACK, -0.6):
            monkeypatch.setattr(shrink, "BOUND_SLACK", slack)
            chk = check_gauge_bounds(phis, xs, norms)
            assert chk.norms == tuple(norms)
            assert chk.lhs.shape == chk.rhs.shape == chk.ok.shape == (len(norms), 3, 5)
            assert np.array_equal(chk.ok, chk.lhs <= (1 + slack) * chk.rhs)
            assert chk.ok.all() == (slack > 0)

    def test_one_stacked_evaluation_matches_per_spectrum_values(self):
        rng = np.random.default_rng(35)
        for phi in (random_channel(3, 2, 2, 1.0, 36), random_channel(2, 4, 3, 1.0, 37)):
            padded = padded_dim_for(phi)
            bound = shrink_upper_bound(phi)
            xs = np.stack([random_hermitian(phi.d_in, rng) for _ in range(4)])
            for norm in norm_battery(padded):
                chk = check_gauge_bounds([phi], [xs], [norm])
                single = check_gauge_bounds([phi], [xs[2]], [norm])
                for t, x in enumerate(xs):
                    lhs = gauge_eval(norm, singular_values(phi.apply(x), padded))
                    rhs = bound * gauge_eval(norm, singular_values(x, padded))
                    # numpy's power ufunc may round the last bit by array layout, so not ==
                    assert chk.lhs[0, 0, t] == pytest.approx(lhs, rel=1e-15, abs=0.0)
                    assert chk.rhs[0, 0, t] == pytest.approx(rhs, rel=1e-15, abs=0.0)
                    if t == 2:
                        assert single.lhs[0, 0] == pytest.approx(lhs, rel=1e-15, abs=0.0)
                        assert single.rhs[0, 0] == pytest.approx(rhs, rel=1e-15, abs=0.0)

    def test_input_inside_the_hermitian_tolerance_is_read_whole(self):
        # the values-only solve reads one triangle, so an input off its adjoint by just
        # under the tolerance must check as its Hermitian part on both sides
        phi = random_channel(6, 5, 3, 1.0, 42)
        rng = np.random.default_rng(43)
        xs = random_hermitian(6, 44, 4)
        skew = rng.standard_normal(xs.shape) + 1j * rng.standard_normal(xs.shape)
        skew -= np.swapaxes(skew, -2, -1).conj()
        # x + e * skew deviates from its adjoint by 2 e |skew|, entrywise
        scale = np.abs(xs).max(axis=(-2, -1), keepdims=True) / np.abs(skew).max(axis=(-2, -1), keepdims=True)
        off = xs + 0.45 * HERMITICITY_TOL * scale * skew
        assert not np.array_equal(off, hermitize(off))
        for x in (off, off[1]):
            chk = check_gauge_bounds([phi], [x], norm_battery(6))
            whole = check_gauge_bounds([phi], [hermitize(x)], norm_battery(6))
            for field in ("lhs", "rhs", "ok"):
                assert np.array_equal(getattr(chk, field), getattr(whole, field))
        # an input outside the tolerance is still refused
        with pytest.raises(ValueError, match="not Hermitian"):
            check_gauge_bounds([phi], [xs + 0.55 * HERMITICITY_TOL * scale * skew], norm_battery(6))

    @pytest.mark.parametrize("e", [-200, 200])
    def test_hermitian_tolerance_reads_fixed_relative_skews(self, e):
        # skews fixed relative to each input's largest entry, not set by the constant: one of
        # 1e-11 is read, and one of 1e-8 refused, at input scales 2^+-200
        phi = random_channel(4, 3, 2, 1.0, 45)
        rng = np.random.default_rng(46)
        xs = random_hermitian(4, 47, 3)
        skew = rng.standard_normal(xs.shape) + 1j * rng.standard_normal(xs.shape)
        skew -= np.swapaxes(skew, -2, -1).conj()
        # x + r * scale * skew deviates from its adjoint by at most 2 r times x's largest entry
        scale = np.abs(xs).max(axis=(-2, -1), keepdims=True) / np.abs(skew).max(axis=(-2, -1), keepdims=True)
        check_gauge_bounds([phi], [2.0**e * (xs + 1e-11 * scale * skew)], norm_battery(4))
        with pytest.raises(ValueError, match="not Hermitian"):
            check_gauge_bounds([phi], [2.0**e * (xs + 1e-8 * scale * skew)], norm_battery(4))

    def test_empty_norm_list(self):
        phi = random_channel(3, 2, 2, 1.0, 38)
        xs = random_hermitian(3, 39, 4)
        for x, shape in ((xs[0], (0, 1)), (xs, (0, 1, 4))):
            chk = check_gauge_bounds([phi], [x], [])
            assert chk.norms == ()
            assert chk.lhs.shape == chk.rhs.shape == chk.ok.shape == shape

    def test_duplicate_norms_get_one_check_each(self):
        phi = random_channel(3, 2, 2, 1.0, 40)
        combo = Combination(((0.5, Schatten(2.0)), (2.0, KyFan(2))))
        norms = [Schatten(3.0), combo, KyFan(1), Schatten(3.0), combo]
        for x in (random_hermitian(3, 41), random_hermitian(3, 41, 4)):
            chk = check_gauge_bounds([phi], [x], norms)
            assert chk.norms == tuple(norms)
            assert chk.ok.shape == (len(norms), 1, *x.shape[:-2])
            for first, again in ((0, 3), (1, 4)):
                for field in ("lhs", "rhs", "ok"):
                    assert np.array_equal(getattr(chk, field)[first], getattr(chk, field)[again])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        shapes=st.lists(
            st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**31 - 1)),
            min_size=1,
            max_size=6,
        ),
        trials=st.one_of(st.none(), st.integers(1, 4)),
        seed=st.integers(0, 2**31 - 1),
    )
    # one channel's image size is another's input size, so one values-only solve takes both
    @example(shapes=[(2, 3, 1, 0), (3, 2, 2, 1)], trials=3, seed=0)
    def test_channel_sequence_matches_one_call_per_channel(self, shapes, trials, seed):
        # one stacked pass over several channels: the ok flags of one call per channel,
        # its values bit for bit where the channel has the list's padded dimension
        # (the same spectrum length) and up to rounding where it has fewer zeros
        phis = [random_channel(d_in, d_out, n, 1.0, s) for d_in, d_out, n, s in shapes]
        rng = np.random.default_rng(seed)
        xs = [random_hermitian(phi.d_in, rng, trials) for phi in phis]
        padded = max(padded_dim_for(phi) for phi in phis)
        norms = norm_battery(padded)
        chk = check_gauge_bounds(phis, xs, norms)
        assert chk.norms == tuple(norms)
        for c, (phi, x) in enumerate(zip(phis, xs)):
            single = check_gauge_bounds([phi], [x], norms)
            assert chk.ok.shape == chk.lhs.shape == chk.rhs.shape == (len(norms), len(phis), *x.shape[:-2])
            assert np.array_equal(chk.ok[:, c], single.ok[:, 0])
            for field in ("lhs", "rhs"):
                got, want = getattr(chk, field)[:, c], getattr(single, field)[:, 0]
                if padded_dim_for(phi) == padded:
                    assert np.array_equal(got, want)
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("sequence", [False, True], ids=["one-channel", "sequence"])
    def test_each_input_stack_is_validated_once(self, monkeypatch, sequence):
        # one Hermitian check per input size, each on the stack of that size's inputs, and
        # none on the images: the check maps the stacks it validated itself
        seen = []
        real = spectral.require_hermitian

        def counting(a, stacked=False):
            seen.append(np.shape(a))
            return real(a, stacked)

        for module in (spectral, channel, shrink):
            monkeypatch.setattr(module, "require_hermitian", counting)
        phis = [random_channel(3, 2, 2, 1.0, 50), random_channel(2, 3, 1, 1.0, 51), random_channel(3, 3, 1, 1.0, 54)]
        xs = [random_hermitian(3, 52, 4), random_hermitian(2, 53, 4), random_hermitian(3, 55, 4)]
        if not sequence:
            phis, xs = phis[:1], xs[:1]
        check_gauge_bounds(phis, xs, norm_battery(3))
        # sizes in order of first appearance, each a stack of its inputs
        assert seen == ([(2, 4, 3, 3), (1, 4, 2, 2)] if sequence else [(1, 4, 3, 3)])

    def test_mixed_sizes_refuse_one_non_hermitian_input(self):
        # validated per size, a block still refuses any one input off its adjoint, whichever
        # size it has and wherever it stands
        phis = [random_channel(3, 2, 2, 1.0, 56), random_channel(2, 3, 1, 1.0, 57), random_channel(3, 3, 1, 1.0, 58)]
        for c in range(len(phis)):
            xs = [random_hermitian(phi.d_in, 59 + i, 4) for i, phi in enumerate(phis)]
            xs[c][2, 0, 1] += 1e-3
            with pytest.raises(ValueError, match="matrix is not Hermitian"):
                check_gauge_bounds(phis, xs, norm_battery(3))

    def test_channel_sequence_needs_one_input_shape(self):
        phis = [random_channel(2, 3, 1, 1.0, 1), random_channel(3, 2, 2, 1.0, 2)]
        for xs in (
            [random_hermitian(2, 0, 3), random_hermitian(3, 0, 4)],
            [random_hermitian(2, 0, 3), random_hermitian(3, 0)],
            [random_hermitian(2, 0, 3)],
        ):
            with pytest.raises(DimensionMismatch):
                check_gauge_bounds(phis, xs, norm_battery(3))
        with pytest.raises(ValueError, match="at least one channel"):
            check_gauge_bounds([], [], norm_battery(3))

    def test_k_range_is_padded_dim(self):
        phi = random_channel(2, 5, 2, 1.0, 34)
        ks = [norm.k for norm in check_kyfan_bounds(phi, np.eye(2)).norms]
        assert ks == list(range(1, 6))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_kyfan_bounds(partial_trace_channel(2, 2), np.eye(3))


@pytest.mark.parametrize(
    "solver, call, min_ndim",
    [
        # the pair is read first, and the trace witness takes no solve of its own, so the
        # error must come from the search's batched hermitian_decomposition
        ("eigh", lambda phi: empirical_lower_bound(phi, Schatten(2.0), restarts=1, steps=1, seed=0), 3),
        # the pair's two solves: a values-only one of Phi(I), an eigensystem of Phi†(I)
        ("eigh", shrink_upper_bound, 3),
        ("eigvalsh", shrink_upper_bound, 3),
        ("svd", lambda phi: spectral_norm(phi.kraus[0]), 2),
        ("svd", lambda phi: trace_norm(phi.kraus[0]), 2),
        # the pair is read first; the check's values-only solves take stacks of one matrix at least
        ("eigvalsh", lambda phi: check_gauge_bounds([phi], [np.eye(phi.d_in)], norm_battery(3)), 3),
        # only stacks of stacks fail here, so the error must come from the stacked check's solves
        ("eigvalsh", lambda phi: check_gauge_bounds([phi], [np.stack([np.eye(phi.d_in)] * 3)], norm_battery(3)), 4),
    ],
    ids=["empirical_lower_bound", "shrink_upper_bound", "shrink_upper_bound-values", "spectral_norm", "trace_norm",
         "check_gauge_bounds", "check_gauge_bounds_stacked"],
)
def test_svd_failure_surfaces_as_convergence_failure(monkeypatch, solver, call, min_ndim):
    # singular_values has the one checked SVD call, hermitian_decomposition the one checked
    # eigh call and hermitian_spectra the one checked eigvalsh call; each wraps the solver's error
    real = getattr(np.linalg, solver)

    def flaky(a, *args, **kwargs):
        if np.ndim(a) >= min_ndim:
            raise np.linalg.LinAlgError(f"{solver} did not converge")
        return real(a, *args, **kwargs)

    phi = random_channel(2, 3, 2, 1.0, 35)
    if call is not shrink_upper_bound:
        # the pair's solves take 3-D stacks too: read it first, so the failure is the call's own
        shrink_upper_bound(phi)
    monkeypatch.setattr(np.linalg, solver, flaky)
    failure = {"svd": "singular value decomposition failed"}.get(solver, "eigensolver did not converge")
    with pytest.raises(ConvergenceFailure, match=f"^{failure}: {solver} did not converge$"):
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

    @pytest.mark.parametrize("n_norms", [1, 4, 10])
    def test_report_reads_trace_factor_only_to_search(self, monkeypatch, n_norms):
        # the report's own factors read t from the invariant pair, so the one call is the
        # batched search's start, whatever the norm count; the first norm alone is Schatten 1,
        # a closed-form row whose witness is not read, so nothing calls it
        calls = []
        real = shrink.trace_shrink_factor
        monkeypatch.setattr(shrink, "trace_shrink_factor", lambda phi: calls.append(phi) or real(phi))
        phi = random_channel(3, 2, 2, 1.0, 43)
        rep = shrink_report(phi, norm_battery(3)[:n_norms], restarts=2, steps=3, seed=0)
        assert len(rep.per_norm) == n_norms
        assert len(calls) == (0 if n_norms == 1 else 1)

    def test_exact_witness_is_built_on_first_read(self, monkeypatch):
        # schatten:2 and two positive multiples of it share one values-only solve of the Gram,
        # beside the pair's values-only solve of Phi(I) and eigensystem of Phi†(I); no other
        # eigh runs until a witness is read, one runs then and no eigvalsh, and the base keeps
        # what it built, so reading the multiples' witnesses takes no third eigh
        counts = {"eigh": 0, "eigvalsh": 0}
        for name in counts:
            def call(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, call)
        phi = random_channel(3, 2, 2, 1.0, 48)
        norms = [parse_norm(spec) for spec in ("schatten:2", "combo:3*schatten:2", "combo:1*schatten:2+3*schatten:2")]
        rep = shrink_report(phi, norms, restarts=0, steps=5)
        assert counts == {"eigh": 1, "eigvalsh": 2}
        row, *multiples = rep.per_norm
        witness = row.witness
        # the read solves for the eigensystem alone, not for the value again
        assert counts == {"eigh": 2, "eigvalsh": 2}
        assert row.witness is witness
        for multiple, total in zip(multiples, (3.0, 4.0)):
            assert multiple.witness.tobytes() == (witness / total).tobytes()
        assert counts == {"eigh": 2, "eigvalsh": 2}
        h, want = schatten2_shrink_factor(phi)
        assert row.empirical_lower == multiples[0].empirical_lower == multiples[1].empirical_lower == min(h, rep.upper_bound)
        np.testing.assert_array_equal(witness, want)

    def test_failed_witness_build_is_not_kept(self, monkeypatch):
        real = np.linalg.eigh
        failures = []

        def fail_once(*args, **kwargs):
            if not failures:
                failures.append("eigh")
                raise np.linalg.LinAlgError("eigh did not converge")
            return real(*args, **kwargs)

        phi = random_channel(3, 2, 2, 1.0, 49)
        row, multiple = shrink_report(phi, [Schatten(2.0), parse_norm("combo:3*schatten:2")], restarts=0, steps=5).per_norm
        monkeypatch.setattr(np.linalg, "eigh", fail_once)
        # the multiple's read fails in its base's build, which neither row keeps
        with pytest.raises(ConvergenceFailure):
            multiple.witness
        np.testing.assert_array_equal(row.witness, schatten2_shrink_factor(phi)[1])
        assert multiple.witness.tobytes() == (row.witness / 3.0).tobytes()

    def test_default_report_runs_no_search(self, monkeypatch):
        # schatten:inf, 2 and 1 all have a closed form, so no decomposition stack is taken, and
        # neither is one for Ky Fan 1 or Ky Fan k at or beyond the padded dimension (4 here);
        # one searched norm makes the search run
        calls = []
        real = shrink.hermitian_decomposition
        monkeypatch.setattr(shrink, "hermitian_decomposition", lambda x: calls.append(x) or real(x))
        phi = random_channel(4, 3, 2, 1.0, 44)
        shrink_report(phi, [Schatten(INF), Schatten(2.0), Schatten(1.0)], restarts=20, steps=40, seed=0)
        shrink_report(phi, [KyFan(1), KyFan(4), KyFan(7)], restarts=20, steps=40, seed=0)
        assert calls == []
        shrink_report(phi, [Schatten(INF), Schatten(3.0)], restarts=2, steps=3, seed=0)
        # the starts' images, then G and the images at each of the 3 iterations, which all run
        assert len(calls) == 1 + 2 * 3

    @pytest.mark.parametrize("phi", [random_channel(3, 2, 2, 1.0, 40), random_cptp_channel(4, 3, 2, 42),
                                     partial_trace_channel(2, 3)], ids=["random", "cptp", "ptrace"])
    def test_positive_multiples_share_the_row(self, phi):
        # c * N and N + N have N's factor: rows on one base exactly, searched or not, since they
        # scale its one answer, and rows on several bases up to rounding, each with a witness of
        # unit norm in its own norm
        padded = padded_dim_for(phi)
        for spec in ("schatten:inf", "schatten:1", "schatten:2", f"kyfan:{padded}", "kyfan:2", "schatten:3",
                     "schatten:1.5", "combo:1*kyfan:1+1*schatten:1", "combo:1*schatten:3+1*kyfan:1",
                     "combo:0.5*schatten:2+2*kyfan:2", "combo:1*schatten:3+1*schatten:1.5"):
            norm = parse_norm(spec)
            terms = norm.terms if isinstance(norm, Combination) else ((1.0, norm),)
            multiples = [Combination(tuple((c * a, t) for a, t in terms)) for c in (0.5, 2.0, 3.0)]
            multiples.append(Combination(terms + terms))
            first, *rest = shrink_report(phi, [norm, *multiples], restarts=20, steps=40, seed=0).per_norm
            one_base = len({b for _, b in base_terms(norm, padded)}) == 1
            for row in rest:
                assert row.empirical_lower == pytest.approx(first.empirical_lower, rel=1e-12)
                assert row.empirical_lower == first.empirical_lower or not one_base
                size = gauge_eval(row.norm, singular_values(row.witness, padded))
                assert size == pytest.approx(1.0, rel=1e-12)

    def test_mixed_rows_do_not_depend_on_the_norm_scale(self):
        # the mixed step reads only ratios of its coefficients, so c * N gives N's row to rounding,
        # and bit for bit when c is a power of two, whose rescaled norm is N itself
        phi = partial_trace_channel(2, 3)
        specs = ("combo:1e308*schatten:3+1e308*kyfan:1", "combo:3*schatten:3+3*kyfan:1",
                 "combo:1*schatten:3+1*kyfan:1", "combo:2*schatten:3+2*kyfan:1")
        huge, three, plain, two = (row.empirical_lower for row in
                                   shrink_report(phi, [parse_norm(s) for s in specs], 20, 40, 0).per_norm)
        assert huge == pytest.approx(plain, rel=1e-12) and three == pytest.approx(plain, rel=1e-12)
        assert two == plain

    @pytest.mark.parametrize("spec, plain", [
        ("combo:2*schatten:2", "schatten:2"),
        ("combo:1*kyfan:1+1*schatten:inf", "schatten:inf"),
        ("combo:0.5*schatten:1+0.25*kyfan:9", "schatten:1"),
        ("combo:1e308*kyfan:1+1e308*schatten:inf", "schatten:inf"),
        # several bases: two closed ones, and three with one searched
        ("combo:1*kyfan:1+1*schatten:1", None),
        ("combo:1*kyfan:1+1*schatten:2+1*schatten:3", None),
    ])
    def test_multiples_of_closed_forms_are_exact(self, monkeypatch, spec, plain):
        # one closed-form base under every term: the exact factor, its witness divided by the
        # sum of the coefficients, and no search. A row on several bases is searched, whatever
        # its bases are, and its bound is u
        calls = []
        real = shrink.hermitian_decomposition
        monkeypatch.setattr(shrink, "hermitian_decomposition", lambda x: calls.append(x) or real(x))
        phi = random_channel(4, 3, 2, 1.0, 44)
        norm = parse_norm(spec)
        if plain is None:
            rep = shrink_report(phi, [norm], restarts=20, steps=40, seed=0)
            (row,) = rep.per_norm
            assert calls and row.upper == rep.upper_bound
            lower, witness = empirical_lower_bound(phi, norm, restarts=20, steps=40, seed=0)
            assert row.empirical_lower == lower
            assert row.witness.tobytes() == witness.tobytes()
            return
        row, want = shrink_report(phi, [norm, parse_norm(plain)], restarts=20, steps=40, seed=0).per_norm
        assert calls == []
        top = max(c for c, _ in norm.terms)  # 2e308 overflows; 2 * 1e308 does not
        assert row.empirical_lower == want.empirical_lower
        np.testing.assert_allclose(row.witness, want.witness / top / sum(c / top for c, _ in norm.terms), rtol=1e-15)

    def test_searched_values_never_exceed_the_bound(self):
        # rank-one channels, whose analytic starts reach max(s, t) up to rounding, often one ulp
        # above it; each value is at most the bound, exactly, and its witness still achieves it
        norms = [parse_norm(spec) for spec in ("combo:0.5*schatten:2+2*kyfan:2", "kyfan:2",
                                               "combo:1*kyfan:2+1*schatten:1.5", "combo:1*kyfan:1+1*kyfan:2",
                                               "schatten:3")]
        for i in range(40):
            phi = random_channel(2 + i % 4, 2 + (i // 4) % 4, 1, 1.0, i)
            upper = shrink_upper_bound(phi)
            for norm, (lower, witness) in zip(norms, empirical_lower_bound(phi, norms, 20, 40, seed=i)):
                assert lower <= upper
                achieved = gauge_eval(norm, singular_values(phi.apply(witness), padded_dim_for(phi)))
                assert achieved == pytest.approx(lower, rel=1e-12)

    def test_brackets_never_invert(self):
        # on both one-Kraus channels the search ratio rounds above the proven bound at these
        # settings; the two-Kraus channel searches a row on two bases and a multiple of Schatten 3
        norms = [Schatten(INF), Schatten(2.0), Schatten(1.0), KyFan(2)]
        combos = [parse_norm("combo:1*kyfan:1+1*schatten:1.5"), parse_norm("combo:2*schatten:3")]
        for phi, rows, restarts, steps in ((random_channel(1, 1, 1, 1.0, 3), norms, 20, 40),
                                           (random_channel(8, 8, 1, 1.0, 4), norms, 0, 0),
                                           (random_channel(3, 3, 2, 1.0, 5), norms + combos, 0, 200)):
            rep = shrink_report(phi, rows, restarts, steps, seed=0)
            for bracket in rep.per_norm:
                assert bracket.empirical_lower <= rep.upper_bound
                assert rep.upper_bound - bracket.empirical_lower >= 0.0
                # every row carries the universal bound, the searched and scaled ones too
                assert bracket.upper == rep.upper_bound
                assert bracket.empirical_lower <= bracket.upper

    def test_exact_rows_are_clamped_to_the_bound(self):
        # Kraus operators that are multiples of one E give h = u, and here h rounds one ulp above
        # u. The map is one-Kraus, remixed into two operators, so the one-Kraus rule does not
        # decide its rows: the report's exact Schatten-2 rows, which no search clamps, must
        # still read u with a zero gap
        phi = random_channel(2, 2, 1, 1.0, 0).remix(random_isometry(2, 1, 0))
        assert phi.n_kraus == 2
        u = shrink_upper_bound(phi)
        assert schatten2_shrink_factor(phi)[0] > u
        rep = shrink_report(phi, [parse_norm("schatten:2"), parse_norm("combo:3*schatten:2")], 0, 200)
        for bracket in rep.per_norm:
            assert (bracket.empirical_lower, bracket.upper) == (u, u)
            assert bracket.upper - bracket.empirical_lower == 0.0


def _count_searched_norms(monkeypatch) -> list[int]:
    """Wrap the search's iteration to record how many norms each call is given."""
    counts = []
    real = shrink._conditional_gradient
    monkeypatch.setattr(shrink, "_conditional_gradient",
                        lambda ops, norms, *rest: counts.append(len(norms)) or real(ops, norms, *rest))
    return counts


ROW_SPECS = ("schatten:inf", "schatten:1", "schatten:2", "schatten:3", "schatten:1.5", "kyfan:2", "kyfan:3",
             "kyfan:4", "combo:3*kyfan:2", "combo:1*kyfan:1+1*schatten:1", "combo:0.5*schatten:2+2*kyfan:2",
             "combo:1*schatten:3+1*schatten:1.5", "combo:3*schatten:3")


def _new_exact(phi, norm) -> bool:
    """Whether the Kraus count decides ``norm``'s row: every row of a one-Kraus channel, and
    Ky Fan k (with its multiples) for n_kraus <= k < padded_dim."""
    terms = {b for _, b in base_terms(norm, padded_dim_for(phi))}
    if phi.n_kraus == 1:
        return True
    (base,) = terms if len(terms) == 1 else (None,)
    return isinstance(base, KyFan) and phi.n_kraus <= base.k < padded_dim_for(phi)


class TestKrausCountRows:
    """Rows decided by the Kraus count: every row of a one-Kraus channel, and Ky Fan k >= K."""

    @pytest.mark.parametrize("phi", [random_channel(3, 4, 1, 1.0, 7), random_channel(4, 2, 1, 3e-90, 8),
                                     identity_channel(3)], ids=["3x4", "4x2-tiny", "identity"])
    def test_one_kraus_rows_are_u_at_the_trace_projector(self, monkeypatch, phi):
        # Phi(X) = E X E†: every row, on several bases too, reads u with a zero gap, at the trace
        # projector divided by the coefficient total; nothing is searched and no Gram is built,
        # while the factors keep s and t as read
        counts = _count_searched_norms(monkeypatch)
        grams = []
        monkeypatch.setattr(shrink, "_schatten2_gram", lambda phi: grams.append(phi))
        norms = [parse_norm(spec) for spec in ROW_SPECS]
        rep = shrink_report(phi, norms, restarts=3, steps=20)
        assert counts == [] and grams == []
        inv = phi.invariants()
        assert (rep.spectral_factor, rep.trace_factor) == (inv.identity_image_norm, inv.adjoint_identity_image_norm)
        u, projector = rep.upper_bound, trace_shrink_factor(phi)[1]
        padded = padded_dim_for(phi)
        # the first row, schatten:inf, has coefficient total 1 and holds the projector itself
        assert rep.per_norm[0].witness is projector
        for row in rep.per_norm:
            assert (row.empirical_lower, row.upper) == (u, u)
            scaled, e = shrink._rescaled_norm(row.norm)
            total = sum(c for c, _ in base_terms(scaled, padded))
            assert row.witness.tobytes() == shrink._scaled_witness(rep.per_norm[0], total, e).tobytes()
            size = gauge_eval(row.norm, singular_values(row.witness, padded))
            image = gauge_eval(row.norm, singular_values(phi.apply(row.witness), padded))
            assert size == pytest.approx(1.0, rel=1e-14) and image == pytest.approx(u, rel=1e-12)

    @pytest.mark.parametrize("phi", [random_channel(3, 5, 2, 1.0, 9), random_cptp_channel(4, 4, 2, 10),
                                     random_channel(2, 5, 3, 1.0, 11), partial_trace_channel(2, 3)],
                             ids=["random-3x5x2", "cptp-4x4x2", "random-2x5x3", "ptrace-2x3"])
    def test_kyfan_rows_from_the_kraus_count(self, monkeypatch, phi):
        # Ky Fan k with n_kraus <= k < padded: max(||Phi(I)||_(k) / k, t), through top_k_eigensum,
        # at I / k or the trace projector, and t at the projector for k > d_in; no search runs
        # for them, and Ky Fan k < n_kraus is still searched
        counts = _count_searched_norms(monkeypatch)
        padded = padded_dim_for(phi)
        inv = phi.invariants()
        t = inv.adjoint_identity_image_norm
        closed = range(phi.n_kraus, padded)
        rep = shrink_report(phi, [KyFan(k) for k in closed], restarts=3, steps=20)
        assert counts == []
        for k, row in zip(closed, rep.per_norm):
            mean = top_k_eigensum(inv.identity_image, k) / k
            want = max(mean, t) if k <= phi.d_in else t
            assert row.empirical_lower == min(want, rep.upper_bound) and row.upper == rep.upper_bound
            if k <= phi.d_in and mean >= t:
                np.testing.assert_array_equal(row.witness, np.eye(phi.d_in) / k)
            else:
                assert row.witness is trace_shrink_factor(phi)[1]
            image = gauge_eval(row.norm, singular_values(phi.apply(row.witness), padded))
            assert image == pytest.approx(row.empirical_lower, rel=1e-12)
        shrink_report(phi, [KyFan(k) for k in range(1, phi.n_kraus + 1)], restarts=3, steps=20)
        assert counts == ([phi.n_kraus - 2] if phi.n_kraus > 2 else [])

    def test_multiples_of_a_searched_base_share_one_search(self, monkeypatch):
        # schatten:3 and two multiples of it are one search of Schatten 3: one norm reaches the
        # iteration, and the multiples take its value and its witness over their coefficient
        counts = _count_searched_norms(monkeypatch)
        phi = random_channel(3, 3, 2, 1.0, 1)
        norms = [parse_norm(spec) for spec in ("schatten:3", "combo:2*schatten:3", "combo:3*schatten:3")]
        row, *multiples = shrink_report(phi, norms, restarts=0, steps=200).per_norm
        assert counts == [1]
        lower, witness = empirical_lower_bound(phi, Schatten(3.0), restarts=0, steps=200)
        assert row.empirical_lower == lower and row.witness.tobytes() == witness.tobytes()
        for multiple, c in zip(multiples, (2.0, 3.0)):
            assert multiple.empirical_lower == lower and multiple.upper == row.upper
            np.testing.assert_allclose(multiple.witness, witness / c, rtol=1e-15)
            size = gauge_eval(multiple.norm, singular_values(multiple.witness, 3))
            assert size == pytest.approx(1.0, rel=1e-14)

    def test_a_combination_on_schatten_2_builds_no_gram(self, monkeypatch):
        # on two Kraus operators a combination is searched as it is, so a Schatten-2 base that
        # no row has alone is not solved for: no row reads h, and no Gram is built
        grams = []
        monkeypatch.setattr(shrink, "_schatten2_gram", lambda phi: grams.append(phi))
        norms = [parse_norm("combo:0.5*schatten:2+2*kyfan:2")]
        (row,) = shrink_report(random_channel(3, 3, 2, 1.0, 1), norms, restarts=0, steps=20).per_norm
        assert grams == [] and row.empirical_lower <= row.upper


@pytest.mark.parametrize("source", ["random:3x4x1:7", "random:3x3x2:1", "cptp:4x3x2:42", "ptrace:2x3", "clamp"])
def test_printed_rows_hold_their_brackets(capsys, tmp_path, source):
    # every printed row, exact, scaled or searched: empirical_lower <= upper_bound <= the
    # report's upper bound, and gap their difference exactly. The clamp channel is a one-Kraus
    # map remixed into two operators, whose h rounds one ulp above u
    if source == "clamp":
        path = tmp_path / "clamp.json"
        path.write_text(random_channel(2, 2, 1, 1.0, 0).remix(random_isometry(2, 1, 0)).to_json())
        source = str(path)
    argv = ["report", "--channel", source, "--format", "json", "--steps", "40"]
    assert main([*argv, *(arg for spec in ROW_SPECS for arg in ("--norm", spec))]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [row["norm"] for row in doc["norms"]] == [format_norm(parse_norm(spec)) for spec in ROW_SPECS]
    for row in doc["norms"]:
        assert row["empirical_lower"] <= row["upper_bound"] <= doc["factors"]["upper_bound"]
        assert row["gap"] == row["upper_bound"] - row["empirical_lower"]


@st.composite
def kraus_count_channels(draw, max_dim: int = 5) -> KrausChannel:
    """Random channels with d_in, d_out 1..``max_dim`` and one to three Kraus operators."""
    d_in, d_out = draw(st.integers(1, max_dim)), draw(st.integers(1, max_dim))
    return random_channel(d_in, d_out, draw(st.integers(1, 3)), 1.0, draw(st.integers(0, 10_000)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(phi=kraus_count_channels(max_dim=4), specs=st.lists(st.sampled_from(ROW_SPECS), min_size=1, max_size=8))
def test_rows_do_not_depend_on_the_other_rows(phi, specs):
    # each row of a report, in any order and with repeats, is the row of a report on its norm
    # alone, bit for bit: the rows share answers and one batched search, never a result
    norms = [parse_norm(spec) for spec in specs]
    rep = shrink_report(phi, norms, restarts=1, steps=5, seed=2)
    for norm, row in zip(norms, rep.per_norm, strict=True):
        (alone,) = shrink_report(phi, [norm], restarts=1, steps=5, seed=2).per_norm
        assert (row.norm, row.empirical_lower, row.upper) == (norm, alone.empirical_lower, alone.upper)
        assert row.witness.tobytes() == alone.witness.tobytes()


class TestKrausCountProperties:
    """The rows the Kraus count decides, against the search, the Kraus scale and remix."""

    NORMS = [parse_norm(spec) for spec in ROW_SPECS]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(phi=kraus_count_channels())
    def test_rows_are_at_least_the_search(self, phi):
        # the row is the exact factor, so no search value exceeds it beyond rounding
        rep = shrink_report(phi, self.NORMS, restarts=2, steps=40, seed=1)
        searched = empirical_lower_bound(phi, self.NORMS, restarts=2, steps=40, seed=1)
        for row, (lower, _) in zip(rep.per_norm, searched):
            if _new_exact(phi, row.norm):
                assert row.empirical_lower >= lower - 1e-14 * rep.upper_bound

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(phi=kraus_count_channels(), j=st.integers(-40, 40))
    def test_rows_scale_bit_for_bit(self, phi, j):
        # Kraus operators 2^j E: values times 4^j and the same witnesses, bit for bit
        scaled = KrausChannel(phi.d_in, phi.d_out, 2.0**j * phi.kraus)
        rows = zip(shrink_report(phi, self.NORMS, 0, 40).per_norm, shrink_report(scaled, self.NORMS, 0, 40).per_norm)
        for row, big in rows:
            if _new_exact(phi, row.norm):
                assert big.empirical_lower == row.empirical_lower * 4.0**j
                assert big.witness.tobytes() == row.witness.tobytes()

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(phi=kraus_count_channels(), seed=st.integers(0, 1000))
    def test_rows_agree_under_remix(self, phi, seed):
        # a unitary remix keeps the map and its Kraus count, so the same rows are decided the
        # same way, up to rounding
        mixed = phi.remix(random_isometry(phi.n_kraus, phi.n_kraus, seed))
        rows = zip(shrink_report(phi, self.NORMS, 0, 40).per_norm, shrink_report(mixed, self.NORMS, 0, 40).per_norm)
        for row, other in rows:
            if _new_exact(phi, row.norm):
                assert other.empirical_lower == pytest.approx(row.empirical_lower, rel=1e-12)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        phi=kraus_count_channels(),
        extra=st.sampled_from([0, 2]),
        j=st.sampled_from([-490, 490]) | st.integers(-490, 490),
        seed=st.integers(0, 1000),
    )
    def test_default_report_agrees_under_remix_at_any_scale(self, phi, extra, j, seed):
        # a remix keeps the map, and the default norms' answers read only the map (s, t and
        # h), so a report on Phi.remix(V), V an isometry with K or K + 2 rows, matches the
        # report on Phi within 1e-12 u at Kraus scales 2^+-490, although a taller V changes
        # the Kraus count the rules read
        phi = KrausChannel(phi.d_in, phi.d_out, 2.0**j * phi.kraus)
        mixed = phi.remix(random_isometry(phi.n_kraus + extra, phi.n_kraus, seed))
        norms = [parse_norm(spec) for spec in DEFAULT_NORMS]
        rep, other = (shrink_report(chan, norms, 0, 200) for chan in (phi, mixed))
        tol = 1e-12 * rep.upper_bound
        for field in ("upper_bound", "spectral_factor", "trace_factor"):
            assert abs(getattr(other, field) - getattr(rep, field)) <= tol
        (row,), (mixed_row,) = ([r for r in x.per_norm if r.norm == Schatten(2.0)] for x in (rep, other))
        assert abs(mixed_row.empirical_lower - row.empirical_lower) <= tol


class TestSharedSpectralData:
    """``s``, ``t`` and the trace witness are derived once per channel, on first read."""

    NORMS = [Schatten(INF), Schatten(1.0), Schatten(2.0), Schatten(3.0), KyFan(2),
             parse_norm("combo:0.5*schatten:2+2*kyfan:2")]

    @staticmethod
    def _assert_same_report(a, b):
        assert (a.upper_bound, a.spectral_factor, a.trace_factor, a.padded_dim) == (
            b.upper_bound, b.spectral_factor, b.trace_factor, b.padded_dim)
        for x, y in zip(a.per_norm, b.per_norm, strict=True):
            assert x.norm == y.norm and x.empirical_lower == y.empirical_lower
            np.testing.assert_array_equal(x.witness, y.witness)

    def test_second_report_matches_a_fresh_channel(self):
        phi = random_channel(3, 2, 2, 1.0, 45)
        shrink_report(phi, self.NORMS, restarts=3, steps=4, seed=1)
        again = shrink_report(phi, self.NORMS, restarts=3, steps=4, seed=1)
        fresh = shrink_report(random_channel(3, 2, 2, 1.0, 45), self.NORMS, restarts=3, steps=4, seed=1)
        self._assert_same_report(again, fresh)

    def test_trace_witness_is_read_only(self):
        phi = random_channel(3, 2, 2, 1.0, 46)
        before = shrink_report(phi, self.NORMS, restarts=3, steps=4, seed=1)
        _, witness = trace_shrink_factor(phi)
        row = before.per_norm[self.NORMS.index(Schatten(1.0))].witness
        for target in (witness, row):
            with pytest.raises(ValueError, match="read-only"):
                target[0, 0] = 7.0
        self._assert_same_report(shrink_report(phi, self.NORMS, restarts=3, steps=4, seed=1), before)

    @pytest.mark.parametrize("solver, read", [
        ("eigvalsh", shrink_upper_bound),
        ("eigh", lambda phi: trace_shrink_factor(phi)[0]),
        ("eigh", lambda phi: trace_shrink_factor(phi)[1]),
        ("eigh", shrink_upper_bound),
        ("eigvalsh", lambda phi: phi.invariants().identity_image_spectrum),
        ("eigvalsh", lambda phi: trace_shrink_factor(phi)[1]),
    ], ids=["upper-bound", "trace-factor", "trace-witness", "upper-bound-eigensystem", "spectrum",
            "trace-witness-values"])
    def test_failed_first_read_is_not_kept(self, monkeypatch, solver, read):
        # a failure of either of the pair's two solves keeps none of s, t, the spectrum and the
        # top eigenvector, whichever read made them; the next read solves again
        real = getattr(np.linalg, solver)
        failures = []

        def fail_once(*args, **kwargs):
            if not failures:
                failures.append(solver)
                raise np.linalg.LinAlgError(f"{solver} did not converge")
            return real(*args, **kwargs)

        phi = random_channel(3, 2, 2, 1.0, 47)
        monkeypatch.setattr(np.linalg, solver, fail_once)
        with pytest.raises(ConvergenceFailure):
            read(phi)
        assert vars(phi.invariants()).keys() == {"identity_image", "adjoint_identity_image"}
        np.testing.assert_array_equal(read(phi), read(random_channel(3, 2, 2, 1.0, 47)))


def _report():
    return shrink_report(random_channel(2, 2, 1, 1.0, 0), [KyFan(1), Schatten(3.0)], restarts=1, steps=1)


# records that hold arrays: a generated __eq__ would compare arrays and raise for two equal-shaped ones
@pytest.mark.parametrize(
    "make",
    [
        lambda: random_channel(2, 2, 1, 1.0, 0),
        lambda: random_channel(2, 2, 1, 1.0, 0).invariants(),
        lambda: check_gauge_bounds([identity_channel(2)], [np.eye(2)], [KyFan(1)]),
        lambda: check_gauge_bounds([identity_channel(2)], [np.stack([np.eye(2)] * 3)], [KyFan(1)]),
        lambda: _report().per_norm[1],
        _report,
        lambda: fan_projectors(np.diag([2.0, -1.0]), 1),
    ],
    ids=["KrausChannel", "ChannelInvariants", "NormCheck-scalar", "NormCheck-stack", "NormBracket",
         "ShrinkReport", "FanProjectors"],
)
def test_array_records_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b and not a == b
    assert hash(a) == hash(a) and len({a, b, a}) == 2
