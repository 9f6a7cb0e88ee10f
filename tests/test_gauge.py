import numpy as np
import pytest

from cpshrink.errors import DimensionMismatch
from cpshrink.gauge import (
    Combination,
    KyFan,
    Schatten,
    fan_dominance,
    format_norm,
    gauge_eval,
    norm_of,
    parse_norm,
)
from cpshrink.spectral import random_hermitian, singular_values

INF = float("inf")

BATTERY = [
    KyFan(1),
    KyFan(2),
    KyFan(4),
    Schatten(1.0),
    Schatten(1.5),
    Schatten(2.0),
    Schatten(INF),
    Combination(((1.0, KyFan(1)), (0.5, Schatten(2.0)))),
]


class TestGaugeEval:
    def test_kyfan_partial_sum(self):
        assert gauge_eval(KyFan(2), np.array([3.0, 2.0, 1.0])) == pytest.approx(5.0)

    def test_kyfan_saturates_to_trace(self):
        assert gauge_eval(KyFan(5), np.array([3.0, 2.0, 1.0])) == pytest.approx(6.0)

    def test_schatten_two(self):
        assert gauge_eval(Schatten(2.0), np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0)

    def test_schatten_inf_is_max(self):
        assert gauge_eval(Schatten(INF), np.array([1.0, 7.0, 2.0])) == pytest.approx(7.0)

    def test_combination(self):
        norm = Combination(((2.0, KyFan(1)), (1.0, Schatten(1.0))))
        assert gauge_eval(norm, np.array([3.0, 1.0])) == pytest.approx(2 * 3 + 4)

    def test_permutation_invariance_exact(self):
        rng = np.random.default_rng(5)
        s = rng.random(6)
        shuffled = s[rng.permutation(6)]
        for norm in BATTERY:
            assert gauge_eval(norm, s) == gauge_eval(norm, shuffled)

    def test_padding_invariance_exact(self):
        s = np.array([2.5, 1.0, 0.5])
        padded = np.concatenate([s, np.zeros(4)])
        for norm in BATTERY:
            assert gauge_eval(norm, s) == gauge_eval(norm, padded)

    def test_kyfan_one_equals_schatten_inf(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            s = rng.random(5)
            assert gauge_eval(KyFan(1), s) == gauge_eval(Schatten(INF), s)

    def test_kyfan_monotone_in_k(self):
        rng = np.random.default_rng(7)
        s = rng.random(6)
        vals = [gauge_eval(KyFan(k), s) for k in range(1, 9)]
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[5] == gauge_eval(Schatten(1.0), s)
        assert vals[7] == vals[5]

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(8)
        stack = rng.random((10, 4))
        for norm in BATTERY:
            batched = gauge_eval(norm, stack)
            assert batched.shape == (10,)
            for row, val in zip(stack, batched):
                assert gauge_eval(norm, row) == pytest.approx(val, rel=1e-15)

    def test_schatten_large_exponent_neither_overflows_nor_underflows(self):
        # s ** 400 overflows at 10 and underflows at 0.1; the norm must still read s_max
        assert gauge_eval(Schatten(400.0), np.array([10.0, 1.0])) == pytest.approx(10.0, rel=1e-15)
        assert gauge_eval(Schatten(400.0), np.array([0.1, 0.05])) == pytest.approx(0.1, rel=1e-15)
        stack = np.array([[10.0, 1.0], [0.1, 0.05], [0.0, 0.0], [4.0, 3.0]])
        np.testing.assert_allclose(gauge_eval(Schatten(400.0), stack), [10.0, 0.1, 0.0, 4.0], rtol=1e-15)
        combo = Combination(((1.0, Schatten(400.0)), (2.0, KyFan(1))))
        np.testing.assert_allclose(gauge_eval(combo, stack), [30.0, 0.3, 0.0, 12.0], rtol=1e-15)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            gauge_eval(KyFan(1), np.array([1.0, -0.5]))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch):
            gauge_eval(KyFan(1), np.zeros((0,)))


class TestVariantValidation:
    def test_kyfan_order_positive(self):
        with pytest.raises(ValueError):
            KyFan(0)

    def test_schatten_exponent_at_least_one(self):
        with pytest.raises(ValueError):
            Schatten(0.5)

    def test_combination_positive_coefficients(self):
        with pytest.raises(ValueError):
            Combination(((-1.0, KyFan(1)),))

    def test_combination_rejects_nesting(self):
        inner = Combination(((1.0, KyFan(1)),))
        with pytest.raises(ValueError):
            Combination(((1.0, inner),))

    def test_combination_rejects_empty(self):
        with pytest.raises(ValueError):
            Combination(())


class TestNormOf:
    def test_trace_norm_example(self):
        assert norm_of(Schatten(1.0), np.diag([2.0, -5.0, 1.0]), 3) == pytest.approx(8.0)

    def test_spectral_norm_example(self):
        assert norm_of(Schatten(INF), np.diag([2.0, -5.0, 1.0]), 3) == pytest.approx(5.0)

    def test_norm_axioms(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            c = float(rng.standard_normal())
            for norm in BATTERY:
                na = norm_of(norm, a, 4)
                nb = norm_of(norm, b, 4)
                nsum = norm_of(norm, a + b, 4)
                scale = max(1.0, na + nb)
                assert nsum <= na + nb + 1e-9 * scale
                assert abs(norm_of(norm, c * a, 4) - abs(c) * na) <= 1e-9 * max(1.0, abs(c) * na)
                assert na > 0.0

    def test_zero_matrix(self):
        for norm in BATTERY:
            assert norm_of(norm, np.zeros((3, 3)), 3) == 0.0

    def test_unitary_invariance(self):
        rng = np.random.default_rng(10)
        x = random_hermitian(4, rng)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = np.linalg.qr(g)
        for norm in BATTERY:
            assert norm_of(norm, u @ x @ u.conj().T, 4) == pytest.approx(
                norm_of(norm, x, 4), rel=1e-9, abs=1e-9
            )

    def test_padded_comparison_across_shapes(self):
        # a tall matrix and its adjoint agree once both spectra are padded
        rng = np.random.default_rng(12)
        m = rng.standard_normal((5, 2)) + 1j * rng.standard_normal((5, 2))
        for norm in BATTERY:
            assert norm_of(norm, m, 5) == pytest.approx(norm_of(norm, m.conj().T, 5), rel=1e-12)


class TestFanDominance:
    def test_true_example(self):
        # partial sums: 1 <= 2, 2 <= 2, 2 <= 2
        assert fan_dominance(np.array([1.0, 1.0, 0.0]), np.array([2.0, 0.0, 0.0])) is True

    def test_false_example(self):
        assert fan_dominance(np.array([2.0, 0.0]), np.array([1.0, 1.0])) is False

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fan_dominance(np.array([1.0, 0.0]), np.array([1.0, 0.0, 0.0]))

    def test_dominance_orders_schatten_norms(self):
        rng = np.random.default_rng(13)
        exponents = [Schatten(1.0), Schatten(1.5), Schatten(2.0), Schatten(3.0), Schatten(INF)]
        seen_true = seen_false = 0
        for i in range(500):
            u = rng.random(5)
            if i % 2 == 0:
                # build a dominating partner: entrywise bump of the sorted vector
                v = np.sort(u)[::-1] + rng.random(5) * 0.5
                v = v[rng.permutation(5)]
            else:
                v = rng.random(5)
            if fan_dominance(u, v):
                seen_true += 1
                for norm in exponents:
                    assert gauge_eval(norm, u) <= gauge_eval(norm, v) + 1e-9
            else:
                seen_false += 1
        assert seen_true > 0 and seen_false > 0

    def test_matches_singular_spectra(self):
        x = np.diag([2.0, -5.0, 1.0])
        y = np.diag([6.0, 1.0, 1.0])
        assert fan_dominance(singular_values(x, 3), singular_values(y, 3)) is True


class TestParseFormat:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("kyfan:2", KyFan(2)),
            ("schatten:2", Schatten(2.0)),
            ("schatten:1.5", Schatten(1.5)),
            ("schatten:inf", Schatten(INF)),
            ("combo:1*kyfan:1+0.5*schatten:2", Combination(((1.0, KyFan(1)), (0.5, Schatten(2.0))))),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_norm(text) == expected

    @pytest.mark.parametrize(
        "norm",
        [KyFan(3), Schatten(2.0), Schatten(INF), Combination(((2.0, KyFan(2)), (1.0, Schatten(1.0))))],
    )
    def test_round_trip(self, norm):
        assert parse_norm(format_norm(norm)) == norm

    @pytest.mark.parametrize(
        "text",
        ["kyfan:0", "kyfan:x", "schatten:0.5", "schatten:", "combo:", "combo:kyfan:1", "plain", "foo:3"],
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            parse_norm(text)
