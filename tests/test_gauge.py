import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cpshrink import gauge
from cpshrink.errors import DimensionMismatch
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
from cpshrink.shrink import norm_battery
from cpshrink.spectral import random_hermitian, singular_values

INF = float("inf")


def norm_of(norm, m, padded_dim):
    return gauge_eval(norm, singular_values(m, padded_dim))


def table_row(norm, n):
    """Row 0 of ``norm``'s one-row table on spectra of length ``n``, as ``table_eval`` takes it."""
    weights, exponents, coefficients = gauge_table((norm,), n)
    return weights[0], exponents, coefficients[0]


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


# the battery, repeats of a Ky Fan, a Schatten and a combination, and a combination
# whose terms (Schatten 4, Ky Fan 7 beyond the spectrum) are nowhere else in the list
SEQUENCE = norm_battery(5) + [
    KyFan(2),
    Schatten(1.5),
    Combination(((0.5, Schatten(2.0)), (2.0, KyFan(2)))),
    Combination(((3.0, Schatten(4.0)), (0.25, KyFan(7)))),
]


# every family and both ends of Schatten, which reduce to Ky Fan sums
EVAL_BASES = st.one_of(
    st.builds(KyFan, st.integers(1, 10)),
    st.builds(Schatten, st.one_of(st.just(1.0), st.just(INF), st.floats(1.0, 50.0))),
)


class TestGaugeEvalSequence:
    @pytest.mark.parametrize("shape", [(5,), (7, 5), (2, 3, 5)])
    def test_matches_single_norm_calls_bit_for_bit(self, shape):
        spectra = np.random.default_rng(10).random(shape)
        spectra[..., 3] = 0.0  # a zero entry, as padding leaves
        values = gauge_eval(SEQUENCE, spectra)
        assert values.shape == (len(SEQUENCE),) + shape[:-1]
        for n, norm in enumerate(SEQUENCE):
            assert values[n].tobytes() == np.asarray(gauge_eval(norm, spectra), dtype=float).tobytes()

    def test_tuple_is_a_sequence(self):
        s = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(gauge_eval(tuple(SEQUENCE), s), gauge_eval(SEQUENCE, s))

    def test_empty_sequence(self):
        assert gauge_eval([], np.ones((4, 3))).shape == (0, 4)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            gauge_eval(SEQUENCE, np.array([[1.0, 0.5], [1.0, -0.5]]))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_one_evaluation_per_distinct_base(self, monkeypatch, n):
        # the battery on spectra of length n is one table: Schatten 1 is Ky Fan n and Schatten inf
        # is Ky Fan 1, so its exponent columns are Schatten 1.5, 2 and 3, each raised once, and one
        # evaluator call gives every value: no gradient is built
        seen = []
        real = gauge.table_eval

        def spy(s, weights, exponents, coefficients, grad=True):
            seen.append((weights.shape, exponents, coefficients.shape, grad))
            return real(s, weights, exponents, coefficients, grad)

        monkeypatch.setattr(gauge, "table_eval", spy)
        gauge_eval(norm_battery(n), np.random.default_rng(14).random((2, 3, n)))
        assert seen == [((n + 7, n), (1.5, 2.0, 3.0), (n + 7, 3), False)]

    @given(
        st.one_of(EVAL_BASES, st.builds(Combination, st.lists(
            st.tuples(st.floats(1e-3, 1e3), EVAL_BASES), min_size=1, max_size=4,
        ).map(tuple))),
        st.integers(1, 8).flatmap(lambda n: st.lists(
            st.lists(st.floats(0.0, 1e3), min_size=n, max_size=n), min_size=1, max_size=3,
        )),
    )
    def test_values_are_the_value_half_bit_for_bit(self, norm, rows):
        # gauge_eval's values-only path, and table_eval's, against the value of the full
        # call on sorted spectra
        s = np.array(rows)
        ordered = np.flip(np.sort(s, axis=-1), axis=-1)
        full = table_eval(ordered, *table_row(norm, s.shape[-1]))
        assert np.asarray(gauge_eval(norm, s)).tobytes() == np.asarray(full[0], dtype=float).tobytes()
        assert np.asarray(gauge_eval(norm, s[0])).tobytes() == np.asarray(full[0][0], dtype=float).tobytes()
        value, _ = table_eval(ordered, *table_row(norm, s.shape[-1]), grad=False)
        assert value.tobytes() == np.asarray(full[0], dtype=float).tobytes()


# norm lists of every family, with repeats, on spectra past numpy's 8-way unrolled sums
TABLE_NORMS = st.lists(st.one_of(EVAL_BASES, st.builds(Combination, st.lists(
    st.tuples(st.floats(1e-3, 1e3), EVAL_BASES), min_size=1, max_size=4,
).map(tuple))), min_size=1, max_size=6)
TABLE_SPECTRA = st.integers(1, 40).flatmap(lambda n: st.lists(
    st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)), min_size=n, max_size=n), min_size=1, max_size=3,
))


def reference_value(norm, s):
    """``norm`` at spectrum ``s`` from its own terms: Ky Fan by a cumulative sum, Schatten by numpy's norm."""
    s = -np.sort(-s)
    terms = norm.terms if isinstance(norm, Combination) else ((1.0, norm),)
    return sum(c * (np.cumsum(s)[min(t.k, s.size) - 1] if isinstance(t, KyFan) else np.linalg.norm(s, t.p))
               for c, t in terms)


class TestGaugeTable:
    def test_rows(self):
        norms = (KyFan(2), Schatten(3.0), Combination(((0.5, Schatten(1.5)), (2.0, KyFan(1)), (1.0, Schatten(3.0)))),
                 Schatten(INF), Schatten(1.0))
        weights, exponents, coefficients = table = gauge_table(norms, 3)
        assert exponents == (1.5, 3.0)
        np.testing.assert_array_equal(weights, [[1, 1, 0], [0, 0, 0], [2, 0, 0], [1, 0, 0], [1, 1, 1]])
        np.testing.assert_array_equal(coefficients, [[0, 0], [0, 1], [0.5, 1], [0, 0], [0, 0]])
        assert gauge_table(norms, 3) is table
        assert not weights.flags.writeable and not coefficients.flags.writeable

    @given(TABLE_NORMS, TABLE_SPECTRA)
    def test_values_match_a_reference(self, norms, rows):
        s = np.array(rows)
        values = gauge_eval(norms, s)
        direct, _ = table_eval(-np.sort(-s)[:, None, :], *gauge_table(tuple(norms), s.shape[-1]), grad=False)
        for n, norm in enumerate(norms):
            for t, spectrum in enumerate(s):
                want = reference_value(norm, spectrum)
                assert values[n, t] == pytest.approx(want, rel=1e-12, abs=0.0)
                assert direct[t, n] == values[n, t]

    @given(TABLE_NORMS, TABLE_SPECTRA, st.data())
    def test_a_row_does_not_depend_on_the_table(self, norms, rows, data):
        # a norm alone and inside any larger table: value and gradient bit for bit
        s = -np.sort(-np.array(rows))
        n = data.draw(st.integers(0, len(norms) - 1))
        values, grads = table_eval(s[:, None, :], *gauge_table(tuple(norms), s.shape[-1]))
        alone, alone_grad = table_eval(s[:, None, :], *gauge_table((norms[n],), s.shape[-1]))
        wrapped, wrapped_grad = table_eval(s, *table_row(norms[n], s.shape[-1]))
        assert values[:, n].tobytes() == alone[:, 0].tobytes() == wrapped.tobytes()
        assert grads[:, n].tobytes() == alone_grad[:, 0].tobytes() == wrapped_grad.tobytes()
        # the search's form: one table row per spectrum
        weights, exponents, coefficients = gauge_table(tuple(norms), s.shape[-1])
        owner = np.array([n] * len(s))
        by_row, by_row_grad = table_eval(s, weights[owner], exponents, coefficients[owner])
        assert by_row.tobytes() == wrapped.tobytes() and by_row_grad.tobytes() == grads[:, n].tobytes()

    @given(TABLE_NORMS, TABLE_SPECTRA)
    def test_values_do_not_depend_on_the_layout(self, norms, rows):
        # np.vecdot sums in an order that follows the memory layout: flipped, strided and
        # Fortran-ordered views of a contiguous stack give its values and gradients bit for bit,
        # with rows sharing each spectrum (gauge_eval's form) or each on its own (the search's)
        s = -np.sort(-np.array(rows))
        table = weights, exponents, coefficients = gauge_table(tuple(norms), s.shape[-1])
        owner = np.arange(len(s)) % len(norms)
        values, grads = table_eval(s[:, None, :], *table)
        own, own_grad = table_eval(s, weights[owner], exponents, coefficients[owner])
        views = np.flip(np.flip(s, axis=-1).copy(), axis=-1), np.stack([s, s], axis=-1)[..., 0], np.asfortranarray(s)
        for view in views:
            assert np.array_equal(view, s)
            v, g = table_eval(view[:, None, :], *table)
            assert v.tobytes() == values.tobytes() and g.tobytes() == grads.tobytes()
            v, g = table_eval(view, weights[owner], exponents, coefficients[owner])
            assert v.tobytes() == own.tobytes() and g.tobytes() == own_grad.tobytes()
        # gauge_eval sorts unsorted spectra, views among them, into one contiguous array
        unsorted = np.array(rows)
        for view in (unsorted, np.flip(np.flip(unsorted, axis=-1).copy(), axis=-1), np.asfortranarray(unsorted)):
            assert gauge_eval(norms, view).tobytes() == np.moveaxis(values, -1, 0).tobytes()

    def test_values_form_no_broadcast_product(self):
        # each row's Ky Fan part is one contraction with its spectrum: the battery's 39 rows on
        # 2000 spectra of length 32 as a (2000, 39, 32) product would take 19 MiB
        norms = norm_battery(32)
        s = np.random.default_rng(15).random((2000, 32))
        gauge_eval(norms, s[:1])  # the table is built and kept outside the trace
        tracemalloc.start()
        try:
            gauge_eval(norms, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(norms) == 39 and peak < 6 * 2**20

    def test_an_overflowing_column_stays_in_its_rows(self):
        # ||s||_3 overflows at these entries; the Ky Fan row beside it reads as it does alone
        s = np.array([1.5e308, 1.5e308])
        with np.errstate(over="ignore"):
            values = gauge_eval([KyFan(1), Schatten(3.0)], s)
        assert values[0] == gauge_eval(KyFan(1), s) == 1.5e308 and values[1] == INF


# pairs of equal norms on spectra of length 4
EQUAL_NORMS = [
    (Schatten(INF), KyFan(1)),
    (Schatten(1.0), KyFan(4)),
    (KyFan(5), KyFan(4)),
    (KyFan(9), Schatten(1.0)),
    (Combination(((2.0, Schatten(INF)), (1.0, KyFan(7)))), Combination(((2.0, KyFan(1)), (1.0, Schatten(1.0))))),
]


class TestBaseTerms:
    def test_spectral_and_trace_ends_are_ky_fan(self):
        assert base_terms(Schatten(INF), 4) == ((1.0, KyFan(1)),)
        assert base_terms(Schatten(1.0), 4) == ((1.0, KyFan(4)),)
        assert base_terms(KyFan(4), 4) == base_terms(KyFan(9), 4) == ((1.0, KyFan(4)),)
        assert base_terms(KyFan(3), 4) == ((1.0, KyFan(3)),)
        assert base_terms(Schatten(1.5), 4) == ((1.0, Schatten(1.5)),)
        assert base_terms(Schatten(1.0), 1) == base_terms(Schatten(INF), 1) == ((1.0, KyFan(1)),)

    def test_combination_keeps_its_terms_in_order(self):
        norm = Combination(((0.5, Schatten(2.0)), (2.0, KyFan(6)), (3.0, Schatten(INF)), (1.0, Schatten(2.0))))
        assert base_terms(norm, 5) == ((0.5, Schatten(2.0)), (2.0, KyFan(5)), (3.0, KyFan(1)), (1.0, Schatten(2.0)))

    def test_plain_norms_are_reduced_once(self):
        # the search's hot path reads the same answer, not a new one per call
        assert base_terms(KyFan(7), 3) is base_terms(KyFan(7), 3)
        assert base_terms(KyFan(7), 3)[0][1] is base_terms(KyFan(7), 3)[0][1]

    def test_rejects_other_objects(self):
        with pytest.raises(TypeError):
            base_terms(2.0, 3)

    @given(st.integers(1, 8), st.lists(st.tuples(st.floats(1e-3, 1e3), EVAL_BASES), min_size=1, max_size=4))
    def test_bases_and_values(self, n, terms):
        norm = Combination(tuple(terms))
        reduced = base_terms(norm, n)
        assert [c for c, _ in reduced] == [float(c) for c, _ in terms]
        for _, base in reduced:
            assert isinstance(base, KyFan) and base.k <= n or 1.0 < base.p < INF
        s = -np.sort(-np.random.default_rng(n).random(n))
        assert gauge_eval(norm, s) == pytest.approx(sum(c * gauge_eval(b, s) for c, b in reduced), rel=1e-12)

    @pytest.mark.parametrize("pair", EQUAL_NORMS, ids=lambda pair: " = ".join(map(format_norm, pair)))
    def test_equal_norms_give_equal_values_bit_for_bit(self, pair):
        a, b = pair
        spectra = np.random.default_rng(15).random((3, 2, 4))
        spectra[0, 0] = 0.0
        assert gauge_eval(a, spectra[0, 1]) == gauge_eval(b, spectra[0, 1])
        assert gauge_eval(a, spectra).tobytes() == gauge_eval(b, spectra).tobytes()
        values = gauge_eval([a, b], spectra)
        assert values[0].tobytes() == values[1].tobytes()
        for s in (spectra[1, 0], spectra):
            (va, ga), (vb, gb) = (table_eval(-np.sort(-s), *table_row(norm, 4)) for norm in (a, b))
            assert np.asarray(va).tobytes() == np.asarray(vb).tobytes() and ga.tobytes() == gb.tobytes()


GRAD_NORMS = [KyFan(1), KyFan(2), KyFan(3), Schatten(1.0), Schatten(1.5), Schatten(3.0),
              Schatten(INF)] + [n for n in norm_battery(1) if isinstance(n, Combination)]


def central_difference(norm, s, h=1e-6):
    """Gradient of gauge_eval at one spectrum by central differences."""
    out = np.zeros_like(s)
    for i in range(s.size):
        step = np.zeros_like(s)
        step[i] = h
        out[i] = (gauge_eval(norm, s + step) - gauge_eval(norm, s - step)) / (2 * h)
    return out


def gauge_grad(norm, s):
    return table_eval(s, *table_row(norm, s.shape[-1]))[1]


class TestGaugeGrad:
    @pytest.mark.parametrize("norm", GRAD_NORMS, ids=format_norm)
    def test_matches_central_differences(self, norm):
        s = np.array([3.0, 2.2, 1.1, 0.4])
        np.testing.assert_allclose(gauge_grad(norm, s), central_difference(norm, s), rtol=1e-7, atol=1e-8)
        # a stack of spectra, distinct entries at least 0.2 apart so no difference step crosses a tie
        rng = np.random.default_rng(9)
        stack = -np.sort(-(np.arange(4) * 0.3 + rng.random((2, 3, 4)) * 0.1), axis=-1)
        got = gauge_grad(norm, stack)
        assert got.shape == stack.shape
        for idx in np.ndindex(stack.shape[:-1]):
            np.testing.assert_allclose(got[idx], central_difference(norm, stack[idx]), rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("norm", GRAD_NORMS, ids=format_norm)
    def test_zero_spectrum_is_finite(self, norm):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            single = gauge_grad(norm, np.zeros(3))
            stack = gauge_grad(norm, np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0]]))
        assert np.isfinite(single).all() and np.isfinite(stack).all()

    def test_schatten_large_exponent_does_not_overflow(self):
        s = np.array([10.0, 1.0])
        got = gauge_grad(Schatten(400.0), s)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got, central_difference(Schatten(400.0), s), atol=1e-8)

    @pytest.mark.parametrize("norm", norm_battery(4), ids=format_norm)
    def test_value_is_gauge_eval_bit_for_bit(self, norm):
        rng = np.random.default_rng(11)
        # zeros, ties and a padded tail, as the checks and the search see them
        single = np.array([4.0, 2.5, 2.5, 0.7, 0.0, 0.0])
        stack = -np.sort(-rng.random((3, 5, 6)) * rng.choice([1e-3, 1.0, 1e4], (3, 5, 1)), axis=-1)
        stack[0, 0] = 0.0
        value, grad = table_eval(single, *table_row(norm, 6))
        assert np.ndim(value) == 0 and grad.shape == single.shape
        assert float(value) == gauge_eval(norm, single)
        value, grad = table_eval(stack, *table_row(norm, 6))
        assert value.shape == stack.shape[:-1] and grad.shape == stack.shape
        np.testing.assert_array_equal(value, gauge_eval(norm, stack))


class TestVariantValidation:
    def test_kyfan_order_positive(self):
        with pytest.raises(ValueError):
            KyFan(0)

    @pytest.mark.parametrize("k", [np.int64(2), np.int32(3), np.uint8(1), True], ids=repr)
    def test_kyfan_order_of_any_integer_type_is_canonical(self, k):
        norm = KyFan(k)
        assert type(norm.k) is int and norm == KyFan(int(k)) and hash(norm) == hash(KyFan(int(k)))
        assert format_norm(norm) == f"kyfan:{int(k)}" and parse_norm(format_norm(norm)) == norm

    @pytest.mark.parametrize("k", [2.0, np.float64(2.0), "2", None, False, np.int64(0)], ids=repr)
    def test_kyfan_order_rejects_non_integers(self, k):
        with pytest.raises(ValueError, match="KyFan order must be an integer >= 1"):
            KyFan(k)

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
    def test_dominance_orders_schatten_norms(self):
        # partial-sum dominance of the sorted vectors bounds every gauge (Schur convexity)
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
            if np.all(np.cumsum(np.sort(u)[::-1]) <= np.cumsum(np.sort(v)[::-1]) + 1e-12):
                seen_true += 1
                for norm in exponents:
                    assert gauge_eval(norm, u) <= gauge_eval(norm, v) + 1e-9
            else:
                seen_false += 1
        assert seen_true > 0 and seen_false > 0


BASE_NORMS = st.one_of(
    st.builds(KyFan, st.integers(1, 10**30)),
    st.builds(Schatten, st.one_of(st.just(INF), st.floats(1.0, allow_infinity=False))),
)


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
        ["schatten:1", "schatten:1.5", "schatten:inf", "kyfan:3", "combo:1*kyfan:1+1*schatten:1",
         "combo:0.5*schatten:2+2*kyfan:2", "combo:1e+300*schatten:3", "schatten:1e+06"],
    )
    def test_short_labels_are_kept(self, text):
        # a label that reads back as its norm prints as it did
        assert format_norm(parse_norm(text)) == text

    @pytest.mark.parametrize(
        "text",
        ["schatten:1.0000000001", "schatten:1234567.0", "combo:0.1234567*kyfan:1+1*schatten:2",
         "combo:1.0000000000000002*kyfan:1+0.30000000000000004*schatten:3",
         "combo:1e-320*schatten:3", "combo:5e-324*schatten:3"],
    )
    def test_long_labels_are_exact(self, text):
        assert format_norm(parse_norm(text)) == text

    def test_exponents_inside_combinations(self):
        norm = Combination(((1e300, Schatten(1e6)), (2.5e-7, KyFan(2))))
        assert parse_norm("combo:1e+300*schatten:1e+06+2.5e-07*kyfan:2") == norm
        assert parse_norm(format_norm(norm)) == norm

    @given(st.one_of(BASE_NORMS, st.builds(Combination, st.lists(
        st.tuples(st.floats(0.0, exclude_min=True, allow_infinity=False), BASE_NORMS), min_size=1, max_size=4,
    ).map(tuple))))
    def test_format_is_the_inverse_of_parse(self, norm):
        # any exponent, any coefficient down to the subnormals, any order
        assert parse_norm(format_norm(norm)) == norm

    @pytest.mark.parametrize("text, match", [pytest.param(text, match, id=text) for text, match in [
        # a number out of range keeps the constructor's reason; text that is no number is "bad"
        ("kyfan:0", "KyFan order must be an integer >= 1, got 0$"),
        ("kyfan:-2", "KyFan order must be an integer >= 1, got -2$"),
        ("kyfan:x", "bad kyfan order 'x'"),
        ("kyfan:1.5", "bad kyfan order '1.5'"),
        ("schatten:0.5", "Schatten exponent must be >= 1, got 0.5$"),
        ("schatten:", "bad schatten exponent ''"),
        ("combo:1*schatten:0.5", "Schatten exponent must be >= 1, got 0.5$"),
        ("combo:x*kyfan:1", "bad combination coefficient 'x'"),
        ("combo:", "empty combination spec"),
        ("combo:kyfan:1", "must look like <coeff>"),
        ("plain", "missing ':'"),
        ("foo:3", "unknown norm family 'foo'"),
    ]])
    def test_parse_rejects(self, text, match):
        with pytest.raises(ValueError, match=match):
            parse_norm(text)


def test_format_norm_rejects_a_string():
    with pytest.raises(TypeError, match="unsupported gauge norm: 'schatten:2'$"):
        format_norm("schatten:2")
