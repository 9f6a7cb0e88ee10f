import json
import tracemalloc

import numpy as np
import pytest

from cpshrink.channel import (
    KrausChannel,
    complex_gaussian,
    identity_channel,
    kraus_map,
    partial_trace_channel,
    random_channel,
    random_cptp_channel,
    random_isometry,
    read_invariant_norms,
    read_top_projectors,
)
from cpshrink.errors import (
    ChannelFormatError,
    DimensionMismatch,
    InfeasibleShape,
    NonFinite,
    NotIsometry,
)
from cpshrink.spectral import hermitian_eigenvalues, hermitize, random_hermitian


# ==== independent oracles ====

def slow_apply(kraus, x):
    """Channel application written as explicit index sums."""
    d_out, d_in = kraus[0].shape
    out = np.zeros((d_out, d_out), dtype=complex)
    for op in kraus:
        for a in range(d_out):
            for b in range(d_out):
                acc = 0.0 + 0.0j
                for i in range(d_in):
                    for j in range(d_in):
                        acc += op[a, i] * x[i, j] * np.conj(op[b, j])
                out[a, b] += acc
    return out


def slow_choi(phi):
    """Choi matrix assembled basis unit by basis unit."""
    dim = phi.d_in * phi.d_out
    out = np.zeros((dim, dim), dtype=complex)
    for i in range(phi.d_in):
        for j in range(phi.d_in):
            unit = np.zeros((phi.d_in, phi.d_in), dtype=complex)
            unit[i, j] = 1.0
            image = sum(op @ unit @ op.conj().T for op in phi.kraus)
            out += np.kron(unit, image)
    return out


def slow_partial_trace(x, d_b, d_c):
    """Partial trace over the trailing factor by direct index summation."""
    out = np.zeros((d_b, d_b), dtype=complex)
    for b1 in range(d_b):
        for b2 in range(d_b):
            for c in range(d_c):
                out[b1, b2] += x[b1 * d_c + c, b2 * d_c + c]
    return out


class TestConstruction:
    def test_shapes_validated(self):
        with pytest.raises(DimensionMismatch):
            KrausChannel(2, 3, (np.eye(2),))

    def test_needs_an_operator(self):
        with pytest.raises(ValueError):
            KrausChannel(2, 2, ())

    def test_rejects_all_zero_set(self):
        with pytest.raises(ValueError):
            KrausChannel(2, 2, (np.zeros((2, 2)), np.zeros((2, 2))))

    def test_zero_operator_inside_set_allowed(self):
        phi = KrausChannel(2, 2, (np.eye(2), np.zeros((2, 2))))
        assert phi.n_kraus == 2

    def test_arrays_read_only(self):
        phi = identity_channel(2)
        with pytest.raises(ValueError):
            phi.kraus[0][0, 0] = 5.0
        # every constructor stores one read-only complex128 stack (n_kraus, d_out, d_in)
        base = random_channel(3, 2, 2, 1.0, 4)
        cases = [
            (identity_channel(2), (1, 2, 2)),
            (partial_trace_channel(2, 3), (3, 2, 6)),
            (base, (2, 2, 3)),
            (random_cptp_channel(3, 2, 2, 4), (2, 2, 3)),
            (base.remix(random_isometry(4, 2, 5)), (4, 2, 3)),
            (KrausChannel.from_json(base.to_json()), (2, 2, 3)),
            (KrausChannel(2, 1, [[[1, 2]], [[0, 1j]]]), (2, 1, 2)),
        ]
        for phi, shape in cases:
            assert isinstance(phi.kraus, np.ndarray)
            assert phi.kraus.dtype == np.complex128 and phi.kraus.shape == shape
            assert not phi.kraus.flags.writeable
            assert not phi.invariants().identity_image.flags.writeable
            assert not phi.invariants().adjoint_identity_image.flags.writeable
            with pytest.raises(ValueError):
                phi.kraus[-1, 0, 0] = 5.0

    def test_source_array_copied(self):
        # writing into the caller's arrays after construction leaves the channel as built
        src = np.stack([np.eye(2), np.diag([0.0, 2.0])]).astype(np.complex128)
        ops = list(src.copy())
        channels = [KrausChannel(2, 2, src), KrausChannel(2, 2, ops)]
        # the stack is validated in one call on a copy, so the caller's array is not frozen
        assert src.flags.writeable
        src[1, 0, 0] = ops[1][0, 0] = 7.0
        for phi in channels:
            np.testing.assert_array_equal(phi.kraus[1], np.diag([0.0, 2.0]))
            np.testing.assert_array_equal(phi.invariants().identity_image, np.diag([1.0, 5.0]))


def _bad_kraus(case):
    """(d_in, d_out, the set as an array, the message naming what is wrong, the error type)."""
    ops = np.zeros((3, 2, 2))
    ops[0] = np.eye(2)
    if case == "nan":
        ops[2, 1, 0] = np.nan
        return 2, 2, ops, r"kraus\[2\] contains NaN or Inf entries", NonFinite
    if case == "inf":
        ops[1, 0, 1] = -np.inf
        return 2, 2, ops, r"kraus\[1\] contains NaN or Inf entries", NonFinite
    if case == "shape":
        return 3, 2, np.ones((2, 3, 2)), r"kraus\[0\] has shape \(3, 2\), expected \(2, 3\)", DimensionMismatch
    if case == "1-D":
        # each operator of a 2-D array is one of its rows
        return 2, 2, np.eye(2), r"kraus\[0\] has shape \(2,\), expected \(2, 2\)", DimensionMismatch
    return 3, 2, np.zeros((0, 2, 3)), "at least one Kraus operator is required", ValueError


class TestStackedConstruction:
    # one path builds the stack from an array or a sequence: the same set gives the same
    # channel or the same error, and every error about an operator names it

    def test_stack_and_list_give_identical_channels(self):
        src = random_channel(3, 2, 3, 1.0, 6).kraus
        for ops in (np.array(src), src.real.copy()):
            stacked, listed = KrausChannel(3, 2, ops), KrausChannel(3, 2, list(ops))
            assert stacked.kraus.tobytes() == listed.kraus.tobytes()
            for name in ("identity_image", "adjoint_identity_image"):
                a, b = (getattr(phi.invariants(), name) for phi in (stacked, listed))
                assert a.tobytes() == b.tobytes()

    def test_any_iterable_of_operators(self):
        src = random_channel(3, 2, 3, 1.0, 6).kraus
        phi = KrausChannel(3, 2, (op for op in src))
        assert phi.kraus.tobytes() == src.tobytes()

    @pytest.mark.parametrize("form", ["array", "list"])
    @pytest.mark.parametrize("case", ["shape", "1-D", "nan", "inf", "empty"])
    def test_bad_set_names_the_operator(self, form, case):
        d_in, d_out, ops, message, error = _bad_kraus(case)
        with pytest.raises(error, match="^" + message + "$") as info:
            KrausChannel(d_in, d_out, ops if form == "array" else list(ops))
        # exactly this type: NonFinite and DimensionMismatch are ValueErrors too
        assert type(info.value) is error

    def test_non_finite_stack(self):
        # the first non-finite operator is the one named
        ops = np.zeros((3, 2, 2))
        ops[0] = np.eye(2)
        ops[1, 0, 0], ops[2, 1, 0] = np.inf, np.nan
        for kraus in (ops, list(ops), [np.eye(2), np.full((2, 2), np.nan)]):
            with pytest.raises(NonFinite, match=r"^kraus\[1\] contains NaN or Inf entries$"):
                KrausChannel(2, 2, kraus)

    def test_wrong_operator_shape_names_the_operator(self):
        # the first misshapen operator of a sequence is the one named, whatever its ndim
        good = np.eye(2)
        with pytest.raises(DimensionMismatch, match=r"^kraus\[1\] has shape \(2,\), expected \(2, 2\)$"):
            KrausChannel(2, 2, [good, np.ones(2), np.ones((3, 2))])
        with pytest.raises(DimensionMismatch, match=r"^kraus\[2\] has shape \(3, 2\), expected \(2, 2\)$"):
            KrausChannel(2, 2, (good, good, np.ones((3, 2))))
        with pytest.raises(DimensionMismatch, match=r"^kraus\[0\] has shape \(3, 2\), expected \(2, 3\)$"):
            KrausChannel(3, 2, np.ones((2, 3, 2)))

    def test_empty_and_all_zero_stacks(self):
        with pytest.raises(ValueError, match="at least one Kraus operator"):
            KrausChannel(3, 2, np.zeros((0, 2, 3)))
        with pytest.raises(ValueError, match="at least one nonzero"):
            KrausChannel(3, 2, np.zeros((2, 2, 3)))


class TestKrausMap:
    @pytest.mark.parametrize("d_in,d_out,n_kraus", [(2, 2, 1), (3, 2, 2), (2, 5, 3), (4, 3, 1), (1, 3, 2)])
    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)], ids=["one", "3d", "4d"])
    def test_matches_operator_loop(self, d_in, d_out, n_kraus, lead):
        rng = np.random.default_rng(43)
        ops = rng.standard_normal((n_kraus, d_out, d_in)) + 1j * rng.standard_normal((n_kraus, d_out, d_in))
        adjoint = np.swapaxes(ops, -2, -1).conj()
        for stack, dim in ((ops, d_in), (adjoint, d_out)):
            # any square input, not only Hermitian ones: the map does no validation
            x = rng.standard_normal((*lead, dim, dim)) + 1j * rng.standard_normal((*lead, dim, dim))
            out = kraus_map(stack, x)
            loop = sum(e @ x @ e.conj().T for e in stack)
            assert out.shape == loop.shape
            assert np.abs(out - loop).max() <= 1e-12 * np.abs(loop).max()

    def test_no_superoperator(self):
        # the map works on d x d blocks: a kernel that forms the d^2 x d^2 matrix
        # sum_n E_n ⊗ conj(E_n) allocates one d^4 complex array (85 MB at d = 48) or more
        rng = np.random.default_rng(44)
        d = 48
        ops = complex_gaussian(rng, (2, d, d))
        x = complex_gaussian(rng, (2, d, d))
        tracemalloc.start()
        try:
            kraus_map(ops, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d**4 * 16 / 8


class TestApply:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = random_hermitian(3, rng)
        np.testing.assert_allclose(identity_channel(3).apply(x), x, atol=1e-12)

    @pytest.mark.parametrize("d_in,d_out,n_kraus", [(2, 2, 1), (3, 2, 2), (2, 4, 3), (4, 3, 2)])
    def test_matches_slow_oracle(self, d_in, d_out, n_kraus):
        rng = np.random.default_rng(42)
        phi = random_channel(d_in, d_out, n_kraus, 1.0, 42)
        xs = np.stack([random_hermitian(d_in, rng) for _ in range(5)])
        for x in xs:
            np.testing.assert_allclose(phi.apply(x), slow_apply(phi.kraus, x), atol=1e-10)
        # a stack maps matrix by matrix, bit for bit
        images = phi.apply(xs)
        assert images.shape == (5, d_out, d_out)
        for x, image in zip(xs, images):
            np.testing.assert_allclose(image, slow_apply(phi.kraus, x), atol=1e-10)
            np.testing.assert_array_equal(image, phi.apply(x))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace_channel(2, 2).apply(np.eye(3))
        with pytest.raises(DimensionMismatch):
            partial_trace_channel(2, 2).apply(np.stack([np.eye(3), np.eye(3)]))

    def test_rejects_non_hermitian_input(self):
        with pytest.raises(ValueError):
            identity_channel(2).apply(np.array([[0.0, 1.0], [0.0, 0.0]]))
        # one bad matrix in a stack is enough
        with pytest.raises(ValueError):
            identity_channel(2).apply(np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])]))

    def test_linearity(self):
        rng = np.random.default_rng(1)
        phi = random_channel(3, 2, 2, 1.0, 7)
        x = random_hermitian(3, rng)
        y = random_hermitian(3, rng)
        a, b = 0.7, -1.3
        lhs = phi.apply(a * x + b * y)
        rhs = a * phi.apply(x) + b * phi.apply(y)
        assert np.abs(lhs - rhs).max() <= 1e-9 * max(1.0, np.abs(rhs).max())

    def test_preserves_positivity(self):
        rng = np.random.default_rng(2)
        for seed in range(10):
            phi = random_channel(3, 3, 2, 1.0, seed)
            a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            w = hermitian_eigenvalues(phi.apply(a @ a.conj().T))
            assert w[-1] >= -1e-9 * max(0.0, w[0])

    def test_trace_identity(self):
        # tr(Phi(x)) equals tr(Phi†(I) x)
        rng = np.random.default_rng(3)
        for seed in range(10):
            phi = random_channel(4, 2, 3, 1.0, seed)
            w = phi.invariants().adjoint_identity_image
            x = random_hermitian(4, rng)
            lhs = np.trace(phi.apply(x)).real
            rhs = np.trace(w @ x).real
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


class TestInvariants:
    def test_identity_channel(self):
        inv = identity_channel(3).invariants()
        np.testing.assert_allclose(inv.identity_image, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(inv.adjoint_identity_image, np.eye(3), atol=1e-12)

    def test_single_kraus_example(self):
        inv = KrausChannel(2, 2, (np.diag([2.0, 0.0]),)).invariants()
        np.testing.assert_allclose(inv.identity_image, np.diag([4.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(inv.adjoint_identity_image, np.diag([4.0, 0.0]), atol=1e-12)

    def test_matches_direct_sums(self):
        phi = random_channel(3, 4, 2, 1.0, 11)
        inv = phi.invariants()
        # the pair is computed once, at construction, and handed out as is
        assert phi.invariants() is inv
        m = sum(op @ op.conj().T for op in phi.kraus)
        w = sum(op.conj().T @ op for op in phi.kraus)
        assert np.abs(inv.identity_image - m).max() <= 1e-10
        assert np.abs(inv.adjoint_identity_image - w).max() <= 1e-10

    def test_pair_is_kernel_at_identity(self):
        # Phi(I) and Phi†(I) as kraus_map gives them at the identity, with the
        # Kraus stack and with the adjoint stack E_n†, bit for bit
        shapes = [(1, 1, 1), (1, 3, 2), (3, 1, 4), (2, 2, 1), (3, 2, 2), (2, 4, 3), (4, 3, 4), (5, 5, 4)]
        base = [random_channel(*shape, 1.0, 50 + i) for i, shape in enumerate(shapes)]
        channels = base + [phi.remix(random_isometry(phi.n_kraus + 2, phi.n_kraus, 3)) for phi in base]
        channels += [KrausChannel.from_json(phi.to_json()) for phi in base]
        channels += [random_cptp_channel(3, 2, 2, 4), partial_trace_channel(2, 3)]
        for phi in channels:
            inv = phi.invariants()
            adjoint = np.swapaxes(phi.kraus, -2, -1).conj()
            image = hermitize(kraus_map(phi.kraus, np.eye(phi.d_in)))
            adjoint_image = hermitize(kraus_map(adjoint, np.eye(phi.d_out)))
            np.testing.assert_array_equal(inv.identity_image, image)
            np.testing.assert_array_equal(inv.adjoint_identity_image, adjoint_image)

    def test_psd(self):
        for seed in range(10):
            inv = random_channel(3, 2, 2, 1.0, seed).invariants()
            for op in (inv.identity_image, inv.adjoint_identity_image):
                w = hermitian_eigenvalues(op)
                assert w[-1] >= -1e-9 * max(0.0, w[0])

    def test_identity_image_is_image_of_identity(self):
        phi = random_channel(3, 2, 2, 1.0, 12)
        np.testing.assert_allclose(
            phi.apply(np.eye(3)), phi.invariants().identity_image, atol=1e-10
        )

    @pytest.mark.parametrize("read, name", [
        ("identity_image_norm", r"Phi\(I\)"),
        ("adjoint_identity_image_norm", r"Phi†\(I\)"),
    ], ids=["s", "t"])
    def test_overflowing_pair_is_named(self, read, name):
        # finite Kraus entries whose squares overflow float64: reading s or t names the
        # operator, on every read, rather than calling the matrix non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            inv = KrausChannel(2, 2, [np.array([[1e160, 0.0], [2e160, 1e160]])]).invariants()
        for _ in range(2):
            with pytest.raises(NonFinite, match=name + " overflows float64: .* supported range"):
                getattr(inv, read)

    def test_batch_read_equals_single_reads(self, monkeypatch):
        # mixed sizes, 1 x 1 among them, sizes shared within and across channels
        shapes = [(1, 1, 1), (3, 2, 2), (2, 3, 1), (3, 3, 2), (1, 4, 3), (4, 1, 2)]
        pairs = [random_channel(*shape, 1.0, 60 + i).invariants() for i, shape in enumerate(shapes)]
        singles = [random_channel(*shape, 1.0, 60 + i).invariants() for i, shape in enumerate(shapes)]
        calls = []
        real = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(a[0].shape) or real(*a, **k))
        read_invariant_norms(pairs)
        # one general SVD per distinct operator size: {1, 2, 3, 4}
        assert sorted(shape[-1] for shape in calls) == [1, 2, 3, 4]
        calls.clear()
        read_invariant_norms(pairs)
        batch = [(inv.identity_image_norm, inv.adjoint_identity_image_norm) for inv in pairs]
        assert calls == []
        for (s, t), inv in zip(batch, singles):
            assert type(s) is float and type(t) is float
            assert (s, t) == (inv.identity_image_norm, inv.adjoint_identity_image_norm)

    def test_batch_read_names_the_overflowed_operator(self):
        # one operator of each pair overflows: the squared norm of the one row, or of the
        # one column, of three entries 8e153. The first overflowed operator in pair order is
        # named, and the batch reads nothing before it
        with np.errstate(over="ignore", invalid="ignore"):
            wide = KrausChannel(3, 1, [np.full((1, 3), 8e153)]).invariants()  # Phi(I) overflows
            tall = KrausChannel(1, 3, [np.full((3, 1), 8e153)]).invariants()  # Phi†(I) overflows
        assert np.isfinite(wide.adjoint_identity_image).all() and np.isfinite(tall.identity_image).all()
        fine = random_channel(2, 2, 1, 1.0, 3).invariants()
        for pairs, name in (([fine, wide, tall], r"Phi\(I\)"), ([fine, tall, wide], r"Phi†\(I\)")):
            with pytest.raises(NonFinite, match=name + " overflows float64: .* supported range"):
                read_invariant_norms(pairs)
            assert "identity_image_norm" not in vars(fine)

    def test_batch_projectors_equal_single_reads(self, monkeypatch):
        # one eigensystem per distinct d_in, and each kept projector equals a fresh channel's
        # single read bit for bit, read-only, at Kraus scales 2^+-490 too
        shapes = [(1, 1, 1), (3, 2, 2), (2, 3, 1), (3, 3, 2), (1, 4, 3), (4, 1, 2), (3, 5, 3)]
        channels = [random_channel(*shape, 2.0 ** (490 * (i % 3 - 1)), 70 + i) for i, shape in enumerate(shapes)]
        calls = []
        real = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args: calls.append(a.shape) or real(a, *args))
        read_top_projectors([phi.invariants() for phi in channels])
        assert calls == [(2, 1, 1), (3, 3, 3), (1, 2, 2), (1, 4, 4)]
        monkeypatch.undo()
        for phi in channels:
            kept = phi.invariants().adjoint_top_projector
            assert not kept.flags.writeable
            assert np.array_equal(kept, KrausChannel(phi.d_in, phi.d_out, phi.kraus).invariants().adjoint_top_projector)
            # the trace norm's attaining input: tr Phi(P) = t
            assert np.trace(phi.apply(kept)).real == pytest.approx(phi.invariants().adjoint_identity_image_norm, rel=1e-14)

    def test_batch_projectors_name_the_overflowed_operator(self):
        # s and t are read first, so the error names the operator as their reads do
        with np.errstate(over="ignore", invalid="ignore"):
            wide = KrausChannel(3, 1, [np.full((1, 3), 8e153)]).invariants()  # Phi(I) overflows
        with pytest.raises(NonFinite, match=r"Phi\(I\) overflows float64"):
            read_top_projectors([random_channel(2, 2, 1, 1.0, 3).invariants(), wide])
        assert "adjoint_top_projector" not in vars(wide)

    @pytest.mark.parametrize("case", ["later group", "two sizes"])
    def test_stack_checks_name_the_first_overflowed_operator(self, case):
        # finiteness is checked once per size's stack, and a failed stack starts a scan in pair
        # order. "later group": the sizes' stacks are 2 x 2 (finite, its SVD taken), 3 x 3
        # (finite), then 1 x 1, which holds the overflowed Phi†(I). "two sizes": the 3 x 3 stack
        # comes first and holds an overflowed Phi†(I), but the 2 x 2 Phi(I) of the same pair
        # overflowed too, and comes first in pair order
        with np.errstate(over="ignore", invalid="ignore"):
            if case == "later group":
                pairs, name = [random_channel(2, 2, 1, 1.0, 3).invariants(),
                               KrausChannel(1, 3, [np.full((3, 1), 8e153)]).invariants()], r"Phi†\(I\)"
            else:
                pairs, name = [random_channel(2, 3, 1, 1.0, 3).invariants(),
                               KrausChannel(3, 2, [np.full((2, 3), 1e154)]).invariants()], r"Phi\(I\)"
        overflowed = [not np.isfinite(op).all() for inv in pairs
                      for op in (inv.identity_image, inv.adjoint_identity_image)]
        assert overflowed == ([False, False, False, True] if case == "later group" else [False, False, True, True])
        for read in (read_invariant_norms, read_top_projectors):
            with pytest.raises(NonFinite, match=name + " overflows float64: .* supported range"):
                read(pairs)
            for inv in pairs:
                assert not {"identity_image_norm", "adjoint_identity_image_norm", "adjoint_top_projector"} & set(vars(inv))


class TestRemix:
    def test_identity_recombination(self):
        phi = random_channel(2, 2, 2, 1.0, 5)
        mixed = phi.remix(np.eye(2))
        for a, b in zip(phi.kraus, mixed.kraus):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_swap_reorders(self):
        phi = random_channel(2, 2, 2, 1.0, 6)
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        mixed = phi.remix(swap)
        np.testing.assert_allclose(mixed.kraus[0], phi.kraus[1], atol=1e-12)
        np.testing.assert_allclose(mixed.kraus[1], phi.kraus[0], atol=1e-12)

    def test_count_increasing_preserves_channel(self):
        phi = random_channel(3, 2, 2, 1.0, 7)
        v = random_isometry(4, 2, 9)
        mixed = phi.remix(v)
        assert mixed.n_kraus == 4
        assert np.abs(mixed.choi_matrix() - phi.choi_matrix()).max() <= 1e-9
        inv, minv = phi.invariants(), mixed.invariants()
        assert np.abs(inv.identity_image - minv.identity_image).max() <= 1e-9
        assert np.abs(inv.adjoint_identity_image - minv.adjoint_identity_image).max() <= 1e-9

    def test_matches_operator_sum(self):
        # G_m = sum_n v[m, n] E_n, for an isometry that grows the set from 3 to 5
        phi = random_channel(3, 2, 3, 1.0, 13)
        v = random_isometry(5, 3, 14)
        mixed = phi.remix(v)
        assert mixed.kraus.shape == (5, 2, 3)
        for m in range(5):
            want = sum(v[m, n] * phi.kraus[n] for n in range(3))
            assert np.abs(mixed.kraus[m] - want).max() <= 1e-12

    @pytest.mark.parametrize("d_in, d_out, n_kraus, j", [
        (1, 1, 1, 0), (3, 2, 2, 490), (2, 5, 3, -490), (4, 4, 2, 17), (6, 1, 1, -200), (2, 3, 4, 300),
    ])
    def test_keeps_the_channel_at_any_scale(self, d_in, d_out, n_kraus, j):
        # isometries square and two rows taller: the Kraus set is v times the flattened
        # stack bit for bit, and the pair and Choi matrix stay the channel's to a tolerance
        # relative to their size, where an absolute one would pass anything at 2^-490
        phi = random_channel(d_in, d_out, n_kraus, 2.0**j, 31 + abs(j))
        inv = phi.invariants()
        choi = phi.choi_matrix()
        rng = np.random.default_rng(32 + abs(j))
        for rows in (n_kraus, n_kraus + 2):
            v = random_isometry(rows, n_kraus, rng)
            mixed = phi.remix(v)
            want = (v @ phi.kraus.reshape(n_kraus, -1)).reshape(rows, d_out, d_in)
            assert mixed.kraus.tobytes() == want.tobytes()
            minv = mixed.invariants()
            for a, b in ((inv.identity_image, minv.identity_image),
                         (inv.adjoint_identity_image, minv.adjoint_identity_image),
                         (choi, mixed.choi_matrix())):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(a).max()

    def test_rejects_non_isometry(self):
        phi = random_channel(2, 2, 2, 1.0, 8)
        with pytest.raises(NotIsometry):
            phi.remix(np.array([[1.0, 0.0], [1.0, 0.5]]))

    def test_rejects_wrong_columns(self):
        phi = random_channel(2, 2, 2, 1.0, 8)
        with pytest.raises(DimensionMismatch):
            phi.remix(np.eye(3))

    def test_isometry_tolerance(self):
        # columns off unit length by 1e-7 are refused, and by 1e-12 pass: the check holds
        # v† v to I within 1e-9
        phi = random_channel(3, 2, 3, 1.0, 15)
        v = random_isometry(5, 3, 16)
        with pytest.raises(NotIsometry, match="columns are not orthonormal"):
            phi.remix(v * (1 + 1e-7))
        assert phi.remix(v * (1 + 1e-12)).n_kraus == 5


class TestChoi:
    def test_identity_channel_eigenvalues(self):
        eigs = np.linalg.eigvalsh(identity_channel(2).choi_matrix())
        np.testing.assert_allclose(np.sort(eigs)[::-1], [2.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_diagonal_kraus_pattern(self):
        phi = KrausChannel(2, 2, (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        choi = phi.choi_matrix()
        np.testing.assert_allclose(choi, np.diag([1.0, 0.0, 0.0, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("d_in,d_out,n_kraus", [(2, 2, 1), (2, 3, 2), (3, 2, 2)])
    def test_matches_slow_oracle(self, d_in, d_out, n_kraus):
        phi = random_channel(d_in, d_out, n_kraus, 1.0, 21)
        np.testing.assert_allclose(phi.choi_matrix(), slow_choi(phi), atol=1e-10)

    def test_psd_across_seeds(self):
        for seed in range(1000):
            phi = random_channel(2, 2, 2, 1.0, seed)
            eigs = np.linalg.eigvalsh(phi.choi_matrix())
            assert eigs[0] >= -1e-9 * max(1.0, eigs[-1])


class TestPartialTrace:
    @pytest.mark.parametrize("d_b,d_c", [(1, 1), (1, 3), (3, 1), (2, 3), (3, 2)])
    def test_kraus_stack_is_kron(self, d_b, d_c):
        # operator c is I_b ⊗ <c|, exactly
        phi = partial_trace_channel(d_b, d_c)
        assert phi.n_kraus == d_c
        for c, op in enumerate(phi.kraus):
            np.testing.assert_array_equal(op, np.kron(np.eye(d_b), np.eye(d_c)[c : c + 1]))

    def test_identity_input(self):
        phi = partial_trace_channel(2, 2)
        np.testing.assert_allclose(phi.apply(np.eye(4)), 2.0 * np.eye(2), atol=1e-12)

    def test_kraus_count_and_shape(self):
        phi = partial_trace_channel(3, 4)
        assert phi.n_kraus == 4
        assert phi.d_in == 12 and phi.d_out == 3

    def test_product_input(self):
        rng = np.random.default_rng(31)
        y = random_hermitian(3, rng)
        z = random_hermitian(2, rng)
        phi = partial_trace_channel(3, 2)
        out = phi.apply(np.kron(y, z))
        np.testing.assert_allclose(out, y * np.trace(z).real, atol=1e-10)

    def test_matches_index_sum_oracle(self):
        rng = np.random.default_rng(32)
        phi = partial_trace_channel(2, 3)
        for _ in range(5):
            x = random_hermitian(6, rng)
            np.testing.assert_allclose(phi.apply(x), slow_partial_trace(x, 2, 3), atol=1e-10)

    def test_trivial_traced_factor(self):
        rng = np.random.default_rng(33)
        x = random_hermitian(3, rng)
        np.testing.assert_allclose(partial_trace_channel(3, 1).apply(x), x, atol=1e-12)

    def test_invariants(self):
        inv = partial_trace_channel(2, 3).invariants()
        np.testing.assert_allclose(inv.identity_image, 3.0 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(inv.adjoint_identity_image, np.eye(6), atol=1e-12)


class TestRandomChannels:
    def test_deterministic(self):
        a = random_channel(3, 2, 2, 1.0, 123)
        b = random_channel(3, 2, 2, 1.0, 123)
        for x, y in zip(a.kraus, b.kraus):
            np.testing.assert_array_equal(x, y)

    def test_one_draw_real_part_first(self):
        rng = np.random.default_rng(123)
        re, im = rng.standard_normal((2, 2, 2, 3))
        assert random_channel(3, 2, 2, 0.5, 123).kraus.tobytes() == (0.5 * (re + 1j * im)).tobytes()

    def test_scale_covariance(self):
        a = random_channel(3, 2, 2, 1.0, 9)
        b = random_channel(3, 2, 2, 2.0, 9)
        np.testing.assert_allclose(
            b.invariants().identity_image, 4.0 * a.invariants().identity_image, rtol=1e-14
        )
        np.testing.assert_allclose(
            b.invariants().adjoint_identity_image,
            4.0 * a.invariants().adjoint_identity_image,
            rtol=1e-14,
        )

    def test_cptp_trace_preserving(self):
        for d_in, d_out, n_kraus, seed in [(2, 2, 1, 0), (3, 2, 2, 1), (4, 4, 3, 2), (2, 5, 1, 3)]:
            phi = random_cptp_channel(d_in, d_out, n_kraus, seed)
            w = phi.invariants().adjoint_identity_image
            assert np.abs(w - np.eye(d_in)).max() <= 1e-10

    def test_cptp_single_unitary_kraus(self):
        phi = random_cptp_channel(2, 2, 1, 5)
        inv = phi.invariants()
        assert np.abs(inv.identity_image - np.eye(2)).max() <= 1e-10
        assert np.abs(inv.adjoint_identity_image - np.eye(2)).max() <= 1e-10

    def test_cptp_infeasible_shape(self):
        with pytest.raises(InfeasibleShape):
            random_cptp_channel(4, 1, 2, 0)

    def test_isometry_infeasible_shape(self):
        with pytest.raises(InfeasibleShape):
            random_isometry(2, 3, 0)

    @pytest.mark.parametrize("shapes", [
        [(3, 1), (1, 1), (2, 2), (4, 2), (3, 3), (5, 3)],  # no shape shared
        [(4, 2), (2, 2), (4, 2), (3, 3), (2, 2), (4, 2), (1, 1)],  # shared shapes, interleaved
    ], ids=["unshared", "shared"])
    def test_block_of_isometries_is_the_loop(self, shapes):
        # isometries drawn from one generator advance it as complex_gaussian draws of their
        # shapes do, and each has orthonormal columns
        block, loop = np.random.default_rng(8), np.random.default_rng(8)
        for rows, cols in shapes:
            q = random_isometry(rows, cols, loop)
            complex_gaussian(block, (rows, cols))
            assert q.shape == (rows, cols)
            assert np.abs(q.conj().T @ q - np.eye(cols)).max() <= 1e-12
        assert block.bit_generator.state == loop.bit_generator.state


class TestJsonInterchange:
    def test_round_trip_exact(self):
        phi = random_channel(3, 2, 2, 1.0, 77)
        again = KrausChannel.from_json(phi.to_json())
        assert again.d_in == phi.d_in and again.d_out == phi.d_out
        for a, b in zip(phi.kraus, again.kraus):
            np.testing.assert_array_equal(a, b)

    def test_numpy_integer_dimensions_round_trip(self):
        # shapes drawn with rng.integers are numpy integers; the dimensions are stored as ints
        d_in, d_out = np.int64(2), np.int32(3)
        phi = KrausChannel(d_in, d_out, random_channel(2, 3, 2, 1.0, 78).kraus)
        assert type(phi.d_in) is int and type(phi.d_out) is int
        again = KrausChannel.from_json(phi.to_json())
        assert (again.d_in, again.d_out) == (2, 3)
        np.testing.assert_array_equal(again.kraus, phi.kraus)

    def test_schema_shape(self):
        doc = json.loads(partial_trace_channel(2, 2).to_json())
        assert doc["d_in"] == 4 and doc["d_out"] == 2
        assert len(doc["kraus"]) == 2
        assert len(doc["kraus"][0]) == 2  # d_out rows
        assert len(doc["kraus"][0][0]) == 4  # d_in entries
        assert doc["kraus"][0][0][0] == [1.0, 0.0]

    def test_missing_field_named(self):
        with pytest.raises(ChannelFormatError, match="d_out"):
            KrausChannel.from_dict({"d_in": 2, "kraus": []})

    def test_bad_dimension_named(self):
        with pytest.raises(ChannelFormatError, match="d_in"):
            KrausChannel.from_dict({"d_in": "2", "d_out": 2, "kraus": []})

    def test_bad_row_count_named(self):
        doc = {"d_in": 1, "d_out": 2, "kraus": [[[[1.0, 0.0]]]]}
        with pytest.raises(ChannelFormatError, match=r"kraus\[0\]"):
            KrausChannel.from_dict(doc)

    def test_bad_entry_named(self):
        doc = {"d_in": 2, "d_out": 1, "kraus": [[[[1.0, 0.0], [0.0]]]]}
        with pytest.raises(ChannelFormatError, match=r"kraus\[0\]\[0\]\[1\]"):
            KrausChannel.from_dict(doc)

    def test_malformed_json(self):
        with pytest.raises(ChannelFormatError, match="malformed"):
            KrausChannel.from_json("{not json")

    def test_all_zero_rejected_with_field(self):
        doc = {"d_in": 1, "d_out": 1, "kraus": [[[[0.0, 0.0]]]]}
        with pytest.raises(ChannelFormatError, match="kraus"):
            KrausChannel.from_dict(doc)

    @pytest.mark.parametrize("entry", ["[1%s, 0.0]", "[0.0, -1%s]"], ids=["re", "im"])
    def test_oversized_integer_named(self, entry):
        # an integer literal beyond the float64 range is no finite entry
        text = '{"d_in": 2, "d_out": 1, "kraus": [[[[1.0, 0.0], %s]]]}' % (entry % ("0" * 400))
        with pytest.raises(ChannelFormatError, match=r"^kraus\[0\]\[0\]\[1\]: entries must be finite$"):
            KrausChannel.from_json(text)


# ==== input checks no other test reaches ====

@pytest.mark.parametrize("build, error, named", [
    (lambda: KrausChannel(0, 1, [np.ones((1, 1))]), ValueError, "d_in=0"),
    (lambda: KrausChannel.from_dict([]), ChannelFormatError, "got list"),
    (lambda: KrausChannel.from_dict({"d_in": 1, "d_out": 1, "kraus": []}), ChannelFormatError, "kraus: expected"),
    (lambda: KrausChannel.from_dict({"d_in": 2, "d_out": 1, "kraus": [[[[1.0, 0.0]]]]}), ChannelFormatError,
     "kraus[0][0]: expected 2 entries"),
    # a 1 x 10^12 matrix would need 14.6 TiB: the short row is named before anything is allocated
    (lambda: KrausChannel.from_dict({"d_in": 10**12, "d_out": 1, "kraus": [[[[1, 0]]]]}), ChannelFormatError,
     "kraus[0][0]: expected 1000000000000 entries, got 1"),
    (lambda: partial_trace_channel(0, 2), ValueError, "(0, 2)"),
    (lambda: random_channel(2, 2, 0), ValueError, "n_kraus must be >= 1, got 0"),
    (lambda: random_channel(2, 2, 1, 0.0), ValueError, "scale must be positive, got 0.0"),
    (lambda: random_cptp_channel(2, 2, 0), ValueError, "n_kraus must be >= 1, got 0"),
    (lambda: random_cptp_channel(0, 2, 1), ValueError, "d_in=0"),
], ids=["dims", "document", "empty-kraus", "row-entries", "wide-row-entries", "ptrace", "random-count", "random-scale",
        "cptp-count", "cptp-dims"])
def test_bad_input_is_named(build, error, named):
    with pytest.raises(error) as caught:
        build()
    assert caught.type is error and named in str(caught.value)
