import importlib

import numpy as np
import pytest

from cpshrink.channel import random_channel
from cpshrink.errors import ConvergenceFailure, DimensionMismatch, NonFinite, PadTooSmall
from cpshrink.shrink import fan_projectors, top_k_eigensum
from cpshrink.spectral import (
    as_complex_matrix,
    hermitian_decomposition,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    hermitize,
    random_hermitian,
    require_hermitian,
    singular_values,
    spectral_norm,
    trace_norm,
)


def _gram_singulars(m):
    # independent oracle for a 2-column matrix: quadratic-formula roots of the
    # characteristic polynomial of the 2x2 Gram matrix m†m
    g = m.conj().T @ m
    tr = float(g[0, 0].real + g[1, 1].real)
    det = float((g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]).real)
    disc = max(tr * tr - 4.0 * det, 0.0)
    hi = (tr + np.sqrt(disc)) / 2.0
    lo = (tr - np.sqrt(disc)) / 2.0
    return np.array([np.sqrt(max(hi, 0.0)), np.sqrt(max(lo, 0.0))])


def _random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    return q


class TestSingularValues:
    def test_diagonal(self):
        out = singular_values(np.diag([3.0, -2.0, 1.0]), 3)
        np.testing.assert_allclose(out, [3.0, 2.0, 1.0], atol=1e-12)

    def test_zero_matrix_pads(self):
        out = singular_values(np.zeros((2, 2)), 4)
        assert out.shape == (4,)
        assert np.all(out == 0.0)

    def test_zero_matrix_cannot_truncate(self):
        # the pad must hold the full spectrum, min(r, c) values, even when they are all zero
        with pytest.raises(PadTooSmall):
            singular_values(np.zeros((2, 2)), 1)
        with pytest.raises(PadTooSmall):
            singular_values(np.zeros((3, 2, 5)), 1)
        np.testing.assert_array_equal(singular_values(np.zeros((2, 5)), 2), [0.0, 0.0])

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
            np.testing.assert_allclose(singular_values(m, 2), _gram_singulars(m), atol=1e-9)

    def test_rectangular_padding(self):
        rng = np.random.default_rng(12)
        m = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
        out = singular_values(m, 5)
        assert out.shape == (5,)
        assert np.all(out[2:] == 0.0)
        assert np.all(np.diff(out) <= 1e-12)
        # a stack of rank 2, 1 and 0 matrices matches per-matrix calls bit for bit
        u = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        stack = np.stack([m[:, :4], np.outer(u, m[0, :4]), np.zeros((2, 4))])
        out = singular_values(stack, 5)
        assert out.shape == (3, 5)
        for mat, row in zip(stack, out):
            np.testing.assert_array_equal(row, singular_values(mat, 5))

    def test_pad_too_small(self):
        with pytest.raises(PadTooSmall):
            singular_values(np.diag([3.0, 2.0, 1.0]), 2)
        # one matrix of the stack is enough
        with pytest.raises(PadTooSmall):
            singular_values(np.stack([np.diag([3.0, 0.0, 0.0]), np.diag([3.0, 2.0, 1.0])]), 2)

    def test_non_finite(self):
        bad = np.eye(2, dtype=complex)
        bad[0, 1] = np.nan
        with pytest.raises(NonFinite):
            singular_values(bad, 2)
        bad[0, 1] = np.inf
        with pytest.raises(NonFinite):
            singular_values(bad, 2)
        bad[0, 1] = np.nan
        with pytest.raises(NonFinite):
            singular_values(np.stack([np.eye(2), bad]), 2)

    def test_bad_padded_dim(self):
        with pytest.raises(ValueError):
            singular_values(np.eye(2), 0)

    def test_adjoint_shares_nonzero_values(self):
        rng = np.random.default_rng(13)
        m = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        np.testing.assert_allclose(
            singular_values(m, 4), singular_values(m.conj().T, 4), atol=1e-10
        )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(14)
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u = _random_unitary(4, rng)
        v = _random_unitary(4, rng)
        np.testing.assert_allclose(
            singular_values(u @ m @ v, 4), singular_values(m, 4), atol=1e-9
        )

    def test_hermitian_values_are_abs_eigenvalues(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            x = random_hermitian(5, rng)
            eigs = np.sort(np.abs(np.linalg.eigvalsh(x)))[::-1]
            np.testing.assert_allclose(singular_values(x, 5), eigs, atol=1e-10)


# Kraus scales c: the images then carry c**2, from 1e-300 to 1e300
KRAUS_SCALES = [1e-150, 1e-75, 1.0, 1e75, 1e150]


class TestHermitianSingularValues:
    @pytest.mark.parametrize("scale", KRAUS_SCALES)
    @pytest.mark.parametrize("d_in, d_out, n_kraus", [(3, 3, 2), (2, 4, 1), (4, 2, 3), (1, 3, 2)])
    def test_matches_the_general_svd(self, scale, d_in, d_out, n_kraus):
        # images and inputs of a check, padded to the channel's common length and not
        phi = random_channel(d_in, d_out, n_kraus, scale, 16)
        xs = random_hermitian(d_in, 17, 6)
        for mats in (phi.apply(xs), xs):
            for padded in (mats.shape[-1], max(d_in, d_out) + 1):
                fast = singular_values(mats, padded, hermitian=True)
                slow = singular_values(mats, padded)
                assert fast.shape == slow.shape == (6, padded)
                assert np.all(np.abs(fast - slow) <= 1e-13 * slow.max(axis=-1, keepdims=True))
                assert np.all(fast[:, mats.shape[-1]:] == 0.0)

    def test_one_matrix(self):
        x = random_hermitian(4, 18)
        np.testing.assert_allclose(singular_values(x, 6, hermitian=True), singular_values(x, 6), rtol=0, atol=1e-13)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch, match="square"):
            singular_values(np.ones((2, 3)), 3, hermitian=True)
        with pytest.raises(DimensionMismatch, match="square"):
            singular_values(np.ones((4, 2, 3)), 3, hermitian=True)

    def test_rejects_non_finite(self):
        bad = np.eye(3, dtype=complex)
        bad[2, 1] = bad[1, 2] = np.nan
        with pytest.raises(NonFinite):
            singular_values(bad, 3, hermitian=True)
        with pytest.raises(NonFinite):
            singular_values(np.stack([np.eye(3), bad]), 3, hermitian=True)


class TestEigensystem:
    def test_identity(self):
        values, vectors = hermitian_eigensystem(np.eye(3))
        np.testing.assert_allclose(values, np.ones(3), atol=1e-14)
        np.testing.assert_allclose(vectors @ vectors.conj().T, np.eye(3), atol=1e-12)

    def test_diagonal_order(self):
        values, _ = hermitian_eigensystem(np.diag([2.0, -5.0, 1.0]))
        np.testing.assert_allclose(values, [2.0, 1.0, -5.0], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = random_hermitian(4, rng)
            values, vectors = hermitian_eigensystem(x)
            rebuilt = (vectors * values) @ vectors.conj().T
            scale = np.linalg.norm(x)
            assert np.linalg.norm(rebuilt - x) <= 1e-9 * max(1.0, scale)
            assert np.abs(vectors.conj().T @ vectors - np.eye(4)).max() <= 1e-9
            assert abs(values.sum() - np.trace(x).real) <= 1e-10 * max(1.0, scale)

    def test_descending(self):
        rng = np.random.default_rng(22)
        values, _ = hermitian_eigensystem(random_hermitian(6, rng))
        assert np.all(np.diff(values) <= 1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            hermitian_eigensystem(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            hermitian_eigenvalues(np.zeros((2, 3)))
        # single-matrix functions refuse stacks; the channel map takes them
        stack = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        for call in (
            hermitian_eigensystem,
            hermitian_eigenvalues,
            require_hermitian,
            lambda x: top_k_eigensum(x, 1),
            lambda x: fan_projectors(x, 1),
        ):
            with pytest.raises(DimensionMismatch):
                call(stack)

    def test_eigenvalues_match_the_eigensystem(self):
        # the values-only solve gives the eigensystem's values, descending, up to rounding,
        # and checks its input as the eigensystem does
        rng = np.random.default_rng(5)
        for dim in (1, 2, 5, 9):
            x = random_hermitian(dim, rng)
            w = hermitian_eigenvalues(x)
            assert np.all(np.diff(w) <= 0.0)
            np.testing.assert_allclose(w, hermitian_eigensystem(x)[0], rtol=0, atol=1e-13 * np.abs(w).max())
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
    def test_eigenvalues_at_any_scale(self, scale):
        # the values scale with the matrix, and the input is checked as require_hermitian
        # checks it, entrywise within 1e-10 times the matrix's largest entry
        w = hermitian_eigenvalues(scale * np.diag([0.5, -1e-2, 1.0]))
        np.testing.assert_allclose(w, scale * np.array([1.0, 0.5, -1e-2]), rtol=1e-15)
        bad = scale * random_hermitian(3, 8)
        bad[0, 1] += scale
        with pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigenvalues(bad)

    def test_hermiticity_tolerance_is_relative(self):
        # the adjoint deviation is held to 1e-10 times the matrix's own largest entry, so a
        # matrix far from Hermitian is refused however small its entries, alone or as one
        # matrix of a stack, and an asymmetry at rounding level passes at any scale
        upper = np.array([[0.0, 1.0], [0.0, 0.0]])
        for scale in (1.0, 1e-20, 2.0**-490):
            for call in (require_hermitian, hermitian_eigenvalues):
                with pytest.raises(ValueError, match="not Hermitian"):
                    call(scale * upper)
        stack = np.stack([np.diag([2.0, 1.0]), 1e-20 * upper, np.eye(2)])
        with pytest.raises(ValueError, match="not Hermitian"):
            require_hermitian(stack, stacked=True)
        for j in (-490, 0, 490):
            x = random_hermitian(4, 3) * 2.0**j
            x[0, 1] *= 1 + 1e-14
            np.testing.assert_allclose(
                hermitian_eigenvalues(x), hermitian_eigenvalues(hermitize(x)), rtol=0, atol=1e-13 * np.abs(x).max()
            )
            # a Kraus Gram tr(E_m† E_n) as its product gives it, not hermitized, passes the
            # check at Kraus scales 2^+-490 too
            vecs = random_channel(3, 4, 3, 2.0**j, 7).kraus.swapaxes(1, 2).reshape(3, -1)
            require_hermitian(vecs.conj() @ vecs.T)

    def test_convergence_failure_type_exists(self):
        # eigh essentially never fails on valid input; the contract is that a
        # solver failure surfaces as this type rather than being masked
        assert issubclass(ConvergenceFailure, RuntimeError)

    def test_solver_failure_is_wrapped(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        monkeypatch.setattr(np.linalg, "svd", fail)
        eig_failure = "^eigensolver did not converge: Eigenvalues did not converge$"
        with pytest.raises(ConvergenceFailure, match=eig_failure):
            hermitian_eigensystem(np.eye(2))
        with pytest.raises(ConvergenceFailure, match=eig_failure):
            hermitian_eigenvalues(np.eye(2))
        with pytest.raises(ConvergenceFailure, match=eig_failure):
            hermitian_decomposition(np.stack([np.eye(2)] * 3))
        svd_failure = "^singular value decomposition failed: Eigenvalues did not converge$"
        with pytest.raises(ConvergenceFailure, match=svd_failure):
            singular_values(np.eye(2), 2)


def _hermitian_stack(rng, count, dim):
    # mixed scales and signs; the first matrix repeats a magnitude (+-2) and holds an exact zero
    stack = np.stack([random_hermitian(dim, rng) * 10.0**e for e in rng.integers(-3, 4, size=count)])
    stack[0] = np.diag([2.0, -2.0, 0.0, 1.0, -3.0][:dim])
    return stack


class TestHermitianDecomposition:
    def test_eigenpairs_descend_as_the_eigensystem_gives_them(self):
        # eigenvalues descend, and each matrix of a stack gives hermitian_eigensystem's (w, v)
        # bit for bit, on the first matrix's magnitude tie (+-2) and on an exact 2 I alike
        rng = np.random.default_rng(23)
        for shape, dim in (((), 4), ((6,), 5), ((2, 3), 3)):
            count = int(np.prod(shape))
            stack = _hermitian_stack(rng, count, dim)
            if count > 1:
                stack[-1] = 2.0 * np.eye(dim)
            x = stack.reshape(*shape, dim, dim)
            w, v = hermitian_decomposition(x)
            assert w.shape == x.shape[:-1] and v.shape == x.shape
            assert np.all(np.diff(w, axis=-1) <= 0.0)
            for mat, values, vectors in zip(stack, w.reshape(count, dim), v.reshape(count, dim, dim)):
                one_w, one_v = hermitian_eigensystem(mat)
                assert values.tobytes() == one_w.tobytes() and vectors.tobytes() == one_v.tobytes()
        # the search decomposes PSD matrices only, where w is the singular spectrum: ranks 1..d
        # at mixed scales, and the zero matrix
        for shape, dim in (((), 4), ((6,), 5), ((2, 3), 3)):
            count = int(np.prod(shape))
            a = rng.standard_normal((count, dim, dim)) + 1j * rng.standard_normal((count, dim, dim))
            # columns beyond each matrix's rank are zero
            ranks, scales = rng.integers(1, dim + 1, size=(count, 1, 1)), 10.0 ** rng.integers(-3, 4, size=(count, 1, 1))
            a *= (np.arange(dim) < ranks) * scales
            if count > 1:
                a[-1] = 0.0
            x = (a @ a.conj().swapaxes(-2, -1)).reshape(*shape, dim, dim)
            w, _ = hermitian_decomposition(x)
            sv = singular_values(x, dim, hermitian=True)
            assert np.all(np.abs(w - sv) <= 1e-12 * sv[..., :1])

    def test_rebuilds_each_matrix_of_a_stack(self):
        rng = np.random.default_rng(24)
        x = _hermitian_stack(rng, 8, 5).reshape(2, 4, 5, 5)
        w, v = hermitian_decomposition(x)
        rebuilt = (v * w[..., None, :]) @ np.swapaxes(v, -2, -1).conj()
        for mat, back, vecs in zip(x.reshape(-1, 5, 5), rebuilt.reshape(-1, 5, 5), v.reshape(-1, 5, 5)):
            assert np.abs(back - mat).max() <= 1e-12 * np.abs(mat).max()
            assert np.abs(vecs.conj().T @ vecs - np.eye(5)).max() <= 1e-12

    def test_input_checks(self):
        bad = np.stack([np.eye(3, dtype=complex)] * 4)
        bad[2, 1, 0] = np.nan
        with pytest.raises(NonFinite):
            hermitian_decomposition(bad)
        bad[2, 1, 0] = np.inf
        with pytest.raises(NonFinite):
            hermitian_decomposition(bad)
        with pytest.raises(DimensionMismatch):
            hermitian_decomposition(np.zeros((2, 2, 3)))
        # the eigensystem is the decomposition's 2-D front: require_hermitian refuses a stack
        with pytest.raises(DimensionMismatch):
            hermitian_eigensystem(np.stack([np.eye(3)] * 2))


class TestHelpers:
    def test_spectral_and_trace_norms(self):
        x = np.diag([2.0, -5.0, 1.0])
        assert spectral_norm(x) == pytest.approx(5.0, abs=1e-12)
        assert trace_norm(x) == pytest.approx(8.0, abs=1e-12)

    def test_random_hermitian_is_hermitian_and_seeded(self):
        a = random_hermitian(4, 7)
        b = random_hermitian(4, 7)
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - a.conj().T).max() == 0.0

    @pytest.mark.parametrize("dim", [1, 2, 5])
    @pytest.mark.parametrize("count", [0, 1, 20])
    def test_random_hermitian_count_is_the_loop_in_one_draw(self, dim, count):
        one, loop = np.random.default_rng(9), np.random.default_rng(9)
        stack = random_hermitian(dim, one, count)
        singles = [random_hermitian(dim, loop) for _ in range(count)]
        assert stack.shape == (count, dim, dim) and stack.dtype == np.complex128
        assert stack.tobytes() == np.array(singles, dtype=np.complex128).tobytes()
        # the generator is left where the loop leaves it
        assert one.bit_generator.state == loop.bit_generator.state
        assert one.standard_normal() == loop.standard_normal()


def test_empty_matrix_is_named():
    with pytest.raises(DimensionMismatch, match=r"positive, got \(0, 3\)$"):
        as_complex_matrix(np.zeros((0, 3)))


@pytest.mark.parametrize("module", [
    "cpshrink", "cpshrink.channel", "cpshrink.gauge", "cpshrink.shrink", "cpshrink.spectral",
])
def test_every_exported_name_resolves(module):
    # a name left in __all__ after its definition went would break `from module import *`
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)
