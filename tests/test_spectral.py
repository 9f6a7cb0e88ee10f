import numpy as np
import pytest

from cpshrink.errors import ConvergenceFailure, DimensionMismatch, NonFinite, PadTooSmall
from cpshrink.shrink import fan_projectors, top_k_eigensum
from cpshrink.spectral import (
    hermitian_basis,
    hermitian_eigensystem,
    is_psd,
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

    def test_zero_matrix_can_truncate(self):
        # truncation is fine as long as only zeros are dropped
        out = singular_values(np.zeros((2, 2)), 1)
        np.testing.assert_array_equal(out, [0.0])

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
        # single-matrix functions refuse stacks; only the channel map takes them
        stack = np.stack([np.eye(2), np.diag([1.0, -1.0])])
        for call in (
            hermitian_eigensystem,
            is_psd,
            require_hermitian,
            lambda x: top_k_eigensum(x, 1),
            lambda x: fan_projectors(x, 1),
        ):
            with pytest.raises(DimensionMismatch):
                call(stack)
        with pytest.raises(DimensionMismatch):
            is_psd(np.ones((2, 1, 1)))

    def test_convergence_failure_type_exists(self):
        # eigh essentially never fails on valid input; the contract is that a
        # solver failure surfaces as this type rather than being masked
        assert issubclass(ConvergenceFailure, RuntimeError)

    def test_solver_failure_is_wrapped(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceFailure):
            hermitian_eigensystem(np.eye(2))
        with pytest.raises(ConvergenceFailure):
            is_psd(np.eye(2))


class TestHelpers:
    def test_spectral_and_trace_norms(self):
        x = np.diag([2.0, -5.0, 1.0])
        assert spectral_norm(x) == pytest.approx(5.0, abs=1e-12)
        assert trace_norm(x) == pytest.approx(8.0, abs=1e-12)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_hermitian_basis_orthonormal(self, dim):
        basis = hermitian_basis(dim)
        assert basis.shape == (dim * dim, dim, dim)
        for i, b in enumerate(basis):
            assert np.abs(b - b.conj().T).max() == 0.0
            for j in range(i, dim * dim):
                inner = np.trace(b.conj().T @ basis[j]).real
                expect = 1.0 if i == j else 0.0
                assert abs(inner - expect) <= 1e-12

    def test_random_hermitian_is_hermitian_and_seeded(self):
        a = random_hermitian(4, 7)
        b = random_hermitian(4, 7)
        np.testing.assert_array_equal(a, b)
        assert np.abs(a - a.conj().T).max() == 0.0
