"""Dense complex matrix helpers: validation, singular values, Hermitian eigensystems.

``singular_values`` is the package's single SVD entry point: every spectrum,
norm and inequality check reads the zero-padded singular values it returns,
for one matrix or a stack. Everything operates on complex128 arrays and is
written for small dimensions (up to ~16); no sparse or structured paths.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NonFinite, PadTooSmall

__all__ = [
    "EigenSystem",
    "as_complex_matrix",
    "as_rng",
    "hermitian_basis",
    "hermitian_eigensystem",
    "hermitize",
    "is_psd",
    "random_hermitian",
    "require_hermitian",
    "singular_values",
    "spectral_norm",
    "trace_norm",
]

HERMITICITY_TOL = 1e-10
PSD_TOL = 1e-9


def as_rng(seed) -> np.random.Generator:
    """Pass through a Generator, otherwise seed a fresh one."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def as_complex_matrix(a, stacked: bool = False) -> np.ndarray:
    """Return ``a`` as a finite 2-D complex128 array with positive dimensions.

    With ``stacked`` a stack ``(..., r, c)`` of such matrices is accepted too.
    """
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 and not (stacked and m.ndim > 2):
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if m.shape[-2] < 1 or m.shape[-1] < 1:
        raise DimensionMismatch(f"matrix dimensions must be positive, got {m.shape}")
    if not np.isfinite(m).all():
        raise NonFinite("matrix contains NaN or Inf entries")
    return m


def require_hermitian(a, tol_scale: float = HERMITICITY_TOL, stacked: bool = False) -> np.ndarray:
    """Validate that ``a`` is square and self-adjoint, and return it as complex128.

    The accepted deviation from the adjoint is entrywise
    ``tol_scale * max(1, largest entry magnitude)``. With ``stacked`` a stack
    ``(..., d, d)`` is accepted too, each matrix held to its own tolerance.
    """
    m = as_complex_matrix(a, stacked)
    if m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch(f"Hermitian operator must be square, got shape {m.shape}")
    dev = np.abs(m - np.swapaxes(m, -2, -1).conj()).max(axis=(-2, -1))
    over = dev[dev > tol_scale * np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))]
    if over.size:
        raise ValueError(f"matrix is not Hermitian: adjoint deviation {over.max():.3e} exceeds tolerance")
    return m


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize round-off: (a + a†) / 2, for a matrix or a stack."""
    return (a + np.swapaxes(a, -2, -1).conj()) / 2.0


def singular_values(m, padded_dim: int) -> np.ndarray:
    """Singular values of ``m``, descending, zero-padded to length ``padded_dim``.

    Parameters
    ----------
    m : array_like
        Complex matrix of any rectangular shape, or a stack ``(..., r, c)`` of
        them; the result then has shape ``(..., padded_dim)``.
    padded_dim : int
        Length of each returned spectrum. Must be at least the number of
        nonzero singular values of every matrix, otherwise PadTooSmall is raised.
    """
    mat = as_complex_matrix(m, stacked=True)
    if padded_dim < 1:
        raise ValueError(f"padded_dim must be >= 1, got {padded_dim}")
    try:
        s = np.linalg.svd(mat, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"singular value decomposition failed: {exc}") from exc
    n = s.shape[-1]
    if n > padded_dim:
        # rank detection threshold in the style of numpy's matrix_rank default
        tol = max(mat.shape[-2:]) * np.finfo(np.float64).eps * s[..., :1]
        nonzero = int(np.count_nonzero(s > tol, axis=-1).max())
        if padded_dim < nonzero:
            raise PadTooSmall(
                f"padded_dim={padded_dim} is less than the {nonzero} nonzero singular values"
            )
        return s[..., :padded_dim]
    if n == padded_dim:
        return s
    out = np.zeros(s.shape[:-1] + (padded_dim,))
    out[..., :n] = s
    return out


def _unpadded(m) -> np.ndarray:
    # the full spectrum of one matrix: min(r, c) values, no padding
    mat = as_complex_matrix(m)
    return singular_values(mat, min(mat.shape))


def spectral_norm(m) -> float:
    """Largest singular value."""
    return float(_unpadded(m)[0])


def trace_norm(m) -> float:
    """Sum of all singular values."""
    return float(_unpadded(m).sum())


class EigenSystem(NamedTuple):
    """Eigenvalues in descending order; column i of ``vectors`` pairs with ``values[i]``."""

    values: np.ndarray
    vectors: np.ndarray


def hermitian_eigensystem(x) -> EigenSystem:
    """Full eigensystem of a Hermitian operator, eigenvalues descending.

    Convergence failures from the underlying solver are surfaced as
    ConvergenceFailure, never masked.
    """
    mat = require_hermitian(x)
    try:
        w, v = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    return EigenSystem(np.ascontiguousarray(w[::-1]), np.ascontiguousarray(v[:, ::-1]))


def is_psd(x, tol_scale: float = PSD_TOL) -> bool:
    """Positive semidefinite up to ``-tol_scale * max(1, largest eigenvalue)``."""
    mat = require_hermitian(x)
    try:
        w = np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver did not converge: {exc}") from exc
    return bool(w[0] >= -tol_scale * max(1.0, float(w[-1])))


def hermitian_basis(dim: int) -> np.ndarray:
    """Orthonormal basis (Frobenius inner product) of dim x dim Hermitian matrices.

    Ordered as the ``dim`` diagonal units followed by the symmetric and
    antisymmetric pair combinations; shape ``(dim*dim, dim, dim)``.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    out = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
    n = 0
    for i in range(dim):
        out[n, i, i] = 1.0
        n += 1
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for i in range(dim):
        for j in range(i + 1, dim):
            out[n, i, j] = inv_sqrt2
            out[n, j, i] = inv_sqrt2
            n += 1
            out[n, i, j] = -1j * inv_sqrt2
            out[n, j, i] = 1j * inv_sqrt2
            n += 1
    return out


def random_hermitian(dim: int, seed=0) -> np.ndarray:
    """Hermitian matrix with i.i.d. complex Gaussian entries, symmetrized."""
    rng = as_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitize(a)
