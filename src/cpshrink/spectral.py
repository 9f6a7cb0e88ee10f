"""Dense complex matrix helpers: validation, singular values, Hermitian eigensystems.

``singular_values`` (zero-padded spectra, read by the inequality checks, the
channel's invariant norms and ``spectral_norm``/``trace_norm``) is the
package's one SVD call; Hermitian stacks take numpy's Hermitian path through
it. ``hermitian_decomposition`` (eigenpairs by descending eigenvalue, read by
the lower-bound search, whose matrices are PSD up to rounding, and by the trace
witnesses) makes the one ``eigh`` call, and ``hermitian_eigensystem`` is its
checked 2-D front. ``hermitian_eigenvalues`` (read by the Schatten-2 factor,
``ChannelInvariants.identity_image_spectrum`` and ``top_k_eigensum``, each on
one matrix) makes the one ``eigvalsh`` call; all three solvers go through one
checked call that raises a solver failure as ConvergenceFailure. ``per_shape``
is the one place that stacks a list of matrices by shape for a batched call
(the invariant norms' SVDs, the trace witnesses' eigensystems, the checks'
input validation and the Hermitian SVDs of their hermitized images and
inputs); numpy factors each matrix of a stack on its own, so each result
equals the one of a call on its matrix alone bit for bit.
``singular_values`` and ``hermitian_decomposition`` take one matrix or a
stack; ``hermitian_eigensystem`` and ``hermitian_eigenvalues`` take one
matrix. Everything is complex128 and written for small dimensions; no sparse
or structured paths.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, NonFinite, PadTooSmall

__all__ = [
    "as_complex_matrix",
    "hermitian_decomposition",
    "hermitian_eigensystem",
    "hermitian_eigenvalues",
    "hermitize",
    "per_shape",
    "random_hermitian",
    "require_hermitian",
    "singular_values",
    "spectral_norm",
    "trace_norm",
]

HERMITICITY_TOL = 1e-10


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


def require_hermitian(a, stacked: bool = False) -> np.ndarray:
    """Validate that ``a`` is square and self-adjoint, and return it as complex128.

    The accepted deviation from the adjoint is entrywise
    ``HERMITICITY_TOL * largest entry magnitude``. The tolerance is relative only,
    so ``c * a`` checks as ``a`` at any scale ``c > 0``. With
    ``stacked`` a stack ``(..., d, d)`` is accepted too, each matrix held to its
    own tolerance.
    """
    m = as_complex_matrix(a, stacked)
    if m.shape[-2] != m.shape[-1]:
        raise DimensionMismatch(f"Hermitian operator must be square, got shape {m.shape}")
    dev = np.abs(m - m.swapaxes(-2, -1).conj()).max(axis=(-2, -1))
    over = dev[dev > HERMITICITY_TOL * np.abs(m).max(axis=(-2, -1))]
    if over.size:
        raise ValueError(f"matrix is not Hermitian: adjoint deviation {over.max():.3e} exceeds tolerance")
    return m


def hermitize(a: np.ndarray) -> np.ndarray:
    """Symmetrize round-off: (a + a†) / 2, for a matrix or a stack."""
    return (a + a.swapaxes(-2, -1).conj()) / 2.0


def _linalg(name: str, *args, **kwargs):
    """``np.linalg.<name>``, looked up per call, with its LinAlgError raised as ConvergenceFailure."""
    try:
        return getattr(np.linalg, name)(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        what = "singular value decomposition failed" if name == "svd" else "eigensolver did not converge"
        raise ConvergenceFailure(f"{what}: {exc}") from exc


def per_shape(solve: Callable[[np.ndarray], Sequence], mats: Sequence[np.ndarray]) -> list:
    """``solve`` of each matrix in ``mats``, in input order, from one call per distinct shape.

    ``solve`` takes a stack ``(n, *shape)`` of the matrices that share a shape and
    returns their n results in stack order. Shapes are taken in order of first
    appearance; a shape with one matrix passes it as a stack of one without a copy.
    """
    out = [None] * len(mats)
    for shape in dict.fromkeys(m.shape for m in mats):
        members = [i for i, m in enumerate(mats) if m.shape == shape]
        stack = mats[members[0]][None] if len(members) == 1 else np.stack([mats[i] for i in members])
        for i, result in zip(members, solve(stack)):
            out[i] = result
    return out


def singular_values(m, padded_dim: int, hermitian: bool = False) -> np.ndarray:
    """Singular values of ``m``, descending, zero-padded to length ``padded_dim``.

    Parameters
    ----------
    m : array_like
        Complex matrix of any rectangular shape, or a stack ``(..., r, c)`` of
        them; the result then has shape ``(..., padded_dim)``.
    padded_dim : int
        Length of each returned spectrum. Must be at least ``min(r, c)``, the
        length of the full spectrum, otherwise PadTooSmall is raised.
    hermitian : bool
        The matrices are Hermitian: the same SVD call then takes numpy's
        Hermitian path, the eigenvalues of the lower triangle by magnitude,
        at well under the cost of the general one. They must be square, else
        DimensionMismatch is raised; symmetry is the caller's to guarantee.
    """
    mat = as_complex_matrix(m, stacked=True)
    if padded_dim < 1:
        raise ValueError(f"padded_dim must be >= 1, got {padded_dim}")
    if hermitian and mat.shape[-2] != mat.shape[-1]:
        raise DimensionMismatch(f"Hermitian operator must be square, got shape {mat.shape}")
    n = min(mat.shape[-2:])
    if padded_dim < n:
        raise PadTooSmall(f"padded_dim={padded_dim} is less than min(r, c)={n}")
    s = _linalg("svd", mat, compute_uv=False, hermitian=hermitian)
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


def hermitian_eigensystem(x) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem ``(w, v)`` of one Hermitian operator, eigenvalues descending;
    column i of ``v`` pairs with ``w[i]``.

    ``hermitian_decomposition`` of the input once ``require_hermitian`` has checked it:
    a 2-D, square, finite and self-adjoint matrix. Convergence failures from the
    underlying solver are surfaced as ConvergenceFailure, never masked.
    """
    return hermitian_decomposition(require_hermitian(x))


def hermitian_eigenvalues(x) -> np.ndarray:
    """Eigenvalues of one Hermitian operator, descending, from one values-only solve.

    The input is checked as ``require_hermitian`` checks it, so a stack raises
    DimensionMismatch, and a solver failure is surfaced as ConvergenceFailure.
    """
    return _linalg("eigvalsh", require_hermitian(x))[::-1]


def hermitian_decomposition(x) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(w, v)`` of a Hermitian matrix or of each one in a stack
    ``(..., d, d)``, eigenvalues descending; column i of ``v`` pairs with ``w[..., i]``.

    ``eigh``'s ascending order reversed and made contiguous, so ``x = v diag(w) v†``;
    on PSD input ``w`` is the descending singular spectrum up to rounding. Only the
    lower triangle is read, so the input is not checked for symmetry; it is checked
    for finiteness and squareness, and a solver failure is surfaced as
    ConvergenceFailure.
    """
    mat = as_complex_matrix(x, stacked=True)
    if mat.shape[-2] != mat.shape[-1]:
        raise DimensionMismatch(f"Hermitian operator must be square, got shape {mat.shape}")
    w, v = _linalg("eigh", mat)
    return np.ascontiguousarray(w[..., ::-1]), np.ascontiguousarray(v[..., ::-1])


def random_hermitian(dim: int, seed=0, count: int | None = None) -> np.ndarray:
    """Hermitian matrix with i.i.d. complex Gaussian entries, symmetrized.

    With a ``count`` a stack ``(count, dim, dim)`` comes from one draw. It reads
    the generator stream in the order of ``count`` single draws, so it equals
    their stack bit for bit and leaves the generator in the same state.
    """
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((1 if count is None else count, 2, dim, dim))
    x = hermitize(g[:, 0] + 1j * g[:, 1])
    return x[0] if count is None else x
