"""Completely positive maps in Kraus form.

A channel maps Hermitian operators on a d_in-dimensional space to Hermitian
operators on a d_out-dimensional space through x -> sum_n E_n x E_n†. Channels
here are not required to be trace preserving; the trace-preserving constructor
is provided separately.

A channel holds its Kraus set as one read-only stack. Its invariant pair (built
once, at construction), ``remix`` and ``choi_matrix`` are each one matrix product
over the whole stack, written where it is used; ``kraus_map`` is the map itself,
shared by ``apply``, the search and the checks.

The JSON interchange format is::

    {"d_in": int, "d_out": int, "kraus": [op, ...]}

where each op is a list of d_out rows, each row a list of d_in entries, and
each entry a two-element [re, im] list.
"""

from __future__ import annotations

import json
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ChannelFormatError,
    DimensionMismatch,
    InfeasibleShape,
    NonFinite,
    NotIsometry,
)
from .spectral import (
    as_complex_matrix, hermitian_decomposition, hermitian_eigenvalues, hermitize, per_shape, require_hermitian,
    singular_values,
)

__all__ = [
    "ChannelInvariants",
    "KrausChannel",
    "complex_gaussian",
    "identity_channel",
    "kraus_map",
    "partial_trace_channel",
    "random_channel",
    "random_cptp_channel",
    "random_isometry",
    "read_invariant_norms",
    "read_top_projectors",
]

ISOMETRY_TOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only and return it."""
    a.setflags(write=False)
    return a


def kraus_map(ops: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_n E_n x E_n†`` for a Kraus stack ``ops`` and ``x`` of shape ``(..., d_in, d_in)``.

    The package's one implementation of the map; it does no validation. Two
    batched matmuls, each over the whole Kraus set: ``x [E_1† ... E_K†]``, its
    K blocks stacked into rows, then ``[E_1 ... E_K]`` times that.
    """
    n_kraus, d_out, d_in = ops.shape
    right = ops.conj().transpose(2, 0, 1).reshape(d_in, n_kraus * d_out)
    left = ops.transpose(1, 0, 2).reshape(d_out, n_kraus * d_in)
    blocks = (x @ right).reshape(*x.shape[:-1], n_kraus, d_out)
    return left @ blocks.swapaxes(-3, -2).reshape(*x.shape[:-2], n_kraus * d_in, d_out)


@dataclass(frozen=True, eq=False)
class ChannelInvariants:
    """Operator pair unchanged under isometric recombination of the Kraus set.

    ``identity_image`` is the channel applied to the identity (lives on the
    output space); ``adjoint_identity_image`` is the adjoint map applied to the
    identity (lives on the input space). Both are positive semidefinite.

    The spectral data every shrinking factor reads is derived from the pair here
    and nowhere else, each on first read and then kept: ``s = ||Phi(I)||_inf``,
    ``t = ||Phi†(I)||_inf``, the trace witness and the eigenvalues of ``Phi(I)``,
    whose partial sums are its Ky Fan norms. ``read_invariant_norms``
    reads ``s`` and ``t`` of many pairs at once and keeps them where these reads
    keep them. A failed solver call is raised and not kept, so the next read
    tries again. An operator of the pair that overflowed float64 (Kraus entries
    far beyond 1e150) raises NonFinite, naming it, when ``s`` or ``t`` is read.
    """

    identity_image: np.ndarray
    adjoint_identity_image: np.ndarray

    @cached_property
    def identity_image_norm(self) -> float:
        """``s``: the spectral-norm factor, and the largest eigenvalue of ``Phi(I)``."""
        return _invariant_norms([(self.identity_image, "Phi(I)")])[0]

    @cached_property
    def adjoint_identity_image_norm(self) -> float:
        """``t``: the trace-norm factor, and the largest eigenvalue of ``Phi†(I)``."""
        return _invariant_norms([(self.adjoint_identity_image, "Phi†(I)")])[0]

    @cached_property
    def adjoint_top_projector(self) -> np.ndarray:
        """Read-only rank-1 projector onto the first listed top eigenvector of ``Phi†(I)``,
        as ``read_top_projectors`` reads it."""
        return read_top_projectors([self])[0]

    @cached_property
    def identity_image_spectrum(self) -> np.ndarray:
        """Read-only eigenvalues of ``Phi(I)``, descending, from one values-only solve: the sum
        of the first ``k`` is ``||Phi(I)||_(k)``, as ``shrink.top_k_eigensum`` computes it."""
        return _frozen(hermitian_eigenvalues(self.identity_image))


def _invariant_norms(ops: Sequence[tuple[np.ndarray, str]]) -> list[float]:
    """Spectral norms of operators of invariant pairs, given with their names.

    One general SVD per distinct size (``per_shape`` over ``singular_values``), so
    a value does not depend on the others. Each size's stack is checked for finiteness
    once, before its SVD; a stack that overflowed float64 starts a scan of all the
    operators in the given order, and the first that overflowed raises NonFinite
    naming it, whichever stack found it.
    """
    def tops(stack: np.ndarray) -> np.ndarray:
        if not np.isfinite(stack).all():
            name = next(name for op, name in ops if not np.isfinite(op).all())
            raise NonFinite(f"{name} overflows float64: Kraus entries beyond the supported range 1e-150..1e150")
        return singular_values(stack, stack.shape[-1])[:, 0]

    return [float(top) for top in per_shape(tops, [op for op, _ in ops])]


# each norm of the pair: the cached property that keeps it, its operator, the operator's name
_PAIR_NORMS = (
    ("identity_image_norm", "identity_image", "Phi(I)"),
    ("adjoint_identity_image_norm", "adjoint_identity_image", "Phi†(I)"),
)


def read_invariant_norms(pairs: Sequence[ChannelInvariants]) -> None:
    """Read ``s`` and ``t`` of every pair at once, kept where the pairs' own reads keep them.

    The operators not read yet take one general SVD per distinct size, as a
    single read takes one, so each value equals its single read bit for bit and
    a later read recomputes nothing. The first operator that overflowed, in pair
    order with ``Phi(I)`` before ``Phi†(I)``, raises the NonFinite that names it.
    A solver failure is raised, and nothing is kept.
    """
    unread = [(inv, attr, getattr(inv, op), name) for inv in pairs for attr, op, name in _PAIR_NORMS
              if attr not in vars(inv)]
    for (inv, attr, _, _), value in zip(unread, _invariant_norms([(op, name) for _, _, op, name in unread])):
        vars(inv)[attr] = value


def read_top_projectors(pairs: Sequence[ChannelInvariants]) -> list[np.ndarray]:
    """``adjoint_top_projector`` of every pair, read at once and kept where its own read
    keeps it; a pair that holds one already keeps it.

    ``read_invariant_norms`` reads ``s`` and ``t`` first, so an overflowed pair raises the
    NonFinite that names it. Then each distinct size of ``Phi†(I)`` takes one eigensystem
    and one product ``hermitize(v v†)`` of its top eigenvectors ``v``, each entry of which
    is one product, so each pair's projector equals a read of that pair alone bit for bit.
    A pair keeps a read-only copy of its projector, not a view of its size's stack.
    """
    def projectors(m: np.ndarray) -> np.ndarray:
        v = hermitian_decomposition(m)[1][..., :1]
        return hermitize(v @ v.conj().swapaxes(-2, -1))

    read_invariant_norms(pairs)
    tops = per_shape(projectors, [inv.adjoint_identity_image for inv in pairs])
    return [vars(inv).setdefault("adjoint_top_projector", _frozen(p.copy())) for inv, p in zip(pairs, tops)]


def _kraus_stack(kraus, d_out: int, d_in: int) -> np.ndarray:
    """A fresh complex128 stack ``(n, d_out, d_in)`` of the validated Kraus set.

    One path for an array and a sequence of operators alike: the shapes are
    checked once (an array's ``shape[1:]``, each operator's only when that does
    not match), the set is converted once, copied, and checked for emptiness and
    finiteness in one call each. Every error about an operator names it as
    ``kraus[i]``: DimensionMismatch for a wrong shape or ndim, NonFinite for NaN
    or Inf entries.
    """
    if getattr(kraus, "shape", ())[1:] != (d_out, d_in):
        kraus = list(kraus)  # any iterable of operators, read once
        for i, op in enumerate(kraus):
            if np.shape(op) != (d_out, d_in):
                raise DimensionMismatch(f"kraus[{i}] has shape {np.shape(op)}, expected ({d_out}, {d_in})")
    stack = np.array(kraus, dtype=np.complex128)
    if not len(stack):
        raise ValueError("at least one Kraus operator is required")
    if not np.isfinite(stack).all():
        i = np.argmin(np.isfinite(stack).all(axis=(1, 2)))
        raise NonFinite(f"kraus[{i}] contains NaN or Inf entries")
    return stack


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Completely positive map given by a list of Kraus operators.

    Parameters
    ----------
    d_in, d_out : int
        Input and output space dimensions; any integer type (numpy integers
        included), stored as Python ints.
    kraus : sequence of array_like, or array_like of shape (n, d_out, d_in)
        Operators of shape ``(d_out, d_in)``, finite. Individual zero operators
        are allowed, but at least one operator must be nonzero. An operator of
        the wrong shape or with NaN or Inf entries is named as ``kraus[i]`` in
        the error, whichever form the set comes in.

    ``kraus`` is stored as one read-only complex128 copy of shape
    ``(n_kraus, d_out, d_in)``, and the invariant pair is computed from it once,
    at construction; treat a channel as immutable. Channels, like the other
    records that hold arrays, compare and hash by identity.
    """

    d_in: int
    d_out: int
    kraus: np.ndarray
    _invariants: ChannelInvariants = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "d_in", operator.index(self.d_in))
        object.__setattr__(self, "d_out", operator.index(self.d_out))
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError(f"dimensions must be positive, got d_in={self.d_in} d_out={self.d_out}")
        stack = _frozen(_kraus_stack(self.kraus, self.d_out, self.d_in))
        if not stack.any():
            raise ValueError("Kraus set must contain at least one nonzero operator")
        # Phi(I) = L L† with L = [E_1 ... E_K], and Phi†(I) = R† R with R the E_n stacked into rows
        left = stack.transpose(1, 0, 2).reshape(self.d_out, -1)
        right = stack.reshape(-1, self.d_in)
        image, adjoint_image = hermitize(left @ left.conj().T), hermitize(right.conj().T @ right)
        inv = ChannelInvariants(_frozen(image), _frozen(adjoint_image))
        object.__setattr__(self, "kraus", stack)
        object.__setattr__(self, "_invariants", inv)

    @property
    def n_kraus(self) -> int:
        return len(self.kraus)

    def apply(self, x) -> np.ndarray:
        """Image of a Hermitian operator, or of each one in a stack ``(..., d_in, d_in)``."""
        mat = require_hermitian(x, stacked=True)
        if mat.shape[-1] != self.d_in:
            raise DimensionMismatch(f"input has dimension {mat.shape[-1]}, channel expects {self.d_in}")
        return hermitize(kraus_map(self.kraus, mat))

    def invariants(self) -> ChannelInvariants:
        """The invariant operator pair (Phi(I), Phi†(I)), computed at construction."""
        return self._invariants

    def remix(self, v) -> "KrausChannel":
        """Equivalent channel with Kraus set ``G_m = sum_n v[m, n] E_n``.

        ``v`` must have as many columns as there are Kraus operators (else
        DimensionMismatch), orthonormal: ``v† v = I`` within ``ISOMETRY_TOL``
        (else NotIsometry). Extra rows grow the set. One product of ``v`` with the
        flattened stack.
        """
        mat = as_complex_matrix(v)
        rows, cols = mat.shape
        if cols != self.n_kraus:
            raise DimensionMismatch(
                f"recombination matrix has {cols} columns, channel has {self.n_kraus} Kraus operators"
            )
        dev = float(np.abs(mat.conj().T @ mat - np.eye(cols)).max())
        if dev > ISOMETRY_TOL:
            raise NotIsometry(f"columns are not orthonormal: deviation {dev:.3e}")
        mixed = mat @ self.kraus.reshape(cols, -1)
        return KrausChannel(self.d_in, self.d_out, mixed.reshape(rows, self.d_out, self.d_in))

    def choi_matrix(self) -> np.ndarray:
        """Block matrix of basis-unit images, row-block index = input basis index.

        Dimension is ``d_in * d_out``; the result is positive semidefinite
        exactly because the map is completely positive. ``V^T conj(V)``, hermitized,
        with ``V`` the vectorized operators: row ``n`` holds ``E_n[a, i]`` at ``i * d_out + a``.
        """
        vecs = self.kraus.swapaxes(1, 2).reshape(self.n_kraus, -1)
        return hermitize(vecs.T @ vecs.conj())

    def to_dict(self) -> dict:
        """Channel as a JSON-ready dict in the interchange schema."""
        return {
            "d_in": self.d_in,
            "d_out": self.d_out,
            "kraus": [matrix_to_entries(op) for op in self.kraus],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, doc) -> "KrausChannel":
        """Parse the interchange schema; errors name the offending field."""
        if not isinstance(doc, dict):
            raise ChannelFormatError(f"channel document must be an object, got {type(doc).__name__}")
        for key in ("d_in", "d_out", "kraus"):
            if key not in doc:
                raise ChannelFormatError(f"{key}: missing required field")
        d_in = _require_positive_int(doc["d_in"], "d_in")
        d_out = _require_positive_int(doc["d_out"], "d_out")
        raw = doc["kraus"]
        if not isinstance(raw, list) or not raw:
            raise ChannelFormatError("kraus: expected a nonempty list of operators")
        ops = [entries_to_matrix(op, d_out, d_in, field=f"kraus[{n}]") for n, op in enumerate(raw)]
        try:
            return cls(d_in, d_out, ops)
        except (ValueError, DimensionMismatch) as exc:
            raise ChannelFormatError(f"kraus: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "KrausChannel":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ChannelFormatError(f"malformed JSON: {exc}") from exc
        return cls.from_dict(doc)


def matrix_to_entries(mat: np.ndarray) -> list:
    """Matrix as nested rows of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def entries_to_matrix(raw, rows: int, cols: int, field: str) -> np.ndarray:
    """Parse nested [re, im] rows into a (rows, cols) complex matrix.

    Every row and entry is checked before the matrix is allocated, so rows that disagree
    with the stated dimensions fail on the first bad one, whatever size those state."""
    if not isinstance(raw, list) or len(raw) != rows:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ChannelFormatError(f"{field}: expected {rows} rows, got {got}")
    values = []
    for r, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != cols:
            got = len(row) if isinstance(row, list) else type(row).__name__
            raise ChannelFormatError(f"{field}[{r}]: expected {cols} entries, got {got}")
        for c, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(part, (int, float)) and not isinstance(part, bool) for part in entry)
            ):
                raise ChannelFormatError(f"{field}[{r}][{c}]: expected a [re, im] number pair")
            try:
                re, im = float(entry[0]), float(entry[1])
            except OverflowError:  # an integer literal beyond the float64 range
                re = im = np.inf
            if not (np.isfinite(re) and np.isfinite(im)):
                raise ChannelFormatError(f"{field}[{r}][{c}]: entries must be finite")
            values.append(re + 1j * im)
    return np.array(values, dtype=np.complex128).reshape(rows, cols)


def _require_positive_int(value, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ChannelFormatError(f"{field}: expected a positive integer, got {value!r}")
    return value


def identity_channel(dim: int) -> KrausChannel:
    """The identity map on a dim-dimensional space."""
    return KrausChannel(dim, dim, (np.eye(dim, dtype=np.complex128),))


def partial_trace_channel(d_b: int, d_c: int) -> KrausChannel:
    """Channel tracing out the trailing tensor factor of a (d_b * d_c)-space.

    The input space is ordered with the kept factor first, so basis index
    ``b * d_c + c`` pairs subsystem states; the Kraus operators are the
    d_c projections onto the traced factor's basis states.
    """
    if d_b < 1 or d_c < 1:
        raise ValueError(f"subsystem dimensions must be positive, got ({d_b}, {d_c})")
    # the stack of I_b ⊗ <c|, one bra <c| per row of eye(d_c)
    ops = np.kron(np.eye(d_b), np.eye(d_c)[:, None, :])
    return KrausChannel(d_b * d_c, d_b, ops)


def random_channel(d_in: int, d_out: int, n_kraus: int, scale: float = 1.0, seed=0) -> KrausChannel:
    """Channel with i.i.d. complex Gaussian Kraus entries times ``scale``.

    Deterministic for a fixed seed, drawn once. Scaling the entries by c
    multiplies both invariant operators by c**2.
    """
    if n_kraus < 1:
        raise ValueError(f"n_kraus must be >= 1, got {n_kraus}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    ops = complex_gaussian(np.random.default_rng(seed), (n_kraus, d_out, d_in))
    return KrausChannel(d_in, d_out, scale * ops)


def random_cptp_channel(d_in: int, d_out: int, n_kraus: int, seed=0) -> KrausChannel:
    """Trace-preserving channel from a random isometry sliced into Kraus blocks.

    Requires ``n_kraus * d_out >= d_in``; the stacked Kraus matrix then has
    orthonormal columns, which is exactly the trace-preservation condition.
    """
    if n_kraus < 1:
        raise ValueError(f"n_kraus must be >= 1, got {n_kraus}")
    if d_in < 1 or d_out < 1:
        raise ValueError(f"dimensions must be positive, got d_in={d_in} d_out={d_out}")
    if n_kraus * d_out < d_in:
        raise InfeasibleShape(
            f"n_kraus * d_out = {n_kraus * d_out} < d_in = {d_in}: no isometry exists"
        )
    q = random_isometry(n_kraus * d_out, d_in, seed)
    return KrausChannel(d_in, d_out, q.reshape(n_kraus, d_out, d_in))


def random_isometry(rows: int, cols: int, seed=0) -> np.ndarray:
    """Matrix with orthonormal columns from the QR of a complex Gaussian draw.

    ``seed`` may be a ``np.random.Generator``, which the draw advances as
    ``complex_gaussian`` of shape ``(rows, cols)`` advances it.
    """
    if rows < cols:
        raise InfeasibleShape(f"an isometry needs rows >= cols, got {rows} x {cols}")
    return np.linalg.qr(complex_gaussian(np.random.default_rng(seed), (rows, cols)))[0]


def complex_gaussian(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """I.i.d. complex Gaussian entries: one draw of the real parts, then one of the imaginary."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

