"""Completely positive maps in Kraus form.

A channel maps Hermitian operators on a d_in-dimensional space to Hermitian
operators on a d_out-dimensional space through x -> sum_n E_n x E_n†. Channels
here are not required to be trace preserving; the trace-preserving constructor
is provided separately.

The JSON interchange format is::

    {"d_in": int, "d_out": int, "kraus": [op, ...]}

where each op is a list of d_out rows, each row a list of d_in entries, and
each entry a two-element [re, im] list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ChannelFormatError,
    DimensionMismatch,
    InfeasibleShape,
    NotIsometry,
)
from .spectral import as_complex_matrix, as_rng, hermitize, require_hermitian

__all__ = [
    "ChannelInvariants",
    "KrausChannel",
    "identity_channel",
    "kraus_map",
    "partial_trace_channel",
    "random_channel",
    "random_cptp_channel",
    "random_isometry",
]

ISOMETRY_TOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    """Mark a freshly built array read-only and return it."""
    a.setflags(write=False)
    return a


def kraus_map(ops: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_n E_n x E_n†`` for a Kraus stack ``ops`` and ``x`` of shape ``(..., d_in, d_in)``.

    The package's one implementation of the map; it does no validation.
    """
    return np.einsum("kab,...bc,kdc->...ad", ops, x, ops.conj())


@dataclass(frozen=True)
class ChannelInvariants:
    """Operator pair unchanged under isometric recombination of the Kraus set.

    ``identity_image`` is the channel applied to the identity (lives on the
    output space); ``adjoint_identity_image`` is the adjoint map applied to the
    identity (lives on the input space). Both are positive semidefinite.
    """

    identity_image: np.ndarray
    adjoint_identity_image: np.ndarray


@dataclass(frozen=True)
class KrausChannel:
    """Completely positive map given by a list of Kraus operators.

    Parameters
    ----------
    d_in, d_out : int
        Input and output space dimensions.
    kraus : sequence of array_like, or array_like of shape (n, d_out, d_in)
        Operators of shape ``(d_out, d_in)``. Individual zero operators are
        allowed, but at least one operator must be nonzero.

    ``kraus`` is stored as one read-only complex128 copy of shape
    ``(n_kraus, d_out, d_in)``, and the invariant pair is computed from it once,
    at construction; treat a channel as immutable.
    """

    d_in: int
    d_out: int
    kraus: np.ndarray
    _invariants: ChannelInvariants = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError(f"dimensions must be positive, got d_in={self.d_in} d_out={self.d_out}")
        ops = []
        for idx, op in enumerate(self.kraus):
            mat = as_complex_matrix(op)
            if mat.shape != (self.d_out, self.d_in):
                raise DimensionMismatch(
                    f"kraus[{idx}] has shape {mat.shape}, expected ({self.d_out}, {self.d_in})"
                )
            ops.append(mat)
        if not ops:
            raise ValueError("at least one Kraus operator is required")
        stack = _frozen(np.stack(ops))
        if not stack.any():
            raise ValueError("Kraus set must contain at least one nonzero operator")
        m = np.zeros((self.d_out, self.d_out), dtype=np.complex128)
        w = np.zeros((self.d_in, self.d_in), dtype=np.complex128)
        for op in stack:
            m += op @ op.conj().T
            w += op.conj().T @ op
        inv = ChannelInvariants(_frozen(hermitize(m)), _frozen(hermitize(w)))
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

        ``v`` must have orthonormal columns (``v† v = I`` within 1e-9) and as
        many columns as there are Kraus operators; extra rows grow the set.
        """
        vm = as_complex_matrix(v)
        rows, cols = vm.shape
        if cols != self.n_kraus:
            raise DimensionMismatch(
                f"recombination matrix has {cols} columns, channel has {self.n_kraus} Kraus operators"
            )
        dev = float(np.abs(vm.conj().T @ vm - np.eye(cols)).max())
        if dev > ISOMETRY_TOL:
            raise NotIsometry(f"columns are not orthonormal: deviation {dev:.3e}")
        return KrausChannel(self.d_in, self.d_out, np.einsum("mn,nab->mab", vm, self.kraus))

    def choi_matrix(self) -> np.ndarray:
        """Block matrix of basis-unit images, row-block index = input basis index.

        Dimension is ``d_in * d_out``; the result is positive semidefinite
        exactly because the map is completely positive.
        """
        vecs = self.kraus.transpose(0, 2, 1).reshape(self.n_kraus, -1)
        return hermitize(np.einsum("na,nb->ab", vecs, vecs.conj()))

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
        ops = []
        for n, op in enumerate(raw):
            ops.append(entries_to_matrix(op, d_out, d_in, field=f"kraus[{n}]"))
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
    """Parse nested [re, im] rows into a (rows, cols) complex matrix."""
    if not isinstance(raw, list) or len(raw) != rows:
        got = len(raw) if isinstance(raw, list) else type(raw).__name__
        raise ChannelFormatError(f"{field}: expected {rows} rows, got {got}")
    out = np.zeros((rows, cols), dtype=np.complex128)
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
            re, im = float(entry[0]), float(entry[1])
            if not (np.isfinite(re) and np.isfinite(im)):
                raise ChannelFormatError(f"{field}[{r}][{c}]: entries must be finite")
            out[r, c] = re + 1j * im
    return out


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
    eye = np.eye(d_b, dtype=np.complex128)
    ops = []
    for c in range(d_c):
        bra = np.zeros((1, d_c), dtype=np.complex128)
        bra[0, c] = 1.0
        ops.append(np.kron(eye, bra))
    return KrausChannel(d_b * d_c, d_b, ops)


def random_channel(d_in: int, d_out: int, n_kraus: int, scale: float = 1.0, seed=0) -> KrausChannel:
    """Channel with i.i.d. complex Gaussian Kraus entries times ``scale``.

    Deterministic for a fixed seed. Scaling the entries by c multiplies both
    invariant operators by c**2.
    """
    if n_kraus < 1:
        raise ValueError(f"n_kraus must be >= 1, got {n_kraus}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    rng = as_rng(seed)
    while True:
        ops = scale * (
            rng.standard_normal((n_kraus, d_out, d_in))
            + 1j * rng.standard_normal((n_kraus, d_out, d_in))
        )
        if ops.any():  # an all-zero draw has probability zero; redo keeps the contract
            break
    return KrausChannel(d_in, d_out, ops)


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
    """Matrix with orthonormal columns from the QR of a complex Gaussian draw."""
    if rows < cols:
        raise InfeasibleShape(f"an isometry needs rows >= cols, got {rows} x {cols}")
    rng = as_rng(seed)
    g = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, _ = np.linalg.qr(g)
    return q
