"""Shrinking-factor analysis for completely positive maps.

For a channel Phi and a unitarily invariant norm |||.|||, the shrinking factor
is the largest possible |||Phi(x)||| over Hermitian x with |||x||| = 1. The
factor is known exactly at the two extremes: the spectral norm factor is the
largest eigenvalue of Phi(I) (the identity saturates it), and the trace norm
factor is the largest eigenvalue of Phi†(I) (a rank-1 projector onto a top
eigenvector saturates it). The maximum of the two bounds the factor for every
other gauge norm, so each norm gets a bracket
[empirical lower bound, universal upper bound]; no tightness is claimed in
between.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .channel import KrausChannel, kraus_map
from .gauge import Combination, GaugeNorm, KyFan, Schatten, gauge_eval
from .spectral import (
    hermitian_basis,
    hermitian_eigensystem,
    hermitize,
    random_hermitian,
    singular_values,
    spectral_norm,
)

__all__ = [
    "FanProjectors",
    "NormBracket",
    "NormCheck",
    "ShrinkReport",
    "check_gauge_bounds",
    "check_kyfan_bounds",
    "empirical_lower_bound",
    "fan_projectors",
    "norm_battery",
    "padded_dim_for",
    "shrink_report",
    "shrink_upper_bound",
    "spectral_shrink_factor",
    "top_k_eigensum",
    "trace_shrink_factor",
]

ZERO_EIGENVALUE_TOL = 1e-12
BOUND_SLACK = 1e-9
ASCENT_STEP0 = 0.1
ASCENT_DECAY = 0.9
FD_EPS = 1e-5


def padded_dim_for(phi: KrausChannel) -> int:
    """Common spectrum length for comparing inputs and outputs of ``phi``."""
    return max(phi.d_in, phi.d_out)


def top_k_eigensum(x, k: int) -> float:
    """Sum of the ``k`` largest eigenvalues of Hermitian ``x``.

    This equals the maximum of tr(p x) over operators p with 0 <= p <= I and
    tr(p) = k; ``k`` beyond the dimension is treated as the full trace.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    w, _ = hermitian_eigensystem(x)
    return float(w[: min(k, w.size)].sum())


@dataclass(frozen=True)
class FanProjectors:
    """Orthogonal projectors splitting the top-k singular directions by sign.

    ``p_q`` spans selected eigenvectors with positive eigenvalue, ``p_r`` those
    with negative eigenvalue; rank(p_q) + rank(p_r) <= k and
    tr[(p_q - p_r) x] recovers the k-th Ky Fan norm of x.
    """

    p_q: np.ndarray
    p_r: np.ndarray
    k: int


def fan_projectors(x, k: int) -> FanProjectors:
    """Build the sign-split projectors onto the top-k singular directions of ``x``.

    Directions whose eigenvalue is numerically zero are dropped, which keeps
    the rank bound while leaving the trace identity intact. For ``k`` beyond
    the dimension every nonzero direction is kept (the trace-norm case, where
    the combined rank equals the rank of ``|x|``).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    w, v = hermitian_eigensystem(x)
    dim = w.size
    absw = np.abs(w)
    # stable sort: eigenvalues tied in magnitude keep their decomposition order
    order = np.argsort(-absw, kind="stable")
    selected = order[: min(k, dim)]
    tol = ZERO_EIGENVALUE_TOL * max(1.0, float(absw.max()))
    pos = [i for i in selected if w[i] > tol]
    neg = [i for i in selected if w[i] < -tol]
    p_q = np.zeros((dim, dim), dtype=np.complex128)
    p_r = np.zeros((dim, dim), dtype=np.complex128)
    if pos:
        cols = v[:, pos]
        p_q = cols @ cols.conj().T
    if neg:
        cols = v[:, neg]
        p_r = cols @ cols.conj().T
    return FanProjectors(hermitize(p_q), hermitize(p_r), k)


def shrink_upper_bound(phi: KrausChannel) -> float:
    """Upper bound on the shrinking factor valid for every gauge norm.

    The larger spectral norm of the two invariant operators.
    """
    inv = phi.invariants()
    return max(spectral_norm(inv.identity_image), spectral_norm(inv.adjoint_identity_image))


def spectral_shrink_factor(phi: KrausChannel) -> tuple[float, np.ndarray]:
    """Exact spectral-norm factor and the unit-norm input achieving it.

    The identity is a maximizer because its image is the invariant operator on
    the output space.
    """
    inv = phi.invariants()
    return spectral_norm(inv.identity_image), np.eye(phi.d_in, dtype=np.complex128)


def trace_shrink_factor(phi: KrausChannel) -> tuple[float, np.ndarray]:
    """Exact trace-norm factor and a rank-1 projector achieving it.

    The witness projects onto a leading eigenvector of the input-space
    invariant operator; under degeneracy the first listed eigenvector is used.
    """
    inv = phi.invariants()
    _, vectors = hermitian_eigensystem(inv.adjoint_identity_image)
    top = vectors[:, :1]
    witness = hermitize(top @ top.conj().T)
    return spectral_norm(inv.adjoint_identity_image), witness


def empirical_lower_bound(
    phi: KrausChannel, norm: GaugeNorm, restarts: int, steps: int, seed=0
) -> tuple[float, np.ndarray]:
    """Best found value of |||Phi(x)||| over unit-norm Hermitian inputs.

    Multi-start projected ascent. Two analytic seeds are always evaluated (the
    normalized identity and the trace-factor witness), followed by ``restarts``
    random Hermitian directions; each start is refined for ``steps`` rounds of
    forward-difference ascent with step size 0.1 * 0.9**t and finite-difference
    spacing 1e-5, renormalizing to unit gauge norm after every move. The best
    value over the whole schedule wins; ties go to the earliest start.
    Deterministic for fixed arguments, and the result can never exceed the
    universal upper bound beyond numerical noise.

    Returns ``(lower, witness)`` with the witness at unit gauge norm.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    d = phi.d_in
    padded = padded_dim_for(phi)
    ops = phi.kraus
    basis = hermitian_basis(d)

    def gauge_of(mats: np.ndarray) -> np.ndarray:
        return np.asarray(gauge_eval(norm, singular_values(mats, padded)), dtype=float)

    def image_gauge(mats: np.ndarray) -> np.ndarray:
        return gauge_of(kraus_map(ops, mats))

    def ratio(mats: np.ndarray) -> np.ndarray:
        return image_gauge(mats) / gauge_of(mats)

    _, trace_witness = trace_shrink_factor(phi)
    starts = [np.eye(d, dtype=np.complex128), trace_witness.astype(np.complex128)]
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        h = random_hermitian(d, rng)
        while gauge_of(h[None])[0] <= 0.0:  # exclude the zero direction
            h = random_hermitian(d, rng)
        starts.append(h)

    xs = np.stack(starts)
    xs = xs / gauge_of(xs)[:, None, None]
    vals = ratio(xs)
    best_vals = vals.copy()
    best_xs = xs.copy()
    for t in range(steps):
        step = ASCENT_STEP0 * ASCENT_DECAY**t
        perturbed = xs[:, None, :, :] + FD_EPS * basis[None, :, :, :]
        slopes = (ratio(perturbed) - vals[:, None]) / FD_EPS
        grads = np.einsum("bp,pij->bij", slopes, basis)
        gnorm = np.sqrt(np.einsum("bij,bij->b", grads, grads.conj()).real)
        safe = np.where(gnorm > 0.0, gnorm, 1.0)
        xs = xs + step * np.where(gnorm > 0.0, 1.0, 0.0)[:, None, None] * grads / safe[:, None, None]
        xs = xs / gauge_of(xs)[:, None, None]
        vals = ratio(xs)
        improved = vals > best_vals
        best_vals[improved] = vals[improved]
        best_xs[improved] = xs[improved]
    winner = int(np.argmax(best_vals))
    return float(best_vals[winner]), best_xs[winner].copy()


@dataclass(frozen=True)
class NormCheck:
    """The shrinking inequality ``lhs <= rhs`` for one norm; ``ok`` grants relative slack 1e-9.

    ``lhs`` is the norm of the image, ``rhs`` the universal bound times the norm
    of the input: floats and a bool for one input, length-T arrays for T inputs.
    """

    norm: GaugeNorm
    lhs: float | np.ndarray
    rhs: float | np.ndarray
    ok: bool | np.ndarray


def check_gauge_bounds(phi: KrausChannel, x, norms) -> list[NormCheck]:
    """The shrinking inequality across a list of gauge norms, one NormCheck per norm.

    ``x`` is one Hermitian input or a stack ``(T, d_in, d_in)`` of them; the
    upper bound is computed once for the whole stack.
    """
    image = phi.apply(x)
    bound = shrink_upper_bound(phi)
    padded = padded_dim_for(phi)
    s_in = singular_values(x, padded)
    s_out = singular_values(image, padded)
    checks = []
    for norm in norms:
        lhs = gauge_eval(norm, s_out)
        rhs = bound * gauge_eval(norm, s_in)
        ok = lhs <= rhs + BOUND_SLACK * np.maximum(1.0, rhs)
        checks.append(NormCheck(norm, lhs, rhs, ok if np.ndim(ok) else bool(ok)))
    return checks


def check_kyfan_bounds(phi: KrausChannel, x) -> list[NormCheck]:
    """Per-k Ky Fan inequality for one input or a stack, k = 1..padded_dim."""
    return check_gauge_bounds(phi, x, [KyFan(k) for k in range(1, padded_dim_for(phi) + 1)])


def norm_battery(max_k: int = 6) -> list[GaugeNorm]:
    """Fixed verification battery: Schatten {1, 1.5, 2, 3, inf}, Ky Fan 1..max_k,
    and two positive combinations."""
    norms: list[GaugeNorm] = [
        Schatten(1.0),
        Schatten(1.5),
        Schatten(2.0),
        Schatten(3.0),
        Schatten(inf),
    ]
    norms.extend(KyFan(k) for k in range(1, max_k + 1))
    norms.append(Combination(((1.0, KyFan(1)), (1.0, Schatten(1.0)))))
    norms.append(Combination(((0.5, Schatten(2.0)), (2.0, KyFan(2)))))
    return norms


@dataclass(frozen=True)
class NormBracket:
    """One norm's bracket: the best lower bound found and its witness input."""

    norm: GaugeNorm
    empirical_lower: float
    witness: np.ndarray


@dataclass(frozen=True)
class ShrinkReport:
    """Channel-level summary.

    ``upper_bound`` equals max(spectral_factor, trace_factor) exactly and
    bounds every entry's shrinking factor; each bracket's witness has unit
    gauge norm and achieves its ``empirical_lower``.
    """

    upper_bound: float
    spectral_factor: float
    trace_factor: float
    spectral_witness: np.ndarray
    trace_witness: np.ndarray
    per_norm: tuple[NormBracket, ...]
    padded_dim: int


def shrink_report(
    phi: KrausChannel, norms, restarts: int, steps: int, seed=0
) -> ShrinkReport:
    """Bracket the shrinking factor of ``phi`` for each requested norm.

    The same seed drives every norm's search, so reports are reproducible.
    """
    s_val, s_wit = spectral_shrink_factor(phi)
    t_val, t_wit = trace_shrink_factor(phi)
    brackets = tuple(
        NormBracket(norm, *empirical_lower_bound(phi, norm, restarts, steps, seed))
        for norm in norms
    )
    return ShrinkReport(
        upper_bound=max(s_val, t_val),
        spectral_factor=s_val,
        trace_factor=t_val,
        spectral_witness=s_wit,
        trace_witness=t_wit,
        per_norm=brackets,
        padded_dim=padded_dim_for(phi),
    )
