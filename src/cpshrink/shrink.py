"""Shrinking-factor analysis for completely positive maps.

For a channel Phi and a unitarily invariant norm |||.|||, the shrinking factor
is the largest possible |||Phi(x)||| over Hermitian x with |||x||| = 1. The
factor is known exactly at the two extremes: the spectral norm factor is the
largest eigenvalue of Phi(I) (the identity saturates it), and the trace norm
factor is the largest eigenvalue of Phi†(I) (a rank-1 projector onto a top
eigenvector saturates it). The maximum of the two bounds the factor for every
other gauge norm, so each norm gets a bracket
[lower bound, universal upper bound]. The Schatten-2 factor is exact too: the
largest singular value of sum_n E_n ⊗ conj(E_n), the matrix of Phi on
row-major vectorized inputs. A report (``shrink_report``) decides one answer
per key, a row's base gauge or the row itself, its value, witness and upper
bound: a key with a closed form takes its exact factor, and every other key is
searched; no tightness is claimed for a searched lower bound.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from math import floor, frexp, inf, ldexp, log2, sqrt
from typing import NamedTuple

import numpy as np

from .channel import ChannelInvariants, KrausChannel, complex_gaussian, kraus_map, read_invariant_norms
from .errors import DimensionMismatch
from .gauge import Combination, GaugeNorm, KyFan, Schatten, base_terms, gauge_eval, gauge_table, table_eval
from .spectral import (
    hermitian_decomposition,
    hermitian_eigensystem,
    hermitian_spectra,
    hermitize,
    per_shape,
    random_hermitian,  # unused; bench/tracer.py wraps shrink.random_hermitian by name
    require_hermitian,
    singular_values,  # unused; bench/tracer.py wraps shrink.singular_values by name
    spectral_norm,  # unused; bench/tracer.py wraps shrink.spectral_norm by name
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
    "schatten2_shrink_factor",
    "shrink_report",
    "shrink_upper_bound",
    "spectral_shrink_factor",
    "top_k_eigensum",
    "trace_shrink_factor",
]

ZERO_EIGENVALUE_TOL = 1e-12
BOUND_SLACK = 1e-9
STALL_GAIN = 1e-12


def padded_dim_for(phi: KrausChannel) -> int:
    """Common spectrum length for comparing inputs and outputs of ``phi``."""
    return max(phi.d_in, phi.d_out)


def top_k_eigensum(x, k: int) -> float:
    """Sum of the ``k`` largest eigenvalues of Hermitian ``x``.

    This equals the maximum of tr(p x) over operators p with 0 <= p <= I and
    tr(p) = k; ``k`` beyond the dimension is treated as the full trace. One
    values-only solve (``hermitian_spectra``) once ``require_hermitian`` has checked
    the input, as ``read_invariant_norms`` takes for each ``Phi(I)`` in its stacks,
    so the report's ``||Phi(I)||_(k)`` equals this bit for bit, and ``s`` equals it
    at ``k = 1``. One matrix only: a stack raises DimensionMismatch.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return float(hermitian_spectra(require_hermitian(x))[:k].sum())


@dataclass(frozen=True, eq=False)
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
    absw = np.abs(w)
    # stable sort: eigenvalues tied in magnitude keep their decomposition order
    order = np.argsort(-absw, kind="stable")
    selected = order[:k]
    tol = ZERO_EIGENVALUE_TOL * float(absw.max())
    pos, neg = selected[w[selected] > tol], selected[w[selected] < -tol]
    # an empty selection gives the zero projector
    p_q, p_r = (v[:, cols] @ v[:, cols].conj().T for cols in (pos, neg))
    return FanProjectors(hermitize(p_q), hermitize(p_r), k)


def shrink_upper_bound(phi: KrausChannel) -> float:
    """Upper bound on the shrinking factor valid for every gauge norm.

    The larger spectral norm of the two invariant operators, ``max(s, t)``.
    """
    inv = phi.invariants()
    return max(inv.identity_image_norm, inv.adjoint_identity_image_norm)


def spectral_shrink_factor(phi: KrausChannel) -> tuple[float, np.ndarray]:
    """Exact spectral-norm factor and the unit-norm input achieving it.

    The identity is a maximizer because its image is the invariant operator on
    the output space.
    """
    return phi.invariants().identity_image_norm, np.eye(phi.d_in, dtype=np.complex128)


def trace_shrink_factor(phi: KrausChannel) -> tuple[float, np.ndarray]:
    """Exact trace-norm factor and a rank-1 projector achieving it.

    The witness projects onto a leading eigenvector of the input-space
    invariant operator; under degeneracy the first listed eigenvector is used.
    It is the channel's one read-only copy.
    """
    inv = phi.invariants()
    return inv.adjoint_identity_image_norm, inv.adjoint_top_projector


def _ldexp(x: np.ndarray, k) -> np.ndarray:
    """Real or complex ``x`` times ``2**k`` (``k`` broadcasts): ldexp on the real view is
    exact down to subnormal entries, where ``2.0**k`` itself would overflow."""
    return np.ldexp(np.ascontiguousarray(x).view(np.float64), k).view(x.dtype)


def _rescaled_kraus(phi: KrausChannel) -> tuple[np.ndarray, int]:
    """The Kraus stack times ``2**-k``, and ``k``, for the ``k`` that puts its largest entry in [1, 2)."""
    k = floor(log2(np.abs(phi.kraus).max()))
    return _ldexp(phi.kraus, -k), k


def _rescaled_norm(norm: GaugeNorm) -> tuple[GaugeNorm, int]:
    """``norm`` times ``2**-k``, and ``k``, for the ``k`` that puts its largest coefficient in [1, 2).

    A positive multiple of a norm has the same factor, so a search can run on this
    one without over- or underflowing and scale its witness back by ``2**-k``. A
    norm that is not a combination has coefficient 1 and comes back as it is. A term
    whose coefficient is more than ``2**1074`` below the largest rescales to 0 and
    is dropped: it would add exact zeros to every value and gradient.
    """
    if not isinstance(norm, Combination):
        return norm, 0
    k = frexp(max(c for c, _ in norm.terms))[1] - 1
    terms = [(ldexp(c, -k), t) for c, t in norm.terms]
    return Combination(tuple((c, t) for c, t in terms if c)), k


def schatten2_shrink_factor(phi: KrausChannel) -> tuple[float, np.ndarray]:
    """Exact Schatten-2 factor ``h`` and a Hermitian input of unit Frobenius norm achieving it.

    On row-major vectorized inputs ``Phi`` is the matrix
    ``M = sum_n E_n ⊗ conj(E_n)``, so over complex inputs the factor is
    ``h = sigma_max(M)``, with ``h**2`` the top eigenvalue of
    ``M† M = sum_{n,m} B_nm ⊗ conj(B_nm)``, ``B_nm = E_n† E_m``. That Gram is the
    realignment of the Gram of the vectorized ``B_nm``, which are the blocks of
    ``L† L`` (``L = [E_1 ... E_K]``), so ``M`` itself is never formed. Hermitian
    inputs reach ``h``: ``Phi`` maps Hermitian ``A``, ``B`` to Hermitian images,
    so ``||Phi(A + iB)||_2**2 = ||Phi(A)||_2**2 + ||Phi(B)||_2**2`` against
    ``||A + iB||_2**2 = ||A||_2**2 + ||B||_2**2``. And since
    ``Phi(X†) = Phi(X)†``, the top eigenspace is closed under ``X -> X†``: the top
    eigenvector, reshaped to ``X = H_1 + i H_2`` (``H_1``, ``H_2`` Hermitian), has
    both parts in it, one of them with at least half of the squared norm, and
    that part, normalized, is the witness.

    The Gram is built from the Kraus set rescaled by a power of two (its
    largest entry in [1, 2)), so nothing under- or overflows and Kraus operators
    ``c * E`` give ``c**2`` times the value for ``E``. When ``c`` is a power of
    two the rescaled set is the same, so value and witness scale bit for bit,
    down to subnormal entries (where the value itself underflows to 0).

    The value is read from a values-only solve of the Gram (``_schatten2_value``),
    the witness from its full eigensystem (``_schatten2_witness``);
    ``shrink_report`` calls each alone.
    """
    gram, k = _schatten2_gram(phi)
    return _schatten2_value(gram, k), _schatten2_witness(gram, phi.d_in)


def _schatten2_gram(phi: KrausChannel) -> tuple[np.ndarray, int]:
    """The Hermitian Gram ``M† M`` of ``schatten2_shrink_factor``, ``d_in² x d_in²``, built from the
    Kraus set times ``2**-k``, and ``k``."""
    n_kraus, d_out, d_in = phi.kraus.shape
    ops, k = _rescaled_kraus(phi)
    left = ops.transpose(1, 0, 2).reshape(d_out, n_kraus * d_in)
    blocks = (left.conj().T @ left).reshape(n_kraus, d_in, n_kraus, d_in).transpose(0, 2, 1, 3)
    vecs = blocks.reshape(n_kraus * n_kraus, d_in * d_in)
    gram = (vecs.T @ vecs.conj()).reshape(d_in, d_in, d_in, d_in).transpose(0, 2, 1, 3)
    return hermitize(gram.reshape(d_in * d_in, d_in * d_in)), k


def _schatten2_value(gram: np.ndarray, k: int) -> float:
    """``h`` from ``_schatten2_gram``'s pair: the root of the Gram's top eigenvalue, from one values-only
    solve of the Gram it built Hermitian (``hermitian_spectra``), scaled back by ``4**k``."""
    return sqrt(hermitian_spectra(gram)[0]) * 4.0**k


def _schatten2_witness(gram: np.ndarray, d_in: int) -> np.ndarray:
    """The witness of ``schatten2_shrink_factor`` from the Gram's full eigensystem alone."""
    x = hermitian_eigensystem(gram)[1][:, 0].reshape(d_in, d_in)
    witness = max((hermitize(x), hermitize(1j * x)), key=lambda part: np.vdot(part, part).real)
    return witness / sqrt(np.vdot(witness, witness).real)


def _norm_gradients(
    weights: np.ndarray, exponents: tuple[float, ...], coefficients: np.ndarray, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Norm values ``(R,)`` and Lewis gradients ``(R, d, d)`` of a PSD stack ``(R, d, d)``
    whose matrix ``r`` is measured in the table row ``weights[r]``, ``coefficients[r]``: one
    ``table_eval`` call, and no ``gauge_table`` call, since the search slices each row's
    table row once and passes the slices. Its spectra are the eigenvalues, descending, with
    rounding below 0 clipped, as ``_linear_step`` clips its ``mu``."""
    w, v = hermitian_decomposition(xs)
    vals, g = table_eval(np.maximum(w, 0.0), weights, exponents, coefficients)
    return vals, (v * g[..., None, :]) @ v.swapaxes(-2, -1).conj()


@cache
def _masks(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step's masks on rows of length ``n``, built once per length, read-only: ``e_1`` as a
    boolean mask, for ``_holder``, and the windows ``[s, t]`` of ``_isotonic_fit``, the mask
    ``s <= t`` ``(n, n)`` and the widths ``max(t - s + 1, 1)``."""
    s, t = np.arange(n)[:, None], np.arange(n)
    masks = t == 0, s <= t, np.maximum(t - s + 1, 1)
    for mask in masks:
        mask.flags.writeable = False
    return masks


def _holder(y: np.ndarray, p: float) -> np.ndarray:
    """Hölder's direction ``(y / y_1) ** (1 / (p - 1))`` for descending ``y >= 0``: the
    maximizer of ``<y, z>`` at unit ``||z||_p``, up to scale. Dividing by ``y_1`` first keeps
    every entry in [0, 1] as p -> 1, and ``y = 0`` gives ``e_1``, the first of ``_masks``.
    Every row's first entry is exactly 1."""
    top = y[..., :1]
    return np.where(top > 0.0, y / np.where(top > 0.0, top, 1.0), _masks(y.shape[-1])[0]) ** (1.0 / (p - 1.0))


def _isotonic_fit(v: np.ndarray) -> np.ndarray:
    """Non-increasing least-squares fit of each row of ``v``, the one pool-adjacent-violators
    builds, in its loop-free min-max form ``min_{s<=i} max_{t>=i} mean(v[s..t])``, over the
    windows ``[s, t]`` of ``_masks``."""
    sums = np.concatenate([np.zeros_like(v[..., :1]), np.cumsum(v, axis=-1)], axis=-1)
    _, window, widths = _masks(v.shape[-1])
    means = np.where(window, (sums[..., None, 1:] - sums[..., :-1, None]) / widths, -inf)
    tail = np.maximum.accumulate(means[..., ::-1], axis=-1)[..., ::-1]  # [s, i]: max over t >= i
    return np.where(window, tail, inf).min(axis=-2)


def _solve_gradient(y: np.ndarray, z: np.ndarray, exponents: tuple[float, ...], c: np.ndarray) -> np.ndarray:
    """Up to scale, the ``x >= 0`` with ``sum_j c_j (x_i / A_j) ** (p_j - 1) = y_i`` for every
    entry, where ``A_j = ||z||_{p_j}``, for descending ``y >= 0`` with ``y_1 > 0``.

    With one exponent that is Hölder's direction. Otherwise each entry is the root of a
    sum of exponentials in ``u = log x_i``, convex and increasing, so Newton's method
    from above, at the least of the terms' own roots, falls monotonically onto it; an
    entry stops once a step no longer lowers it, whatever the other entries do. Either way
    every row's first entry is exactly 1, as ``_unit_norm`` requires.
    """
    if len(exponents) == 1:
        return _holder(y, exponents[0])
    q = np.array(exponents) - 1.0
    # one row per exponent, its Schatten norm alone: the sizes (R, J), read from z sorted as a
    # spectrum, since a warm start need not be descending
    spectra = -np.sort(-z, axis=-1)[:, None, :]
    sizes, _ = table_eval(spectra, np.zeros(z.shape[-1]), exponents, np.eye(len(exponents)), grad=False)
    # y, c and the sizes enter as ratios, so a norm rescaled by a power of two solves the same
    top = y[:, :1]
    log_a = np.log(c / top) - q * np.log(sizes / sizes[:, :1])
    on = y > 0.0
    t = np.where(on, y / top, 1.0)
    u = ((np.log(t)[..., None] - log_a[:, None, :]) / q).min(axis=-1)
    while True:
        terms = np.exp(log_a[:, None, :] + q * u[..., None])
        lower = u - (terms.sum(axis=-1) - t) / (q * terms).sum(axis=-1)
        if not (lower < u).any():
            # u_1, at the largest y_1, is the largest: shift it to 0 so that nothing overflows
            return np.where(on, np.exp(u - u[:, :1]), 0.0)
        u = np.where(lower < u, lower, u)


def _unit_norm(z: np.ndarray, w: np.ndarray, ps: tuple[float, ...], c: np.ndarray) -> np.ndarray:
    """``<w, z> + sum_j c_j ||z||_{p_j}`` for spectra ``z`` whose first entry is exactly 1, such
    as the search's starts (all ones and ``e_1``), Hölder's direction and ``_solve_gradient``'s
    answers: the value of the one-row table ``(w, ps, c)``, a norm's step entry, in closed form.

    These are ``table_eval``'s own operations, in its own order, at ``top = 1``: its Ky Fan
    part is the same ``np.vecdot(w, z)`` (every caller's ``z`` is a fresh contiguous array, as
    ``table_eval`` makes its spectra), its ``unit = z / top`` is ``z``, and its
    ``top * (c * size)`` is ``c * size``; so on such spectra the value equals
    ``table_eval(z, w, ps, c, grad=False)[0]`` bit for bit, and so does the norm's row of a
    whole-list ``gauge_table``, whose columns the norm does not use add exact zeros.
    It is valid only there: without the leading 1, ``z ** p`` can over- or underflow where
    ``table_eval``'s rescaled spectrum does not.
    """
    value = np.vecdot(w, z)
    for j, p in enumerate(ps):
        value = value + c[j] * (z ** p).sum(axis=-1) ** (1.0 / p)
    return value


class _StepEntry(NamedTuple):
    """One norm's constants for ``_linear_step`` on spectra of length ``n``, built once per search
    by ``_step_entry``: its one-row ``gauge_table`` (Ky Fan weights ``w`` ``(n,)``, Schatten
    exponents ``ps`` ascending, coefficients ``c`` ``(J,)``), its case (``"vertex"``, ``"holder"``
    or ``"rounds"``), its Ky Fan cut ``cumsum(w)`` and whether it has Ky Fan weights."""

    w: np.ndarray
    ps: tuple[float, ...]
    c: np.ndarray
    case: str
    cut: np.ndarray
    kyfan: bool


def _step_entry(norm: GaugeNorm, n: int) -> _StepEntry:
    """``norm``'s ``_StepEntry`` on spectra of length ``n``: no Schatten base is a vertex step, one
    Schatten base and no Ky Fan term is Hölder's, and every other norm takes Dinkelbach rounds."""
    (w,), ps, (c,) = gauge_table((norm,), n)
    cut = np.cumsum(w)
    cut.flags.writeable = False
    kyfan = bool(w.any())
    case = "vertex" if not ps else "holder" if len(ps) == 1 and not kyfan else "rounds"
    return _StepEntry(w, ps, c, case, cut, kyfan)


def _linear_step(entry: _StepEntry, mu: np.ndarray, z0: np.ndarray) -> np.ndarray:
    """Spectra ``z >= 0`` of unit norm maximizing ``<mu, z>``, for the norm of ``entry``
    (``_step_entry``) and a stack of PSD eigenvalue vectors ``mu`` in
    ``hermitian_decomposition``'s order: descending, and ``>= 0`` up to rounding.

    ``U diag(z) U†`` then maximizes ``<G, Z>`` over PSD ``Z`` with ``norm(Z) <= 1`` for
    ``G = U diag(mu) U†``: by von Neumann's trace inequality the maximizer is diagonal in
    G's eigenbasis. On descending ``z`` the gauge is ``<w, z> + sum_j c_j ||z||_{p_j}``
    (the entry's table row), and rounding below 0 in ``mu`` is clipped. The entry's case
    picks the rule:

    - ``"vertex"``, Ky Fan bases only: the gauge is ``<w, z>``, so the maximizer is a vertex
      ``1_{<=m} / W_m``, at the first ``m`` maximizing ``cumsum(mu)_m / W_m`` for the entry's
      cut ``W = cumsum(w)``.
    - ``"holder"``, one Schatten base and no Ky Fan term: Hölder's direction, normalized, and
      ``mu = 0`` gives ``e_1``.
    - ``"rounds"``, every other norm: W. Dinkelbach's iteration
      for the ratio ``<mu, z> / norm(z)`` runs from a start per row: the row of ``z0``, a
      spectrum ``>= 0`` such as the row's previous step (of unit ``norm``) or zeros, at ratio
      ``<mu, z0>``, or Hölder's direction for the least ``p_1``, normalized, where that ratio
      is not positive, as it is at zeros. Each round takes ``eta``, the row's best ratio so far, fits
      ``mu / eta - w`` non-increasing (``_isotonic_fit``), clips it at 0 to ``y``, and solves
      the optimality condition ``sum_j c_j (z_i / A_j) ** (p_j - 1) = y_i`` with
      ``A_j = ||z||_{p_j}`` at the row's best ``z`` (``_solve_gradient``). A round solves the
      ratio's subproblem from any start with a positive ratio, so a row stops as soon as its
      ratio stops rising: a warm start that does not rise was already the answer.

    Every spectrum normalized here has first entry exactly 1, so each normalization is a
    ``_unit_norm`` call.
    """
    mu = np.maximum(mu, 0.0)
    w, ps, c = entry.w, entry.ps, entry.c
    if entry.case == "vertex":
        m = np.argmax(np.cumsum(mu, axis=-1) / entry.cut, axis=-1)[..., None]
        return (np.arange(mu.shape[-1]) <= m) / entry.cut[m]
    rows = mu.reshape(-1, mu.shape[-1])
    if entry.case == "holder":
        z = _holder(rows, ps[0])
        z /= _unit_norm(z, w, ps, c)[:, None]
        return z.reshape(mu.shape)
    z = z0.reshape(rows.shape).copy()
    best = (rows * z).sum(axis=-1)
    # a row whose start's ratio is not positive starts from Hölder's direction
    cold = np.flatnonzero(best <= 0.0)
    if cold.size:
        start = _holder(rows[cold], ps[0])
        start /= _unit_norm(start, w, ps, c)[:, None]
        z[cold], best[cold] = start, (rows[cold] * start).sum(axis=-1)
    live = np.flatnonzero(best > 0.0)
    while live.size:
        v = rows[live] / best[live, None] - w
        # without Ky Fan terms v is mu / eta, descending already
        new = _solve_gradient(np.maximum(_isotonic_fit(v) if entry.kyfan else v, 0.0), z[live], ps, c)
        new /= _unit_norm(new, w, ps, c)[:, None]
        ratio = (rows[live] * new).sum(axis=-1)
        rising = ratio > best[live]
        live, new, ratio = live[rising], new[rising], ratio[rising]
        z[live], best[live] = new, ratio
    return z.reshape(mu.shape)


def _winners(best_vals: np.ndarray, best_xs: np.ndarray, n_norms: int) -> list[tuple[float, np.ndarray]]:
    """Per norm, the best value and input over its block of start rows. Values within
    ``STALL_GAIN`` of the best tie, as a step that gains no more is no progress, and ties go
    to the earliest start."""
    best = best_vals.reshape(n_norms, -1)
    tied = best >= (1.0 - STALL_GAIN) * best.max(axis=-1, keepdims=True)
    return [(best[n, i], best_xs[n * best.shape[1] + i]) for n, i in enumerate(np.argmax(tied, axis=-1))]


def _conditional_gradient(
    ops: np.ndarray,
    norms: tuple[GaugeNorm, ...],
    starts: np.ndarray,
    spectra: np.ndarray,
    steps: int,
    bound: float,
) -> list[tuple[float, np.ndarray]]:
    """Best unit-norm PSD input ``(value, witness)`` per norm, by conditional gradient.

    Row ``r`` of the stacks is start ``r % S`` (``starts`` is ``(S, d, d)`` PSD with
    spectra ``spectra``) measured in ``norms[r // S]``; rows stay grouped by norm as
    stopped ones leave. What does not change during the search is built once, before the
    first iteration, one table per side: each row's slice of the images' ``gauge_table`` at
    ``d_out``, and each norm's ``_step_entry`` at ``d_in``. Every start's spectrum begins with
    1 (all ones or ``e_1``), so each norm sizes its starts with ``_unit_norm`` from its step
    entry, as the step normalizes its spectra; ``table_eval`` is reached only through
    ``_norm_gradients``. Each iteration decomposes the images once for values and gradients
    (``_norm_gradients`` on the live rows' slices), maps the gradients back with one adjoint
    ``kraus_map``, decomposes the resulting ``G`` once and moves each row to its
    ``_linear_step``, one call per norm on its block of rows. Each live row keeps its last
    step's spectrum beside its gradient, and its next step's Dinkelbach rounds start from it;
    before its first step that spectrum is zeros, whose ratio is 0, so the first rounds start
    from Hölder's direction, as every start without a positive ratio does. A row stops once an
    iteration gains at most ``STALL_GAIN`` of its value, or after ``steps`` iterations, and
    every row of a norm stops after an iteration that leaves the norm's best value within
    ``STALL_GAIN`` of ``bound``, the universal bound ``max(s, t)`` at the scale of ``ops``.
    That stop serves unital channels (``Phi(I) = Phi†(I) = I``), whose identity start is
    already at the bound: their searches end after one iteration, where the stall rule alone
    takes hundreds. The live rows, their slices and the blocks' ends are filtered only after
    an iteration in which some row stopped.
    """
    adjoint = ops.swapaxes(-2, -1).conj()
    owner = np.repeat(np.arange(len(norms)), len(starts))
    # the images are d_out x d_out; the starts, and the steps' spectra, those of G, d_in x d_in
    weights, exponents, coefficients = gauge_table(norms, ops.shape[-2])
    weights, coefficients = weights[owner], coefficients[owner]
    entries = [_step_entry(norm, spectra.shape[-1]) for norm in norms]
    sizes = np.array([_unit_norm(spectra, entry.w, entry.ps, entry.c) for entry in entries])  # (N, S)
    xs = (starts / sizes[..., None, None]).reshape(-1, *starts.shape[1:])
    live = np.arange(len(owner))
    best_vals, ys = _norm_gradients(weights, exponents, coefficients, kraus_map(ops, xs))
    best_xs = xs.copy()
    # each live row's last step spectrum, its next linear step's warm start; zeros before its first
    zs = np.zeros((len(owner), spectra.shape[-1]))
    # each norm's block of live rows ends at the running count of its rows
    ends = np.cumsum(np.bincount(owner, minlength=len(norms))).tolist()
    for _ in range(steps):
        if not live.size:
            break
        mu, u = hermitian_decomposition(kraus_map(adjoint, ys))
        zs = np.concatenate([
            _linear_step(entry, mu[start:end], zs[start:end])
            for entry, start, end in zip(entries, [0, *ends], ends) if end > start
        ])
        xs = hermitize((u * zs[..., None, :]) @ u.swapaxes(-2, -1).conj())
        new_vals, ys = _norm_gradients(weights, exponents, coefficients, kraus_map(ops, xs))
        # a live row's value is its best: it moved on only by gaining, and every gain is a new best
        vals = best_vals[live]
        improved = new_vals > vals
        best_vals[live[improved]] = new_vals[improved]
        best_xs[live[improved]] = xs[improved]
        # a norm whose best value is within STALL_GAIN of the bound is done: no start can beat it
        done = best_vals.reshape(len(norms), -1).max(axis=-1) >= (1.0 - STALL_GAIN) * bound
        moving = (new_vals - vals > STALL_GAIN * vals) & ~done[owner[live]]
        if not moving.all():
            live, ys, zs = live[moving], ys[moving], zs[moving]
            weights, coefficients = weights[moving], coefficients[moving]
            ends = np.cumsum(np.bincount(owner[live], minlength=len(norms))).tolist()
    return _winners(best_vals, best_xs, len(norms))


def empirical_lower_bound(
    phi: KrausChannel, norm: GaugeNorm | Sequence[GaugeNorm], restarts: int, steps: int, seed=0
) -> tuple[float, np.ndarray] | list[tuple[float, np.ndarray]]:
    """Best found value of |||Phi(x)||| over unit-norm Hermitian inputs.

    For a positive map ``|||Phi(x)||| <= |||Phi(|x|)|||`` (``-Phi(|x|) <= Phi(x) <=
    Phi(|x|)``; R. Bhatia, *Matrix Analysis*, 1997), so the factor is reached on PSD
    inputs, where ``f(X) = |||Phi(X)|||`` is convex with PSD gradient
    ``G = Phi†(Y(Phi(X)))``. Every norm is searched by conditional gradient (the
    "generalized power" iteration of M. Journée, Y. Nesterov, P. Richtárik,
    R. Sepulchre, JMLR 11, 2010) from one schedule of starts: two analytic ones (the
    normalized identity and the trace-factor witness), then ``restarts`` random pure
    states ``vv†``. Each iteration moves to ``argmax {<G, Z> : Z >= 0, |||Z||| <= 1}``
    (``_linear_step``), which cannot lower the value; ``steps`` caps the iterations,
    and a start stops as soon as one gains at most ``STALL_GAIN`` of its value, or once
    its norm's best value is within ``STALL_GAIN`` of the universal bound, which no
    input exceeds; so on a unital channel (``Phi(I) = Phi†(I) = I``), whose identity start
    is at that bound, every start stops after one iteration. Witnesses are PSD. For a norm
    with a Schatten base the step is Dinkelbach's iteration for a ratio
    (W. Dinkelbach, *Management Science* 13, 1967), and the order
    constraint on spectra is met by an isotonic fit (T. Robertson, F. T. Wright,
    R. L. Dykstra, *Order Restricted Statistical Inference*, 1988).

    ``Y(V diag(w) V†) = V diag(g) V†`` is the norm's gradient at a PSD matrix with
    eigenpairs ``(w, V)`` (A. S. Lewis, SIAM J. Optim. 6, 1996); one ``table_eval``
    call over every row, each with its norm's ``gauge_table`` row, gives both the
    norms and ``g`` on the descending ``w`` that ``hermitian_decomposition`` returns,
    clipped at 0, since the images of PSD inputs are PSD up to rounding. The best
    value over the whole schedule wins; values within ``STALL_GAIN`` of it tie, and
    ties go to the earliest start.
    Deterministic for fixed arguments, and the result never exceeds the universal
    upper bound: that bound is proven, so a value rounding above it is returned as
    the bound, with the witness that reached it. The search runs on the Kraus set
    rescaled by a power of two (its largest entry in [1, 2)), so the result scales
    exactly with the channel: Kraus operators ``c * E`` give ``c**2`` times the
    value for ``E``. Each norm is searched with its coefficients rescaled the same
    way (``_rescaled_norm``), which changes no bit of a search that stays in range
    and lets one with extreme coefficients finish; its witness is scaled back
    exactly, and one beyond the float range has infinite entries.

    Returns ``(lower, witness)`` with the witness at unit gauge norm. ``norm``
    may also be a sequence of N norms: their searches then run as one batched
    search, one decomposition per stage over all their rows, and a list of N
    ``(lower, witness)`` pairs is returned, each equal bit for bit to that norm's
    single-norm call.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be >= 0, got {restarts}")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    norms = [norm] if isinstance(norm, GaugeNorm) else list(norm)
    if not norms:
        return []
    d = phi.d_in
    _, trace_witness = trace_shrink_factor(phi)
    ops, k = _rescaled_kraus(phi)
    scaled = {n: _rescaled_norm(n) for n in norms}
    rng = np.random.default_rng(seed)
    v = complex_gaussian(rng, (restarts, d))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    starts = np.concatenate([[np.eye(d), trace_witness], v[:, :, None] * v[:, None, :].conj()])
    # the identity's spectrum is all ones, every other start's is e_1
    spectra = np.eye(1, d).repeat(len(starts), axis=0)
    spectra[0] = 1.0
    # the universal bound at the search's scale; one that underflowed to a subnormal stops nothing
    upper = shrink_upper_bound(phi)
    bound = ldexp(upper, -2 * k) if upper >= np.finfo(float).tiny else inf
    searched = tuple(m for m, _ in scaled.values())
    found = dict(zip(scaled, _conditional_gradient(ops, searched, starts, spectra, steps, bound)))
    with np.errstate(over="ignore"):
        out = [(min(float(found[n][0]) * 4.0**k, upper), _ldexp(found[n][1], -scaled[n][1])) for n in norms]
    return out[0] if isinstance(norm, GaugeNorm) else out


@dataclass(frozen=True, eq=False)
class NormCheck:
    """The shrinking inequality ``lhs <= rhs`` for N norms, C channels and their inputs.

    ``lhs`` holds the norms of the images and ``rhs`` the universal bound times the
    norms of the inputs, arrays of shape ``(N, C, *lead)`` for inputs stacked as
    ``(*lead, d_in, d_in)``: row ``n`` is ``norms[n]``, column ``c`` the ``c``-th
    channel. ``ok`` is ``lhs <= (1 + BOUND_SLACK) * rhs``, the same shape; the slack is
    relative, so Kraus operators ``c * E`` check exactly as ``E`` does.
    Like every record here that may hold arrays, it compares and hashes by identity.
    """

    norms: tuple[GaugeNorm, ...]
    lhs: np.ndarray
    rhs: np.ndarray
    ok: np.ndarray


def check_gauge_bounds(phis: Sequence[KrausChannel], xs, norms) -> NormCheck:
    """The shrinking inequality for C channels across a list of N gauge norms.

    ``xs`` holds one Hermitian input or stack ``(*lead, d_in, d_in)`` per channel,
    all of one shape (else DimensionMismatch); the record's fields have shape
    ``(N, C, *lead)``. The input stacks are validated and hermitized once per size
    (``per_shape``), each then mapped with ``kraus_map``; each channel's upper bound
    is read once for its whole stack: ``read_invariant_norms`` first reads the pairs
    not yet read, in one values-only solve per size of ``Phi(I)`` and one
    eigensystem per size of ``Phi†(I)``, and ``shrink_upper_bound`` then reads
    ``s`` and ``t`` kept. The image stacks and the input
    stacks are grouped together by matrix size (``per_shape``), and each size is
    hermitized and takes one values-only solve (``hermitian_spectra``, which reads
    one triangle, so it reads the whole matrix); its eigenvalue magnitudes, the
    singular values unsorted, are zero-padded to the largest ``padded_dim_for`` in
    the list. The inputs are exactly Hermitian after their validation, so
    hermitizing them again there changes no bit. The whole list is then evaluated
    in one ``gauge_eval`` call, whose one sort orders the spectra, and all
    inequalities are compared at once. Zero padding leaves every gauge value as it
    is: a channel whose padded dimension is the list's gets the values of a call on
    it alone bit for bit, any other one up to rounding.
    """
    phis, xs = list(phis), list(xs)
    if len(phis) != len(xs):
        raise DimensionMismatch(f"{len(phis)} channels need as many inputs, got {len(xs)}")
    if not phis:
        raise ValueError("check_gauge_bounds needs at least one channel")
    norms = tuple(norms)
    xs = [np.asarray(y) for y in xs]
    lead = xs[0].shape[:-2]
    shapes = [(y.shape, p.d_in) for p, y in zip(phis, xs)]
    if any(shape != (*lead, d, d) for shape, d in shapes):
        raise DimensionMismatch(f"inputs need one stack shape of d_in x d_in matrices, got (shape, d_in) {shapes}")
    xs = per_shape(lambda stack: hermitize(require_hermitian(stack, stacked=True)), xs)
    read_invariant_norms([p.invariants() for p in phis])
    bounds = np.array([shrink_upper_bound(p) for p in phis]).reshape(-1, *(1,) * len(lead))
    padded = max(padded_dim_for(p) for p in phis)
    # the C image stacks, then the C input stacks, hermitized in their one values-only solve per
    # size; the inputs are exactly Hermitian already, so hermitizing them again changes no bit.
    # Each stack's magnitudes fill the start of its rows; gauge_eval sorts them
    mats = [kraus_map(p.kraus, y) for p, y in zip(phis, xs)] + xs
    spectra = np.zeros((len(mats), *lead, padded))
    for row, w in zip(spectra, per_shape(lambda stack: np.abs(hermitian_spectra(hermitize(stack))), mats)):
        row[..., :w.shape[-1]] = w
    # (norms, image | input, channels, ...)
    values = gauge_eval(norms, spectra.reshape(2, len(phis), *lead, padded))
    lhs, rhs = values[:, 0], bounds * values[:, 1]
    return NormCheck(norms, lhs, rhs, lhs <= (1.0 + BOUND_SLACK) * rhs)


def check_kyfan_bounds(phi: KrausChannel, x) -> NormCheck:
    """Per-k Ky Fan inequality for one input or a stack, k = 1..padded_dim: the record of
    ``check_gauge_bounds`` on the one channel, so ``C = 1``."""
    return check_gauge_bounds([phi], [x], [KyFan(k) for k in range(1, padded_dim_for(phi) + 1)])


def norm_battery(max_k: int) -> list[GaugeNorm]:
    """Fixed verification battery: Schatten {1, 1.5, 2, 3, inf}, Ky Fan 1..max_k,
    and two positive combinations."""
    norms: list[GaugeNorm] = [Schatten(p) for p in (1.0, 1.5, 2.0, 3.0, inf)]
    norms.extend(KyFan(k) for k in range(1, max_k + 1))
    norms.append(Combination(((1.0, KyFan(1)), (1.0, Schatten(1.0)))))
    norms.append(Combination(((0.5, Schatten(2.0)), (2.0, KyFan(2)))))
    return norms


@dataclass(frozen=True, eq=False)
class NormBracket:
    """One norm's answer: the best lower bound found, the upper bound ``u = max(s, t)``
    and the witness of the lower bound.

    ``empirical_lower <= upper`` always holds. ``shrink_report`` decides all three,
    one bracket per key, which the rows on that key are or scale; its docstring lists
    the rules. ``witness`` is built by ``build_witness`` on first read and then kept,
    so a report that prints only values takes no solve for it. A failed build is
    raised and not kept, so the next read tries again.
    """

    norm: GaugeNorm
    empirical_lower: float
    upper: float
    build_witness: Callable[[], np.ndarray] = field(repr=False)

    @cached_property
    def witness(self) -> np.ndarray:
        return self.build_witness()


@dataclass(frozen=True, eq=False)
class ShrinkReport:
    """Channel-level summary.

    ``upper_bound`` equals max(spectral_factor, trace_factor) exactly and
    bounds every entry's shrinking factor: it is the paper's bound, and each
    bracket's ``upper`` is ``upper_bound``. Each bracket's witness has unit
    gauge norm and achieves its ``empirical_lower`` up to rounding. Which rows
    are exact, and each row's value, are decided by ``shrink_report``; its
    docstring lists the rules.
    """

    upper_bound: float
    spectral_factor: float
    trace_factor: float
    per_norm: tuple[NormBracket, ...]
    padded_dim: int


def _scaled_witness(base: NormBracket, total: float, e: int) -> np.ndarray:
    """``base``'s witness for a row that reads its bracket and whose coefficients, times ``2**-e``,
    sum to ``total``: the base's own array when ``total`` is 1 and ``e`` is 0, so such rows share it."""
    with np.errstate(over="ignore"):
        return base.witness if (total, e) == (1.0, 0) else _ldexp(base.witness / total, -e)


def _closed_form(
    phi: KrausChannel, inv: ChannelInvariants, key: GaugeNorm, padded: int
) -> tuple[float, Callable[[], np.ndarray]] | None:
    """The exact factor of ``key`` on ``phi``, with invariant pair ``inv``, and its witness
    builder, where the Kraus count or a closed form gives them; None elsewhere, and for a
    combination on two or more Kraus operators.

    One Kraus operator ``E``: ``Phi(X) = E X E†``, so every factor is ``||E||**2 = s = t = u``,
    attained at the trace projector, whose image has rank 1. Otherwise Ky Fan 1 is the spectral
    norm: ``s`` at the identity. Ky Fan ``padded`` is the trace norm on inputs and images alike:
    ``t`` at the trace projector. Schatten 2 is ``schatten2_shrink_factor``: ``h`` from a
    values-only solve of its Gram, the witness from the Gram's eigensystem alone. Ky Fan ``k``
    with ``n_kraus <= k < padded``: ``Phi(vv†)`` has rank at most ``n_kraus <= k``, so its Ky Fan
    ``k`` norm is its trace ``<v, Phi†(I) v> <= t``, and ``Phi(P) <= Phi(I)`` for every projector
    ``P``; the extreme points of the PSD part of the Ky Fan ``k`` ball being the ``vv†`` and the
    ``P / k`` with rank ``P >= k``, the factor is ``max(||Phi(I)||_(k) / k, t)`` at ``I / k`` or
    the trace projector when ``k <= d_in`` (the identity on a tie, the search's first start), and
    ``t`` at the trace projector when ``k > d_in``, where no such ``P`` exists.
    """
    trace = inv.adjoint_identity_image_norm, lambda: trace_shrink_factor(phi)[1]
    if phi.n_kraus == 1:
        return max(inv.identity_image_norm, trace[0]), trace[1]
    # Ky Fan 1 before Ky Fan padded, so it is the rule when the padded dimension is 1
    if key == KyFan(1):
        return inv.identity_image_norm, lambda: spectral_shrink_factor(phi)[1]
    if key == KyFan(padded):
        return trace
    if key == Schatten(2.0):
        return _schatten2_value(*_schatten2_gram(phi)), lambda: _schatten2_witness(_schatten2_gram(phi)[0], phi.d_in)
    if not isinstance(key, KyFan) or key.k < phi.n_kraus:
        return None
    if key.k > phi.d_in:
        return trace
    mean = float(inv.identity_image_spectrum[: key.k].sum()) / key.k
    return (mean, lambda: np.eye(phi.d_in, dtype=np.complex128) / key.k) if mean >= trace[0] else trace


def shrink_report(phi: KrausChannel, norms, restarts: int, steps: int, seed=0) -> ShrinkReport:
    """Bracket the shrinking factor of ``phi`` for each requested norm.

    This is the one function that decides each row's value, witness builder and
    upper bound. ``s`` and ``t`` are read together (``read_invariant_norms``), with
    the spectrum of ``Phi(I)`` and the top eigenvector of ``Phi†(I)``, in one
    values-only solve and one eigensystem, and kept by the channel; the report's
    ``upper_bound`` is ``u = max(s, t)``.

    Each row reads one answer, its key's. A row's key is its base gauge
    (``gauge.base_terms`` at the padded dimension) when its terms have one base, or when
    the channel has one Kraus operator, which gives every base the same answer; otherwise
    the key is the row itself. Each distinct key gets one bracket, whose upper bound is
    ``u``, the paper's bound for every unitarily invariant norm. The bracket is exact
    where ``_closed_form`` gives the factor, from eigenvalues alone and the stored
    ``n_kraus``, never a numerical rank; so a closed form runs only for a base
    that some row has alone, and the ``d_in² x d_in²`` Gram is built only when a row reads
    ``h``. The keys left take one batched ``empirical_lower_bound`` call, which returns at
    once when none is left; each gets the value and witness of its own single-norm search
    bit for bit, and the same seed drives every search, so reports are reproducible.
    ``restarts`` and ``steps`` are the search's; ``cpshrink report`` passes 0 and 200 by
    default, so its search runs only the two analytic starts, each capped at 200 iterations.

    A row whose key is itself is that bracket. Every other row, a positive multiple of its
    key, or a combination of a one-Kraus channel, has the bracket's value and bound, and
    its witness is the key's divided by the sum of its coefficients (``_scaled_witness``).
    So the multiples of a base share one search, and one witness solve. A witness is
    built on first read and kept, so a report read for its values takes no ``eigh`` beyond
    the pair's, and forms no trace projector.

    A value above ``u`` is rounding, and the row holds ``u`` instead.
    ``empirical_lower_bound`` already clamps each searched value to ``u``; the clamp
    of an exact value guards the exact rows, since ``h`` can round above ``u``
    where they are equal (a channel whose Kraus operators are multiples of one ``E``
    gives ``h = s = t = sigma_max(E)**2``). Duplicate norms share one row.
    """
    norms = list(norms)
    padded = padded_dim_for(phi)
    inv = phi.invariants()
    spectral, trace = inv.identity_image_norm, inv.adjoint_identity_image_norm
    upper = max(spectral, trace)
    # coefficients rescaled as the search's, so their sum cannot overflow
    scaled = {norm: _rescaled_norm(norm) for norm in norms}
    terms = {norm: base_terms(m, padded) for norm, (m, _) in scaled.items()}
    key = {norm: ts[0][1] if phi.n_kraus == 1 or len({b for _, b in ts}) == 1 else norm for norm, ts in terms.items()}
    # the d_in^4 Gram is not kept: a Schatten-2 witness rebuilds it on first read
    forms = {k: _closed_form(phi, inv, k, padded) for k in dict.fromkeys(key.values())}
    searched = [k for k, form in forms.items() if form is None]
    for k, (value, witness) in zip(searched, empirical_lower_bound(phi, searched, restarts, steps, seed)):
        forms[k] = value, lambda witness=witness: witness
    answer = {k: NormBracket(k, min(value, upper), upper, build) for k, (value, build) in forms.items()}
    rows = {}
    for norm, k in key.items():
        base = answer[k]
        build = partial(_scaled_witness, base, sum(c for c, _ in terms[norm]), scaled[norm][1])
        rows[norm] = base if k == norm else NormBracket(norm, base.empirical_lower, base.upper, build)
    return ShrinkReport(upper, spectral, trace, tuple(rows[norm] for norm in norms), padded)
