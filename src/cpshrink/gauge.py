"""Symmetric gauge functions and the unitarily invariant matrix norms they induce.

A gauge norm is evaluated on a vector of singular values that has already been
zero-padded to a common length, so norms of matrices with different shapes can
be compared on equal footing. Three families are supported: Ky Fan sums,
Schatten p-norms, and positive combinations of the two. ``base_terms`` reduces
every norm to its base gauges once, which is where equal norms are told apart;
``gauge_table`` turns a list of norms into Ky Fan weights and Schatten
coefficients, and ``table_eval`` evaluates every row of a table at once, the
one place where each base family is written. ``gauge_eval`` sorts and validates
first and asks for values only.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from math import inf, isfinite

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "Combination",
    "GaugeNorm",
    "KyFan",
    "Schatten",
    "base_terms",
    "format_norm",
    "gauge_eval",
    "gauge_table",
    "parse_norm",
    "table_eval",
]


@dataclass(frozen=True)
class KyFan:
    """Sum of the ``k`` largest singular values.

    With ``k`` at or beyond the spectrum length this is the trace norm. ``k`` may
    be any integer type (numpy integers and Python bools included) and is stored as a
    Python int, so equal orders give equal, equally hashed norms; a non-integer
    such as ``2.0`` or ``"2"`` raises ValueError.
    """

    k: int

    def __post_init__(self):
        try:
            object.__setattr__(self, "k", operator.index(self.k))
        except TypeError:
            pass  # not an integer type: rejected below
        if not isinstance(self.k, int) or self.k < 1:
            raise ValueError(f"KyFan order must be an integer >= 1, got {self.k!r}")


@dataclass(frozen=True)
class Schatten:
    """l_p norm of the singular value vector; ``p`` may be ``math.inf``."""

    p: float

    def __post_init__(self):
        p = float(self.p)
        if not p >= 1.0:
            raise ValueError(f"Schatten exponent must be >= 1, got {self.p!r}")
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class Combination:
    """Positive linear combination of base norms; no nested combinations."""

    terms: tuple[tuple[float, "KyFan | Schatten"], ...]

    def __post_init__(self):
        terms = tuple((float(c), t) for c, t in self.terms)
        if not terms:
            raise ValueError("Combination needs at least one term")
        for c, t in terms:
            if not (isfinite(c) and c > 0):
                raise ValueError(f"combination coefficients must be positive, got {c!r}")
            if not isinstance(t, (KyFan, Schatten)):
                raise ValueError(f"combination terms must be KyFan or Schatten, got {t!r}")
        object.__setattr__(self, "terms", terms)


GaugeNorm = KyFan | Schatten | Combination


@cache
def base_terms(norm: GaugeNorm, n: int) -> tuple[tuple[float, KyFan | Schatten], ...]:
    """``norm`` as a sum ``((c, base), ...)`` of base gauges on spectra of length ``n``.

    Schatten inf is Ky Fan 1; Schatten 1, and Ky Fan k with k >= n, are Ky Fan n
    (the trace norm); so a Schatten base has 1 < p < inf. A norm that is not a
    combination is one term with coefficient 1, and a combination keeps its
    terms' order. Norms with the same terms are the same gauge on these spectra;
    this is the one place that decides which norms are equal. Each answer is
    computed once and shared, so calls on the search's path build no new norms.
    """
    if isinstance(norm, Combination):
        return tuple((c, base) for c, t in norm.terms for _, base in base_terms(t, n))
    if not isinstance(norm, (KyFan, Schatten)):
        raise TypeError(f"unsupported gauge norm: {norm!r}")
    if isinstance(norm, KyFan) and norm.k > n or norm == Schatten(1.0):
        norm = KyFan(n)
    return ((1.0, KyFan(1) if norm == Schatten(inf) else norm),)


@cache
def gauge_table(norms: tuple[GaugeNorm, ...], n: int) -> tuple[np.ndarray, tuple[float, ...], np.ndarray]:
    """``norms`` on descending spectra ``s >= 0`` of length ``n`` as the rows of one table,
    norm ``r`` being ``<weights[r], s> + sum_j coefficients[r, j] * ||s||_{exponents[j]}``.

    Returns the Ky Fan weights ``(N, n)`` (a Ky Fan ``k`` term adds its coefficient to
    the first ``k``, so a row's weights are its Ky Fan part's gradient), the distinct
    Schatten exponents ``(J,)`` in ascending order, and the summed coefficients
    ``(N, J)``, all built from ``base_terms``. Each answer is computed once and shared,
    read-only.
    """
    terms = [base_terms(norm, n) for norm in norms]
    exponents = tuple(sorted({b.p for ts in terms for _, b in ts if isinstance(b, Schatten)}))
    weights, coefficients = np.zeros((len(norms), n)), np.zeros((len(norms), len(exponents)))
    for row, ts in enumerate(terms):
        for c, base in ts:
            if isinstance(base, KyFan):
                weights[row, : base.k] += c
            else:
                coefficients[row, exponents.index(base.p)] += c
    weights.flags.writeable = coefficients.flags.writeable = False
    return weights, exponents, coefficients


def table_eval(s, weights, exponents, coefficients, grad: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Every row's value and, unless ``grad`` is false, gradient at descending spectra ``s``.

    The rows are a ``gauge_table``'s, or a selection of them: ``weights`` (..., n) and
    ``coefficients`` (..., J) broadcast against ``s``, whose last axis holds the
    spectrum; values drop that axis and gradients keep it. This is where each base
    family is written. At a kink (a tie at a Ky Fan cut, a zero entry) the gradient is
    one subgradient, always finite. A row's arithmetic does not depend on the other
    rows: a column the row does not use adds an exact zero, and each column is raised
    with its exponent as a Python float, in ascending order.

    The Ky Fan part is one ``np.vecdot(weights, s)``, each row contracted with its
    spectrum, whether the rows share each spectrum or each has its own; no ``(..., N, n)``
    product is formed. ``np.vecdot`` sums in an order that follows the memory layout, so
    ``s`` is made contiguous first, and a view of a stack (flipped, strided, Fortran-ordered)
    gives the stack's values and gradients bit for bit.
    """
    s = np.ascontiguousarray(s)
    value, g = np.vecdot(weights, s), np.broadcast_to(weights, np.broadcast(weights, s).shape) if grad else None
    # s_max * ||u||_p with u = s / s_max: s ** p alone overflows or underflows for large p
    top = s[..., :1]
    unit = s / np.where(top > 0.0, top, 1.0)
    for j, p in enumerate(exponents):
        c = coefficients[..., j : j + 1]
        size = (unit ** p).sum(axis=-1, keepdims=True) ** (1.0 / p)
        # c * size first: size <= n, so a column a row does not use adds top * 0, even where
        # top * size overflows
        value = value + (top * (c * size))[..., 0]
        if grad:
            g = g + c * (unit / np.where(size > 0.0, size, 1.0)) ** (p - 1.0)
    return value, g


def gauge_eval(norm: GaugeNorm | Sequence[GaugeNorm], spectrum):
    """Evaluate ``norm`` on a vector of nonnegative values.

    The last axis holds the spectrum; leading axes are broadcast, so a stack of
    spectra evaluates to a stack of norm values. A 1-D input returns a float.
    Entries are sorted internally, making the result permutation invariant.

    ``norm`` may also be a sequence of N norms, and the N values then come
    stacked on a new leading axis. Either way the spectra are validated once and
    sorted once, descending, into one contiguous array (``-np.sort(-s)``, not a
    flipped view), and the whole list is one values-only ``table_eval`` call on its
    table; each value equals the value of the norm's one-row table bit for bit.
    """
    s = np.asarray(spectrum, dtype=float)
    if s.ndim < 1 or s.shape[-1] < 1:
        raise DimensionMismatch("spectrum must have at least one entry")
    if np.any(s < 0):
        raise ValueError("spectrum entries must be nonnegative")
    s = -np.sort(-s, axis=-1)
    norms = (norm,) if isinstance(norm, GaugeNorm) else tuple(norm)
    values, _ = table_eval(s[..., None, :], *gauge_table(norms, s.shape[-1]), grad=False)
    if isinstance(norm, GaugeNorm):
        return float(values[..., 0]) if s.ndim == 1 else values[..., 0]
    return np.moveaxis(values, -1, 0)


def parse_norm(text: str) -> GaugeNorm:
    """Parse a norm spec: ``kyfan:<k>``, ``schatten:<p>`` or ``combo:<c>*<norm>+...``.

    ``schatten:inf`` selects the spectral norm. Combination example:
    ``combo:1*kyfan:1+0.5*schatten:2``. Coefficients and exponents are decimals,
    with or without an exponent part (``1e-3``, ``2.5e+300``).
    """
    t = text.strip()
    if t.startswith("combo:"):
        terms = []
        body = t[len("combo:"):]
        if not body:
            raise ValueError("empty combination spec")
        # a '+' right after an exponent's 'e' belongs to the number
        for part in re.split(r"(?<![eE])\+", body):
            coeff_text, sep, norm_text = part.partition("*")
            if not sep:
                raise ValueError(f"combination term {part!r} must look like <coeff>*<norm>")
            try:
                coeff = float(coeff_text)
            except ValueError as exc:
                raise ValueError(f"bad combination coefficient {coeff_text!r}") from exc
            terms.append((coeff, parse_norm(norm_text)))
        return Combination(tuple(terms))
    kind, sep, arg = t.partition(":")
    if not sep:
        raise ValueError(f"norm spec {text!r} is missing ':'")
    # text that is no number is bad here; a number out of range keeps its constructor's reason
    if kind == "kyfan":
        try:
            k = int(arg)
        except ValueError as exc:
            raise ValueError(f"bad kyfan order {arg!r}") from exc
        return KyFan(k)
    if kind == "schatten":
        try:  # float reads inf and infinity, in any case
            p = float(arg)
        except ValueError as exc:
            raise ValueError(f"bad schatten exponent {arg!r}") from exc
        return Schatten(p)
    raise ValueError(f"unknown norm family {kind!r} in {text!r}")


def _number(x: float) -> str:
    """The shorter of ``x``'s ``:g`` form, when that reads back as ``x``, and its shortest
    exact form ``repr(x)``, ``:g`` on a tie. ``:g`` is never the longer for a normal float,
    but a subnormal's six digits can read back and outrun repr (``1e-320``)."""
    return min((t for t in (f"{x:g}", repr(x)) if float(t) == x), key=len)


def format_norm(norm: GaugeNorm) -> str:
    """Inverse of parse_norm: ``parse_norm(format_norm(n)) == n`` for every norm."""
    if isinstance(norm, KyFan):
        return f"kyfan:{norm.k}"
    if isinstance(norm, Schatten):
        return f"schatten:{_number(norm.p)}"
    if isinstance(norm, Combination):
        return "combo:" + "+".join(f"{_number(c)}*{format_norm(t)}" for c, t in norm.terms)
    raise TypeError(f"unsupported gauge norm: {norm!r}")
