"""Symmetric gauge functions and the unitarily invariant matrix norms they induce.

A gauge norm is evaluated on a vector of singular values that has already been
zero-padded to a common length, so norms of matrices with different shapes can
be compared on equal footing. Three families are supported: Ky Fan sums,
Schatten p-norms, and positive combinations of the two. ``base_terms`` reduces
every norm to its base gauges once, which is where equal norms are told apart;
each base family is defined once, in ``gauge_value_grad``, which gives the value
and, unless told not to, the gradient on descending spectra; ``gauge_eval``
sorts and validates first and asks for values only; ``gauge_parts`` splits a
norm into its linear Ky Fan part and its Schatten terms.
"""

from __future__ import annotations

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
    "gauge_parts",
    "gauge_value_grad",
    "parse_norm",
]


@dataclass(frozen=True)
class KyFan:
    """Sum of the ``k`` largest singular values.

    With ``k`` at or beyond the spectrum length this is the trace norm.
    """

    k: int

    def __post_init__(self):
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


def gauge_value_grad(norm: GaugeNorm, s: np.ndarray, grad: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Value and gradient of ``norm``'s gauge function at descending spectra ``s``.

    The last axis holds the spectrum and leading axes a stack; the value drops
    the last axis and the gradient keeps the shape of ``s``. At a kink (a tie at
    a Ky Fan cut, a zero entry) the gradient is one subgradient, always finite.
    With ``grad=False`` no gradient is built and ``None`` takes its place; the
    value is the same, bit for bit.
    """
    (c, base), *rest = terms = base_terms(norm, s.shape[-1])
    if rest or c != 1.0:
        parts = [(c, gauge_value_grad(t, s, grad)) for c, t in terms]
        value = sum(c * v for c, (v, _) in parts)
        return value, sum(c * g for c, (_, g) in parts) if grad else None
    if isinstance(base, KyFan):
        top_k = np.broadcast_to(np.arange(s.shape[-1]) < base.k, s.shape).astype(float) if grad else None
        return s[..., : base.k].sum(axis=-1), top_k
    # s_max * ||u||_p with u = s / s_max: s ** p alone overflows or underflows for large p
    top = s[..., :1]
    unit = s / np.where(top > 0.0, top, 1.0)
    size = (unit ** base.p).sum(axis=-1, keepdims=True) ** (1.0 / base.p)
    return (top * size)[..., 0], (unit / np.where(size > 0.0, size, 1.0)) ** (base.p - 1.0) if grad else None


@cache
def gauge_parts(norm: GaugeNorm, n: int) -> tuple[np.ndarray, tuple[Schatten, ...], np.ndarray]:
    """``norm`` on descending spectra ``z >= 0`` of length ``n`` as ``<w, z> + sum_j c_j ||z||_{p_j}``.

    Returns the Ky Fan weights ``w`` (the sum of the Ky Fan terms' gradients, which are
    constant), the distinct Schatten bases ``p_j`` (1 < p < inf) in term order, and their
    summed coefficients ``c_j``. A norm with no Schatten base is linear on these spectra,
    ``norm(z) = <w, z>``. Each answer is computed once and shared; do not modify it.
    """
    terms = base_terms(norm, n)
    bases = tuple(dict.fromkeys(b for _, b in terms if isinstance(b, Schatten)))
    w = sum((c * gauge_value_grad(b, np.ones(n))[1] for c, b in terms if isinstance(b, KyFan)), np.zeros(n))
    return w, bases, np.array([sum(c for c, b in terms if b == base) for base in bases])


def gauge_eval(norm: GaugeNorm | Sequence[GaugeNorm], spectrum):
    """Evaluate ``norm`` on a vector of nonnegative values.

    The last axis holds the spectrum; leading axes are broadcast, so a stack of
    spectra evaluates to a stack of norm values. A 1-D input returns a float.
    Entries are sorted internally, making the result permutation invariant.

    ``norm`` may also be a sequence of N norms, and the N values then come
    stacked on a new leading axis. Either way the spectra are validated and
    sorted once, each distinct base of ``base_terms`` is evaluated once, and a
    combination is summed from its bases' values as ``gauge_value_grad`` sums
    them, so equal norms give equal values bit for bit.
    """
    s = np.asarray(spectrum, dtype=float)
    if s.ndim < 1 or s.shape[-1] < 1:
        raise DimensionMismatch("spectrum must have at least one entry")
    if np.any(s < 0):
        raise ValueError("spectrum entries must be nonnegative")
    s = np.flip(np.sort(s, axis=-1), axis=-1)
    norms = [norm] if isinstance(norm, GaugeNorm) else list(norm)
    terms = [base_terms(n, s.shape[-1]) for n in norms]
    bases = dict.fromkeys(b for ts in terms for _, b in ts)
    values = {base: gauge_value_grad(base, s, grad=False)[0] for base in bases}
    out = np.array([sum(c * values[b] for c, b in ts) for ts in terms], dtype=float).reshape(len(norms), *s.shape[:-1])
    if isinstance(norm, GaugeNorm):
        return float(out[0]) if s.ndim == 1 else out[0]
    return out


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
    if kind == "kyfan":
        try:
            return KyFan(int(arg))
        except ValueError as exc:
            raise ValueError(f"bad kyfan order {arg!r}") from exc
    if kind == "schatten":
        try:  # float reads inf and infinity, in any case
            return Schatten(float(arg))
        except ValueError as exc:
            raise ValueError(f"bad schatten exponent {arg!r}") from exc
    raise ValueError(f"unknown norm family {kind!r} in {text!r}")


def _number(x: float) -> str:
    """``x`` in ``:g`` form when that reads back as ``x``, else its shortest exact form."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


def format_norm(norm: GaugeNorm) -> str:
    """Inverse of parse_norm: ``parse_norm(format_norm(n)) == n`` for every norm."""
    if isinstance(norm, KyFan):
        return f"kyfan:{norm.k}"
    if isinstance(norm, Schatten):
        return f"schatten:{_number(norm.p)}"
    if isinstance(norm, Combination):
        return "combo:" + "+".join(f"{_number(c)}*{format_norm(t)}" for c, t in norm.terms)
    raise TypeError(f"unsupported gauge norm: {norm!r}")
