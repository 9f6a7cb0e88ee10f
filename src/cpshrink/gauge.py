"""Symmetric gauge functions and the unitarily invariant matrix norms they induce.

A gauge norm is evaluated on a vector of singular values that has already been
zero-padded to a common length, so norms of matrices with different shapes can
be compared on equal footing. Three families are supported: Ky Fan sums,
Schatten p-norms, and positive combinations of the two. Each family is defined
once, in ``gauge_value_grad``, which gives the value and the gradient on
descending spectra; ``gauge_eval`` sorts and validates first and keeps the value.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from math import inf, isfinite

import numpy as np

from .errors import DimensionMismatch

__all__ = [
    "Combination",
    "GaugeNorm",
    "KyFan",
    "Schatten",
    "format_norm",
    "gauge_eval",
    "gauge_value_grad",
    "kyfan_weights",
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


def gauge_value_grad(norm: GaugeNorm, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and gradient of ``norm``'s gauge function at descending spectra ``s``.

    The last axis holds the spectrum and leading axes a stack; the value drops
    the last axis and the gradient keeps the shape of ``s``. At a kink (a tie at
    a Ky Fan cut, a zero entry) the gradient is one subgradient, always finite.
    """
    if isinstance(norm, Schatten) and norm.p in (1.0, inf):
        norm = KyFan(1 if norm.p == inf else s.shape[-1])
    if isinstance(norm, KyFan):
        top_k = np.broadcast_to(np.arange(s.shape[-1]) < norm.k, s.shape)
        return s[..., : norm.k].sum(axis=-1), top_k.astype(float)
    if isinstance(norm, Schatten):
        # s_max * ||u||_p with u = s / s_max: s ** p alone overflows or underflows for large p
        top = s[..., :1]
        unit = s / np.where(top > 0.0, top, 1.0)
        size = (unit ** norm.p).sum(axis=-1, keepdims=True) ** (1.0 / norm.p)
        return (top * size)[..., 0], (unit / np.where(size > 0.0, size, 1.0)) ** (norm.p - 1.0)
    if isinstance(norm, Combination):
        parts = [(c, gauge_value_grad(t, s)) for c, t in norm.terms]
        return sum(c * v for c, (v, _) in parts), sum(c * g for c, (_, g) in parts)
    raise TypeError(f"unsupported gauge norm: {norm!r}")


def kyfan_weights(norm: GaugeNorm, n: int) -> np.ndarray | None:
    """Weights ``w`` with ``norm(s) = <w, s>`` for every descending ``s >= 0`` of length ``n``.

    Ky Fan norms, Schatten 1 and inf, and positive combinations of these are
    linear on descending spectra; a norm with a Schatten-p term, 1 < p < inf,
    is not, and gives None.
    """
    terms = norm.terms if isinstance(norm, Combination) else ((1.0, norm),)
    if any(isinstance(t, Schatten) and t.p not in (1.0, inf) for _, t in terms):
        return None
    # a linear gauge's gradient is its weight vector, at any spectrum
    return gauge_value_grad(norm, np.ones(n))[1]


def gauge_eval(norm: GaugeNorm | Sequence[GaugeNorm], spectrum):
    """Evaluate ``norm`` on a vector of nonnegative values.

    The last axis holds the spectrum; leading axes are broadcast, so a stack of
    spectra evaluates to a stack of norm values. A 1-D input returns a float.
    Entries are sorted internally, making the result permutation invariant.

    ``norm`` may also be a sequence of N norms: the spectra are then validated
    and sorted once, each distinct norm is evaluated once, a combination is
    summed from its terms' values as ``gauge_value_grad`` sums them, and the N
    values come stacked on a new leading axis, equal bit for bit to N
    single-norm calls.
    """
    s = np.asarray(spectrum, dtype=float)
    if s.ndim < 1 or s.shape[-1] < 1:
        raise DimensionMismatch("spectrum must have at least one entry")
    if np.any(s < 0):
        raise ValueError("spectrum entries must be nonnegative")
    s = np.flip(np.sort(s, axis=-1), axis=-1)
    if isinstance(norm, GaugeNorm):
        out, _ = gauge_value_grad(norm, s)
        return float(out) if s.ndim == 1 else out
    values = {}

    def value(n: GaugeNorm):
        if n not in values:
            values[n] = (
                sum(c * value(t) for c, t in n.terms) if isinstance(n, Combination) else gauge_value_grad(n, s)[0]
            )
        return values[n]

    norms = list(norm)
    return np.array([value(n) for n in norms], dtype=float).reshape((len(norms),) + s.shape[:-1])


def parse_norm(text: str) -> GaugeNorm:
    """Parse a norm spec: ``kyfan:<k>``, ``schatten:<p>`` or ``combo:<c>*<norm>+...``.

    ``schatten:inf`` selects the spectral norm. Combination example:
    ``combo:1*kyfan:1+0.5*schatten:2``. Coefficients are plain decimals.
    """
    t = text.strip()
    if t.startswith("combo:"):
        terms = []
        body = t[len("combo:"):]
        if not body:
            raise ValueError("empty combination spec")
        for part in body.split("+"):
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
        if arg.lower() in ("inf", "infinity"):
            return Schatten(inf)
        try:
            return Schatten(float(arg))
        except ValueError as exc:
            raise ValueError(f"bad schatten exponent {arg!r}") from exc
    raise ValueError(f"unknown norm family {kind!r} in {text!r}")


def format_norm(norm: GaugeNorm) -> str:
    """Inverse of parse_norm."""
    if isinstance(norm, KyFan):
        return f"kyfan:{norm.k}"
    if isinstance(norm, Schatten):
        return "schatten:inf" if norm.p == inf else f"schatten:{norm.p:g}"
    if isinstance(norm, Combination):
        return "combo:" + "+".join(f"{c:g}*{format_norm(t)}" for c, t in norm.terms)
    raise TypeError(f"unsupported gauge norm: {norm!r}")
