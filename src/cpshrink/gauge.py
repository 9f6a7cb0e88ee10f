"""Symmetric gauge functions and the unitarily invariant matrix norms they induce.

A gauge norm is evaluated on a vector of singular values that has already been
zero-padded to a common length, so norms of matrices with different shapes can
be compared on equal footing. Three families are supported: Ky Fan sums,
Schatten p-norms, and positive combinations of the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, isfinite

import numpy as np

from .errors import DimensionMismatch
from .spectral import singular_values

__all__ = [
    "Combination",
    "GaugeNorm",
    "KyFan",
    "Schatten",
    "fan_dominance",
    "format_norm",
    "gauge_eval",
    "norm_of",
    "parse_norm",
]

DOMINANCE_SLACK = 1e-12


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


def _eval_sorted(norm: GaugeNorm, s: np.ndarray):
    if isinstance(norm, KyFan):
        k = min(norm.k, s.shape[-1])
        return s[..., :k].sum(axis=-1)
    if isinstance(norm, Schatten):
        if norm.p == inf:
            return s[..., 0]
        if norm.p == 1.0:
            return s.sum(axis=-1)
        # s_max * ||s / s_max||_p: s ** p alone overflows or underflows for large p
        top = s[..., :1]
        unit = s / np.where(top > 0.0, top, 1.0)
        return s[..., 0] * (unit ** norm.p).sum(axis=-1) ** (1.0 / norm.p)
    if isinstance(norm, Combination):
        total = norm.terms[0][0] * _eval_sorted(norm.terms[0][1], s)
        for c, t in norm.terms[1:]:
            total = total + c * _eval_sorted(t, s)
        return total
    raise TypeError(f"unsupported gauge norm: {norm!r}")


def gauge_eval(norm: GaugeNorm, spectrum):
    """Evaluate ``norm`` on a vector of nonnegative values.

    The last axis holds the spectrum; leading axes are broadcast, so a stack of
    spectra evaluates to a stack of norm values. A 1-D input returns a float.
    Entries are sorted internally, making the result permutation invariant.
    """
    s = np.asarray(spectrum, dtype=float)
    if s.ndim < 1 or s.shape[-1] < 1:
        raise DimensionMismatch("spectrum must have at least one entry")
    if np.any(s < 0):
        raise ValueError("spectrum entries must be nonnegative")
    out = _eval_sorted(norm, np.flip(np.sort(s, axis=-1), axis=-1))
    return float(out) if s.ndim == 1 else out


def norm_of(norm: GaugeNorm, m, padded_dim: int) -> float:
    """Unitarily invariant norm of ``m``: the gauge of its padded singular values."""
    return float(gauge_eval(norm, singular_values(m, padded_dim)))


def fan_dominance(u, v, slack: float = DOMINANCE_SLACK) -> bool:
    """True when every leading partial sum of sorted ``u`` is bounded by the one for ``v``.

    Partial-sum domination for every k is equivalent to ``u`` being bounded by
    ``v`` under all symmetric gauge functions at once; each comparison carries
    ``slack`` of absolute headroom.
    """
    uu = np.asarray(u, dtype=float)
    vv = np.asarray(v, dtype=float)
    if uu.ndim != 1 or vv.ndim != 1:
        raise DimensionMismatch("fan_dominance expects 1-D vectors")
    if uu.shape != vv.shape:
        raise DimensionMismatch(f"vector lengths differ: {uu.shape[0]} vs {vv.shape[0]}")
    if np.any(uu < 0) or np.any(vv < 0):
        raise ValueError("entries must be nonnegative")
    cu = np.cumsum(np.sort(uu)[::-1])
    cv = np.cumsum(np.sort(vv)[::-1])
    return bool(np.all(cu <= cv + slack))


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
