"""Classical channels: an exact oracle for the report's rows at every size.

For a nonnegative ``P`` (``d_out x d_in``) the Kraus operators
``E_ij = sqrt(P_ij) e_i e_j†`` (one per ``P_ij > 0``) give ``Phi(X) = diag(P diag X)``.
Pinching lowers no unitarily invariant norm and ``Phi(X) = Phi(diag X)``, so the
factor for the gauge ``g`` is ``sup g(Px) / g(x)`` over real vectors, and
``|Px| <= P|x|`` makes nonnegative ``x`` enough (R. Bhatia, *Matrix Analysis*, 1997).
The oracle computes it from ``P`` with numpy alone, and nothing of ``cpshrink.gauge``:

- Ky Fan k in closed form. The nonnegative part of the Ky Fan k ball has the
  extreme points ``e_j`` and ``1_S / k`` with ``|S| >= k``, and ``P`` is monotone,
  so ``S`` is every index: the factor is
  ``max(||P 1||_(k) / min(k, d_in), max_j ||P e_j||_(k))``.
- Schatten p as the ``l_p -> l_p`` norm of ``P``, bracketed: from below by Boyd's
  power iteration ``x <- (Pᵀ (Px)^(p-1))^(1/(p-1))`` (D. W. Boyd, Linear Algebra
  Appl. 9, 1974), from above by Schur's test at its iterate: with
  ``a = x^(1/q)`` and ``b^q = P a^q`` (``1/p + 1/q = 1``), ``Pᵀ b^p <= C a^p``
  gives ``||P||_(p->p) <= C^(1/p)``. At Boyd's fixed point the two meet.

The channel has one Kraus operator per nonzero entry of ``P``, so a sparse ``P`` reaches
the rows that the Kraus count decides: every row when ``P`` has one nonzero entry, and
Ky Fan ``k`` with ``nnz(P) <= k < padded_dim``. Those rows are checked for equality with
the oracle. A dense grid over the PSD inputs of a two-dimensional input space checks
them on channels that are not classical, and a grid refined around each norm's best
point is a lower-bound oracle for every searched row at ``d_in = 2``.
"""

import functools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cpshrink import KrausChannel, KyFan, Schatten, parse_norm, random_channel, shrink_report
from cpshrink.cli import resolve_channel

BOYD_STEPS = 10_000
EXPONENTS = (1.5, 3.0)


def classical_channel(p: np.ndarray) -> KrausChannel:
    rows, cols = np.nonzero(p)
    kraus = np.zeros((len(rows), *p.shape))
    kraus[np.arange(len(rows)), rows, cols] = np.sqrt(p[rows, cols])
    return KrausChannel(p.shape[1], p.shape[0], kraus)


def _top_sum(y: np.ndarray, k: int) -> float:
    """Sum of the ``k`` largest entries of ``y``, all of them when ``k`` exceeds its length."""
    return float(np.sort(y)[::-1][:k].sum())


def kyfan_factor(p: np.ndarray, k: int) -> float:
    return max(_top_sum(p.sum(axis=1), k) / min(k, p.shape[1]), max(_top_sum(col, k) for col in p.T))


def _lp(x: np.ndarray, exp: float) -> float:
    return float((x**exp).sum() ** (1.0 / exp))


def schatten_bracket(p: np.ndarray, exp: float) -> tuple[float, float]:
    """``[Boyd, Schur]`` around the ``l_exp -> l_exp`` norm of nonnegative ``p``, iterated
    until the two meet within 1e-15 relative or ``BOYD_STEPS`` run out."""
    x = np.ones(p.shape[1])
    for _ in range(BOYD_STEPS):
        x = (p.T @ (p @ x) ** (exp - 1.0)) ** (1.0 / (exp - 1.0))
        x /= x.max()
        lower = _lp(p @ x, exp) / _lp(x, exp)
        # a^q = x, b^q = P x (so C_1 = 1), b^p = (P x)^(p-1), a^p = x^(p-1); a zero column of P
        # is a zero entry of x and of Pᵀ b^p alike, and bounds nothing
        lhs, ap = p.T @ (p @ x) ** (exp - 1.0), x ** (exp - 1.0)
        on = ap > 0.0
        assert not lhs[~on].any()
        upper = float((lhs[on] / ap[on]).max() ** (1.0 / exp))
        if upper - lower <= 1e-15 * upper:
            break
    return lower, upper


@st.composite
def nonnegative_matrices(draw) -> np.ndarray:
    """``d_out x d_in`` with d 2..6, entries 0 or in [1e-3, 1], and a whole zero row or column
    at times, but not all zero. The range keeps Boyd's iterate far from underflow; the
    report's own scale invariance is tested elsewhere."""
    d_out, d_in = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    entry = st.just(0.0) | st.floats(1e-3, 1.0)
    p = np.array(draw(st.lists(entry, min_size=d_out * d_in, max_size=d_out * d_in))).reshape(d_out, d_in)
    row, col = draw(st.none() | st.integers(0, d_out - 1)), draw(st.none() | st.integers(0, d_in - 1))
    if row is not None:
        p[row] = 0.0
    if col is not None:
        p[:, col] = 0.0
    assume(p.any())
    return p


def test_oracle_on_known_channels():
    # a permutation keeps every norm; the trace on 3 x 3 inputs (P a row of ones) takes
    # |tr X| / ||X||_(k) to 3 / k at X = I, and ||x||_1 / ||x||_p to ||1||_q = 3^(1 - 1/p)
    perm = np.eye(4)[[2, 0, 3, 1]]
    assert [kyfan_factor(perm, k) for k in (1, 2, 4, 6)] == [1.0, 1.0, 1.0, 1.0]
    ones = np.ones((1, 3))
    assert [kyfan_factor(ones, k) for k in (1, 2, 3)] == [3.0, 1.5, 1.0]
    for exp in EXPONENTS:
        lower, upper = schatten_bracket(ones, exp)
        assert upper - lower <= 1e-15 * upper
        np.testing.assert_allclose([lower, upper], 3.0 ** (1.0 - 1.0 / exp), rtol=1e-14)
        np.testing.assert_allclose(schatten_bracket(perm, exp), 1.0, rtol=1e-14)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(nonnegative_matrices())
def test_default_report_meets_the_oracle(p):
    # no searched row exceeds the exact factor by more than 1e-12 u, and the Schatten rows
    # reach it within 1e-11 u (not on every sparse P: see the next test); Ky Fan rows may
    # fall short (the default schedule's two analytic starts miss some pure-state optima),
    # so only their upper side is checked.
    # The exact rows match the oracle too: s, t and h = ||P||_2 at Ky Fan 1, Ky Fan
    # padded and Schatten 2
    phi = classical_channel(p)
    padded = max(p.shape)
    u = max(p.sum(axis=1).max(), p.sum(axis=0).max())
    kyfans = [KyFan(k) for k in range(1, padded + 1)]
    rep = shrink_report(phi, [Schatten(e) for e in EXPONENTS] + [Schatten(2.0)] + kyfans, restarts=0, steps=200)
    assert abs(rep.upper_bound - u) <= 1e-14 * u
    schatten, h, (first, *searched, last) = rep.per_norm[:2], rep.per_norm[2], rep.per_norm[3:]
    for row, exp in zip(schatten, EXPONENTS):
        lower, upper = schatten_bracket(p, exp)
        assert upper - lower <= 1e-13 * u
        assert row.empirical_lower <= upper + 1e-12 * u
        assert row.empirical_lower >= lower - 1e-11 * u
    for row in searched:
        assert row.empirical_lower <= kyfan_factor(p, row.norm.k) + 1e-12 * u
    exact = [(h, np.linalg.norm(p, 2)), (first, kyfan_factor(p, 1)), (last, kyfan_factor(p, padded))]
    for row, want in exact:
        assert abs(row.empirical_lower - want) <= 1e-12 * u


@pytest.mark.xfail(strict=True, reason="the default schedule stops 7.5e-5 u short of this Schatten-3 optimum")
def test_default_report_reaches_a_near_tied_schatten_optimum():
    # columns 0 and 2 feed disjoint rows, so the Schatten-3 factor is the larger of their l_3
    # norms, 0.4979 and 0.5: the optimum is the pure state e_2, which neither analytic start
    # is (the trace witness is e_0, the column of largest total), and the search creeps
    # toward it at a linear rate. 200 steps leave it 7.5e-5 u short, 2000 steps 3.7e-11 u
    p = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.3125, 0.0, 0.0], [0.453125, 0.0, 0.0]])
    lower, _ = schatten_bracket(p, 3.0)
    assert lower == pytest.approx(0.5, rel=1e-15)
    row = shrink_report(classical_channel(p), [Schatten(3.0)], restarts=0, steps=200).per_norm[0]
    assert row.empirical_lower >= lower - 1e-11 * row.upper


@st.composite
def sparse_nonnegative_matrices(draw) -> np.ndarray:
    """``d_out x d_in`` with d 2..6 and one to five nonzero entries in [1e-3, 1], so one to five
    Kraus operators."""
    d_out, d_in = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    cells = draw(st.lists(st.integers(0, d_out * d_in - 1), min_size=1, max_size=5, unique=True))
    p = np.zeros(d_out * d_in)
    p[cells] = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(cells), max_size=len(cells)))
    return p.reshape(d_out, d_in)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sparse_nonnegative_matrices())
def test_kraus_count_rows_meet_the_oracle(p):
    # the Kraus count is nnz(P): Ky Fan k with nnz(P) <= k < padded equals the closed form,
    # and with one nonzero entry every row does, Schatten and combinations included
    phi = classical_channel(p)
    padded = max(p.shape)
    u = max(p.sum(axis=1).max(), p.sum(axis=0).max())
    kyfans = [KyFan(k) for k in range(1, padded + 1)]
    extra = [parse_norm(spec) for spec in ("combo:1*kyfan:1+1*schatten:1", "combo:0.5*schatten:2+2*kyfan:2")]
    rows = shrink_report(phi, [Schatten(e) for e in EXPONENTS] + kyfans + extra, restarts=0, steps=200).per_norm
    schatten, kyfan_rows, combos = rows[:2], rows[2:2 + padded], rows[2 + padded:]
    for row in kyfan_rows:
        if phi.n_kraus <= row.norm.k:
            assert abs(row.empirical_lower - kyfan_factor(p, row.norm.k)) <= 1e-14 * u
    if phi.n_kraus == 1:
        # one entry P_ij: every norm's factor is P_ij, which both oracles read
        (value,) = p[p > 0]
        for row, exp in zip(schatten, EXPONENTS):
            lower, upper = schatten_bracket(p, exp)
            assert abs(row.empirical_lower - value) <= 1e-14 * u
            assert lower - 1e-14 * u <= row.empirical_lower <= upper + 1e-14 * u
        for row in (*kyfan_rows, *combos):
            assert abs(row.empirical_lower - value) <= 1e-14 * u


def _psd_grid(steps: int) -> np.ndarray:
    """PSD 2 x 2 inputs ``vv† + r ww†`` with ``(v, w)`` an orthonormal pair on a grid of the
    Bloch sphere and ``r`` on a grid of [0, 1]: the PSD inputs up to scale, finer with ``steps``."""
    theta, phase, r = np.meshgrid(np.linspace(0.0, np.pi, steps + 1), np.linspace(0.0, 2 * np.pi, 2 * steps,
                                  endpoint=False), np.linspace(0.0, 1.0, steps // 3 + 1), indexing="ij")
    c, s = np.cos(theta / 2), np.exp(1j * phase) * np.sin(theta / 2)
    v, w = np.stack([c, s], axis=-1), np.stack([-s.conj(), c], axis=-1)
    outer = lambda a: a[..., :, None] * a[..., None, :].conj()
    return (outer(v) + r[..., None, None] * outer(w)).reshape(-1, 2, 2)


def _gauge(spec: tuple, eigs: np.ndarray) -> np.ndarray:
    """A gauge ``((c, family, order), ...)`` of PSD spectra: Ky Fan ``k`` or Schatten ``p``."""
    y = np.sort(np.abs(eigs), axis=-1)[..., ::-1]
    parts = [c * (y[..., :a].sum(axis=-1) if family == "kyfan" else (y**a).sum(axis=-1) ** (1.0 / a))
             for c, family, a in spec]
    return sum(parts)


# each norm as the grid oracle reads it, and as the report reads it
GRID_NORMS = {
    "kyfan:1": ((1.0, "kyfan", 1),),
    "kyfan:2": ((1.0, "kyfan", 2),),
    "schatten:3": ((1.0, "schatten", 3.0),),
    "schatten:1.5": ((1.0, "schatten", 1.5),),
    "combo:0.5*schatten:2+2*kyfan:2": ((0.5, "schatten", 2.0), (2.0, "kyfan", 2)),
    "combo:1*schatten:3+1*kyfan:1": ((1.0, "schatten", 3.0), (1.0, "kyfan", 1)),
}


@pytest.mark.parametrize("shape, seed, specs", [
    ((2, 2, 1), 3, tuple(GRID_NORMS)),
    ((2, 3, 1), 4, tuple(GRID_NORMS)),
    # two Kraus operators into three dimensions: Ky Fan 2 is max(||Phi(I)||_(2) / 2, t)
    ((2, 3, 2), 5, ("kyfan:2",)),
    ((2, 3, 2), 6, ("kyfan:2",)),
], ids=["2x2x1", "2x3x1", "2x3x2-a", "2x3x2-b"])
def test_kraus_count_rows_meet_a_dense_grid(shape, seed, specs):
    # the largest ratio over a grid of PSD inputs never exceeds an exact row, which bounds every
    # input, beyond rounding, and comes within the grid's resolution of it (2.5e-5 u at most on
    # these channels). At k = d_in the trace projector always wins: ||Phi(I)||_(k) <= tr Phi(I)
    # = tr Phi†(I) <= d_in t
    phi = random_channel(*shape, 1.0, seed)
    xs = _psd_grid(60)
    images = np.einsum("nij,bjk,nlk->bil", phi.kraus, xs, phi.kraus.conj(), optimize=True)
    image_eigs, input_eigs = np.linalg.eigvalsh(images), np.linalg.eigvalsh(xs)
    rows = shrink_report(phi, [parse_norm(spec) for spec in specs], restarts=0, steps=200).per_norm
    # u = max(||Phi(I)||_inf, ||Phi†(I)||_inf)
    u = max(np.linalg.norm(np.einsum("nij,nkj->ik", phi.kraus, phi.kraus.conj()), 2),
            np.linalg.norm(np.einsum("nji,njk->ik", phi.kraus.conj(), phi.kraus), 2))
    for spec, row in zip(specs, rows):
        gauge = GRID_NORMS[spec]
        best = float((_gauge(gauge, image_eigs) / _gauge(gauge, input_eigs)).max())
        assert best <= row.empirical_lower + 1e-12 * u
        assert row.empirical_lower - best <= 1e-4 * u


# The d_in = 2 oracle. Every PSD input of unit norm is a(r) [(1 + r)/2 I + (1 - r)/2 n·σ], with
# n on the Bloch sphere at (θ, φ) and eigenvalues 1 and r in [0, 1], so three real parameters
# reach every norm's factor, the ratio |||Φ(x)||| / |||x||| at its best input, for any d_out and
# K. The oracle takes a 13 x 24 x 7 grid in (θ, φ, r), then 10 rounds of a 5 x 5 x 5 grid around
# each of three starts per norm, its best point, its best with r < 1 and its best with r < 1 whose
# n lies beyond the second start's reach, the grid's width times 0.6 each round and r clipped to
# [0, 1]. Every point is a real input, so the oracle is a lower bound on the factor, found
# without the search.
QUBIT_NORMS = {
    "schatten:3": ((1.0, "schatten", 3.0),),
    "schatten:1.5": ((1.0, "schatten", 1.5),),
    "schatten:4": ((1.0, "schatten", 4.0),),
    "schatten:1.2": ((1.0, "schatten", 1.2),),
    "combo:1*kyfan:1+1*schatten:1": ((1.0, "kyfan", 1), (1.0, "schatten", 1.0)),
    "combo:0.5*schatten:2+2*kyfan:2": ((0.5, "schatten", 2.0), (2.0, "kyfan", 2)),
}
QUBIT_CHANNELS = [f"{kind}:2x{d_out}x{k}:{seed}" for kind in ("random", "cptp") for d_out in (2, 3, 4)
                  for k in (2, 3, 4) for seed in range(4)]
# the rows where the default schedule stops at a local maximum below the oracle, short by
# 3.06e-3 u, 2.62e-3 u and 1.28e-3 u (ROADMAP item 18)
QUBIT_SHORT_ROWS = [
    ("cptp:2x3x3:3", "combo:0.5*schatten:2+2*kyfan:2"),
    ("cptp:2x4x4:2", "kyfan:2"),
    ("cptp:2x3x3:0", "combo:0.5*schatten:2+2*kyfan:2"),
]
PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _bloch(points: np.ndarray) -> np.ndarray:
    """The unit Bloch vectors ``n`` of ``points`` ``(..., 3)`` in ``(θ, φ, r)``."""
    theta, phase = points[..., 0], points[..., 1]
    return np.stack([np.sin(theta) * np.cos(phase), np.sin(theta) * np.sin(phase), np.cos(theta)], axis=-1)


def _qubit_spectra(paulis: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The image and input spectra at ``points`` ``(..., 3)`` in ``(θ, φ, r)``, with ``paulis``
    the images of I, σx, σy and σz."""
    r = points[..., 2]
    coefficients = np.concatenate([(1 + r)[..., None] / 2, (1 - r)[..., None] / 2 * _bloch(points)], axis=-1)
    return np.linalg.eigvalsh(np.tensordot(coefficients, paulis, 1)), np.stack([np.ones_like(r), r], axis=-1)


@functools.cache
def _qubit_shortfalls(name: str) -> dict:
    """Each norm's oracle value less the default report's row, in units of ``u``."""
    # random_channel(2, d_out, K, 1.0, seed) or random_cptp_channel(2, d_out, K, seed)
    phi = resolve_channel(name)
    kyfans = range(2, min(phi.n_kraus, phi.d_out))
    norms = {**QUBIT_NORMS, **{f"kyfan:{k}": ((1.0, "kyfan", k),) for k in kyfans}}
    specs, gauges = list(norms), list(norms.values())
    paulis = np.einsum("nij,pjk,nlk->pil", phi.kraus, PAULI, phi.kraus.conj())
    grid = np.stack(np.meshgrid(np.linspace(0, np.pi, 13), np.linspace(0, 2 * np.pi, 24, endpoint=False),
                                np.linspace(0, 1, 7), indexing="ij"), axis=-1).reshape(-1, 3)
    image_eigs, input_eigs = _qubit_spectra(paulis, grid)
    values = np.array([_gauge(g, image_eigs) / _gauge(g, input_eigs) for g in gauges])
    oracle = values.max(axis=1)
    # the grid's spacing in each parameter, times 0.6 each round; each local grid holds its best point
    width = np.array([np.pi / 12, np.pi / 12, 1 / 6])
    # three starts per norm: its best grid point; its best with r < 1, since at r = 1 the input is
    # I whatever n is, and a search from there stays near that point's (θ, φ); and its best with
    # r < 1 whose n is beyond the reach of the second start's search, which moves n at most
    # width / (1 - 0.6) over its rounds. Where the best grid point has r < 1, the second start is it
    inner = np.where(grid[:, 2] < 1, values, -np.inf)
    bloch = _bloch(grid)
    near = bloch[inner.argmax(axis=1)] @ bloch.T > np.cos(width[0] / (1 - 0.6))  # (norms, points)
    best = grid[np.stack([values, inner, np.where(near, -np.inf, inner)], axis=1).argmax(axis=-1)]
    local = np.stack(np.meshgrid(*[np.linspace(-1, 1, 5)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    for _ in range(10):
        points = best[:, :, None] + local * width  # (norms, starts, 125, 3)
        points[..., 2] = points[..., 2].clip(0, 1)
        image_eigs, input_eigs = _qubit_spectra(paulis, points)
        values = np.array([_gauge(g, e) / _gauge(g, x) for g, e, x in zip(gauges, image_eigs, input_eigs)])
        best = np.take_along_axis(points, values.argmax(axis=-1)[..., None, None], axis=2)[:, :, 0]
        oracle = np.maximum(oracle, values.max(axis=(1, 2)))
        width *= 0.6
    rep = shrink_report(phi, [parse_norm(spec) for spec in specs], restarts=0, steps=200)
    # u bounds every input, so no oracle value exceeds it beyond rounding
    assert (oracle <= rep.upper_bound * (1 + 1e-12)).all()
    return {spec: (value - row.empirical_lower) / rep.upper_bound
            for spec, value, row in zip(specs, oracle, rep.per_norm)}


@pytest.mark.parametrize("name", QUBIT_CHANNELS)
def test_default_report_reaches_the_qubit_oracle(name):
    # every row is at least the oracle's value less 1e-9 u, but the known local maxima below
    for spec, shortfall in _qubit_shortfalls(name).items():
        if (name, spec) not in QUBIT_SHORT_ROWS:
            assert shortfall <= 1e-9, (spec, shortfall)


@pytest.mark.xfail(strict=True, reason="the default schedule stops at a local maximum below the oracle")
@pytest.mark.parametrize("name, spec", QUBIT_SHORT_ROWS)
def test_default_report_escapes_the_qubit_local_maxima(name, spec):
    # the trace witness of a cptp channel projects onto whichever eigenvector of Φ†(I) = I
    # eigh returns, which leaves one informed start
    assert _qubit_shortfalls(name)[spec] <= 1e-9
