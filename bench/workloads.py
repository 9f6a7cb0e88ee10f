"""Workload generation: argv lists for ``cpshrink.cli.main`` plus the Kraus arrays
the output checker needs.

Every channel seed and every ``--seed`` passed to the CLI derives from the
benchmark seed, so one seed gives one set of inputs. Named specs (``random:``,
``cptp:``, ``ptrace:``) are mirrored here from their documented constructions,
and JSON channel files are drawn here and written in the interchange schema, so
the checker's arrays never pass through cpshrink.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("report-grid", "report-small", "verify-fuzz")

# Seconds one pass takes on a 2-core Xeon (Python 3.11, numpy 2.4, OpenBLAS 0.3.31)
# in a slow phase of the host (reference.py measures the phases), rounded up;
# a fast phase takes about 0.6 of this. A run makes round(--seconds / nominal)
# passes, so both sides of a comparison do the same work and the tail
# percentile stays put, and a run of the slowest phase seen (2x) stays under
# 50 s at --seconds 30.
NOMINAL_PASS_S = {"report-grid": 13.0, "report-small": 5.0, "verify-fuzz": 3.0}

# (kind, d_in, d_out, n_kraus); for ptrace the shape is (d_b * d_c, d_b, d_c).
# d_in 2..8. The shapes below d_in 6 come twice (two channel draws, or for
# ptrace two search seeds) and the d_in = 4 ones three times: over the two
# passes of a run, the per-command median then falls on the middle ptrace 4->2
# report and the tail on the middle random 4x4 one, so each is the middle of
# three similar commands rather than one command. The square random channels
# are rank one, whose factor the search's analytic starts attain for every
# norm, so gap_frac here moves with the search on the cptp and ptrace entries,
# not with the draw.
GRID = (
    *2 * (
        ("random", 2, 2, 1),
        ("cptp", 2, 3, 1),
        ("cptp", 3, 2, 2),
        ("random", 3, 3, 1),
        ("ptrace", 4, 2, 2),
        ("random", 4, 4, 1),
        ("cptp", 5, 3, 2),
    ),
    ("ptrace", 4, 2, 2),
    ("random", 4, 4, 1),
    ("ptrace", 6, 3, 2),
    ("random", 8, 8, 1),
)

# d_in, d_out in 2..3. The named channels are rank one, so the search's
# analytic starts attain every factor. The "file" channels are fixed templates
# turned by seed-drawn unitaries and read from JSON: every Kraus array changes
# with the seed, but no gauge-norm factor does, so gap_frac moves with the
# search rather than with the draw.
SMALL = (
    ("random", 3, 3, 1),
    ("random", 2, 3, 1),
    ("file", 2, 2, 2),
    ("file", 3, 3, 2),
    ("file", 2, 3, 2),
    ("file", 3, 2, 2),
)
SMALL_NORMS = (
    "schatten:1",
    "schatten:1.5",
    "schatten:2",
    "schatten:3",
    "schatten:inf",
    "kyfan:1",
    "kyfan:2",
    "kyfan:3",
    "combo:1*kyfan:1+1*schatten:1",
    "combo:0.5*schatten:2+2*kyfan:2",
)

TEMPLATE_SEED = 2010
CLI_DEFAULT_NORM_COUNT = 3  # schatten:inf, schatten:2, schatten:1

VERIFY_COMMANDS = 6
VERIFY_CHANNELS = 25
VERIFY_DIMS = "2..6"
VERIFY_TRIALS = 20


@dataclass(frozen=True)
class Command:
    """One CLI invocation. ``kraus`` is the (n, d_out, d_in) set a report is
    checked against; ``norms`` is the number of norm rows it must print."""

    argv: tuple[str, ...]
    kind: str
    kraus: np.ndarray | None = None
    norms: int = 0


def random_kraus(d_in: int, d_out: int, n: int, seed) -> np.ndarray:
    """Mirror of ``random:`` (i.i.d. complex Gaussian entries, real part drawn first)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d_out, d_in)) + 1j * rng.standard_normal((n, d_out, d_in))


def cptp_kraus(d_in: int, d_out: int, n: int, seed: int) -> np.ndarray:
    """Mirror of ``cptp:`` (QR isometry of a Gaussian draw, sliced into row blocks)."""
    rng = np.random.default_rng(seed)
    shape = (n * d_out, d_in)
    q, _ = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return q.reshape(n, d_out, d_in)


def ptrace_kraus(d_b: int, d_c: int) -> np.ndarray:
    """Mirror of ``ptrace:`` (projections onto the traced factor's basis states)."""
    return np.stack([np.kron(np.eye(d_b), np.eye(d_c)[c : c + 1]) for c in range(d_c)]).astype(complex)


def haar_unitary(d: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def turned_template(d_in: int, d_out: int, n: int, rng) -> np.ndarray:
    """W E V for a fixed template set E: Phi(X) = W Phi_E(V X V†) W† has the same
    factor as Phi_E under every unitarily invariant norm."""
    template = random_kraus(d_in, d_out, n, [TEMPLATE_SEED, d_in, d_out, n])
    return haar_unitary(d_out, rng) @ template @ haar_unitary(d_in, rng)


def write_channel(path: Path, kraus: np.ndarray) -> None:
    n, d_out, d_in = kraus.shape
    doc = {
        "d_in": d_in,
        "d_out": d_out,
        "kraus": [[[[float(z.real), float(z.imag)] for z in row] for row in op] for op in kraus],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def _channel(kind, d_in, d_out, n, rng, workdir: Path, idx: int) -> tuple[str, np.ndarray]:
    if kind == "ptrace":
        return f"ptrace:{d_out}x{n}", ptrace_kraus(d_out, n)
    if kind == "file":
        path = workdir / f"channel-{idx}.json"
        kraus = turned_template(d_in, d_out, n, rng)
        write_channel(path, kraus)
        return str(path), kraus
    seed = int(rng.integers(2**31))
    if kind == "random":
        return f"random:{d_in}x{d_out}x{n}:{seed}", random_kraus(d_in, d_out, n, seed)
    return f"cptp:{d_in}x{d_out}x{n}:{seed}", cptp_kraus(d_in, d_out, n, seed)


def _reports(mix, norms, search, rng, workdir) -> list[Command]:
    cmds = []
    for idx, (kind, d_in, d_out, n) in enumerate(mix):
        source, kraus = _channel(kind, d_in, d_out, n, rng, workdir, idx)
        argv = ["report", "--channel", source, "--format", "json", *search]
        argv += ["--seed", str(int(rng.integers(2**31)))]
        for norm in norms:
            argv += ["--norm", norm]
        cmds.append(Command(tuple(argv), "report", kraus, len(norms) or CLI_DEFAULT_NORM_COUNT))
    return cmds


def build(workload: str, seed: int, workdir: Path, tiny: bool = False) -> list[Command]:
    """Commands of one pass of ``workload``. ``tiny`` shrinks every dimension of
    the workload for the benchmark's own tests; it is never used for measurement."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "report-grid":
        # the CLI's default norms and default --restarts 20 --steps 40
        mix, search = (GRID[:2], ["--restarts", "2", "--steps", "3"]) if tiny else (GRID, [])
        return _reports(mix, (), search, rng, workdir)
    if workload == "report-small":
        mix = SMALL[2:4] if tiny else SMALL
        search = ["--restarts", "1", "--steps", "2"] if tiny else []
        return _reports(mix, SMALL_NORMS, search, rng, workdir)
    count, channels, trials = (1, 3, 2) if tiny else (VERIFY_COMMANDS, VERIFY_CHANNELS, VERIFY_TRIALS)
    return [
        Command(
            (
                "verify", "--random", str(channels), "--dims", VERIFY_DIMS,
                "--trials", str(trials), "--seed", str(int(rng.integers(2**31))),
            ),
            "verify",
        )
        for _ in range(count)
    ]
