"""Command line front end: shrink-factor reports and inequality verification."""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from functools import partial

import numpy as np

from .channel import (
    KrausChannel,
    complex_gaussian,
    identity_channel,
    invariant_pair,
    kraus_vectors,
    matrix_to_entries,
    orthonormal_columns,
    partial_trace_channel,
    random_channel,
    random_cptp_channel,
    remix_product,
)
from .errors import ChannelFormatError, ConvergenceFailure
from .gauge import KyFan, format_norm, parse_norm
from .shrink import (
    check_gauge_bounds,
    check_kyfan_bounds,
    norm_battery,
    padded_dim_for,
    shrink_report,
    shrink_upper_bound,
)
from .spectral import hermitian_eigenvalues, hermitize, is_psd, random_hermitian
from .spectral import spectral_norm  # unused; bench/tracer.py wraps cli.spectral_norm by name

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

REPORT_FUZZ_INPUTS = 25
REMIX_CHECKS = 2
# matrix entries of the inputs that verify checks in one stacked pass (1 MiB of complex128)
VERIFY_BLOCK_ENTRIES = 2**16
DEFAULT_NORMS = ("schatten:inf", "schatten:2", "schatten:1")
SUITES = ("ky fan inequality (per k)", "gauge norm battery", "remix invariance", "choi positivity")
NORM_COLUMN = 27


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ChannelFormatError(f"{what}: expected an integer, got {text!r}") from exc


def _parse_dims(text: str, what: str, count: int) -> list[int]:
    parts = text.split("x")
    if len(parts) != count:
        raise ChannelFormatError(f"{what}: expected {count} values joined by 'x', got {text!r}")
    dims = [_parse_int(p, what) for p in parts]
    if any(d < 1 for d in dims):
        raise ChannelFormatError(f"{what}: dimensions must be positive, got {text!r}")
    return dims


def resolve_channel(source: str) -> KrausChannel:
    """Build a channel from a named constructor spec or a JSON file path.

    Named forms: ``identity:<d>``, ``ptrace:<dB>x<dC>``,
    ``random:<dIn>x<dOut>x<n>:<seed>``, ``cptp:<dIn>x<dOut>x<n>:<seed>``.
    Anything else is treated as a path to a channel JSON document.
    """
    if source.startswith("identity:"):
        d = _parse_int(source[len("identity:"):], "identity dimension")
        if d < 1:
            raise ChannelFormatError(f"identity dimension must be positive, got {d}")
        return identity_channel(d)
    if source.startswith("ptrace:"):
        d_b, d_c = _parse_dims(source[len("ptrace:"):], "ptrace dimensions", 2)
        return partial_trace_channel(d_b, d_c)
    if source.startswith("random:") or source.startswith("cptp:"):
        kind, _, rest = source.partition(":")
        shape_text, sep, seed_text = rest.partition(":")
        if not sep:
            raise ChannelFormatError(f"{kind} spec needs a seed: {kind}:<dIn>x<dOut>x<n>:<seed>")
        d_in, d_out, n_kraus = _parse_dims(shape_text, f"{kind} shape", 3)
        seed = _parse_int(seed_text, f"{kind} seed")
        if seed < 0:
            raise ChannelFormatError(f"{kind} seed: expected a non-negative integer, got {seed_text!r}")
        if kind == "random":
            return random_channel(d_in, d_out, n_kraus, 1.0, seed)
        return random_cptp_channel(d_in, d_out, n_kraus, seed)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ChannelFormatError(f"cannot read channel file {source!r}: {exc}") from exc
    # finite entries whose invariant pair overflows raise the named NonFinite error on
    # construction, since s and t are read first; numpy's warnings would only precede it
    with np.errstate(over="ignore", invalid="ignore"):
        return KrausChannel.from_json(text)


def _count(ok: np.ndarray) -> tuple[int, int]:
    # a flag array's (cases, failures): a case is one flag, and a failure is one False
    return ok.size, ok.size - int(np.count_nonzero(ok))


def _report_doc(args, phi: KrausChannel) -> dict:
    norms = [parse_norm(t) for t in (args.norm or DEFAULT_NORMS)]
    rep = shrink_report(phi, norms, args.restarts, args.steps, args.seed)

    rng = np.random.default_rng(args.seed)
    xs = random_hermitian(phi.d_in, rng, REPORT_FUZZ_INPUTS)
    checks, failures = _count(check_kyfan_bounds(phi, xs).ok)

    return {
        "channel": {
            "source": args.channel,
            "d_in": phi.d_in,
            "d_out": phi.d_out,
            "kraus_count": phi.n_kraus,
        },
        "invariants": {
            "identity_image_norm": rep.spectral_factor,
            "adjoint_identity_image_norm": rep.trace_factor,
        },
        "factors": {
            "upper_bound": rep.upper_bound,
            "spectral": rep.spectral_factor,
            "trace": rep.trace_factor,
            "padded_dim": rep.padded_dim,
        },
        "norms": [
            {
                "norm": format_norm(b.norm),
                "empirical_lower": b.empirical_lower,
                "upper_bound": b.upper,
                "gap": b.upper - b.empirical_lower,
            }
            for b in rep.per_norm
        ],
        "verification": {"inputs": REPORT_FUZZ_INPUTS, "checks": checks, "failures": failures},
        "parameters": {"restarts": args.restarts, "steps": args.steps, "seed": args.seed},
    }


def _print_report_text(doc: dict) -> None:
    ch = doc["channel"]
    print(f"channel {ch['source']}: d_in={ch['d_in']} d_out={ch['d_out']} kraus={ch['kraus_count']}")
    inv = doc["invariants"]
    # every float prints as repr, its shortest text that reads back exactly, as json.dumps writes it
    print(
        f"invariant norms: |Phi(I)|_inf={inv['identity_image_norm']!r} "
        f"|Phi*(I)|_inf={inv['adjoint_identity_image_norm']!r}"
    )
    fac = doc["factors"]
    print(
        f"factors: upper={fac['upper_bound']!r} spectral={fac['spectral']!r} trace={fac['trace']!r} "
        f"padded_dim={fac['padded_dim']}"
    )
    # the norm column is at least 27 wide and fits the longest label, plus one space
    width = max([NORM_COLUMN] + [len(row["norm"]) for row in doc["norms"]])
    print(f"{'norm':<{width + 1}}{'empirical_lower':<26}{'upper_bound':<26}gap")
    for row in doc["norms"]:
        print(f"{row['norm']:<{width}} {row['empirical_lower']!r:<26}{row['upper_bound']!r:<26}{row['gap']!r}")
    ver = doc["verification"]
    print(
        f"per-k inequality fuzz: {ver['inputs']} inputs, {ver['checks']} checks, "
        f"{ver['failures']} failures"
    )
    par = doc["parameters"]
    print(f"parameters: restarts={par['restarts']} steps={par['steps']} seed={par['seed']}")


def _cmd_report(args) -> int:
    phi = resolve_channel(args.channel)
    doc = _report_doc(args, phi)
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        _print_report_text(doc)
    return EXIT_OK


def _remixed_close(mixed: np.ndarray, base: np.ndarray) -> np.ndarray:
    # one flag per matrix of the stack mixed, entrywise and relative to the largest entry of
    # its base matrix (base broadcasts against mixed), so it holds at any Kraus scale
    return np.abs(mixed - base).max(axis=(-2, -1)) <= 1e-9 * np.abs(base).max(axis=(-2, -1))


def _remix_heights(n_kraus: int) -> range:
    # the row counts of a channel's REMIX_CHECKS remix isometries: square, then two rows taller each
    return range(n_kraus, n_kraus + 2 * REMIX_CHECKS, 2)


def _choi_suites(run: list[KrausChannel], isometries: list[list[np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Remix invariance ``(channels, REMIX_CHECKS)`` and Choi positivity ``(channels,)`` of a
    run of channels, each remixed by its isometries, with no Choi matrix formed.

    Each channel's Kraus set is copied into one zero-padded stack
    ``(channels, K, d_out, d_in)`` at the run's largest counts. Zero operators and zero rows
    and columns leave a channel's pair and Choi spectrum as they are, apart from zero
    padding and extra zero eigenvalues. Each isometry ``v`` becomes ``v ⊕ I`` on the
    channel's zero operators, zero rows between them and ``I`` in the last K rows, so it
    stays an isometry of the padded stack, every remix keeps its nonzero rows where they
    were, and every remix comes from one ``remix_product`` call. A channel's isometries are
    ``_remix_heights(k)`` rows tall, so the padded ones are ``_remix_heights(K)[-1]`` rows
    tall. One ``invariant_pair`` call reads every channel's own pair from the padded stack,
    not through ``remix_product``, and one more every remixed pair. A remix keeps the pair
    when each of its two operators is entrywise within ``1e-9`` times the largest entry of
    the channel's own. The Choi facts are read from the vectorized Kraus operators ``V``
    (``kraus_vectors``, ``Choi = Vᵀ V̄``). Choi's nonzero eigenvalues are those of the Gram
    ``V̄ Vᵀ``, since ``XY`` and ``YX`` share theirs. For a remix ``F`` of ``E``,
    ``Choi(F) - Choi(E) = Aᵀ S Ā`` with ``A = [V_F; V_E]`` and ``S = diag(I, -I)``; with
    ``Aᵀ = QR`` that is ``Q (R S R†) Q†``, so its spectral norm is the largest eigenvalue
    magnitude of the Hermitian ``R S R†``. It must be within ``1e-9`` times Choi's largest
    entry, which for a PSD matrix is its largest diagonal entry,
    ``max_(i, a) sum_n |E_n[a, i]|²``. So the run takes one Gram product and one ``is_psd``
    solve, and one QR, one product and one solve for the remixes.
    """
    n_kraus, d_out, d_in = (max(getattr(phi, a) for phi in run) for a in ("n_kraus", "d_out", "d_in"))
    rows = _remix_heights(n_kraus)[-1]
    # the padded Kraus stack, held as its vectors so that kraus_vectors(ops) is a view of them
    ops = np.zeros((len(run), n_kraus, d_in, d_out), dtype=np.complex128).swapaxes(-2, -1)
    v = np.zeros((len(run), REMIX_CHECKS, rows, n_kraus), dtype=np.complex128)
    # the identity on the last K rows: zero operator k of a channel maps to row rows - K + k,
    # below every isometry's own rows; a channel's own columns take its isometries instead
    v[..., rows - n_kraus:, :] = np.eye(n_kraus)
    for c, (phi, vs) in enumerate(zip(run, isometries)):
        k = phi.n_kraus
        ops[c, :k, :phi.d_out, :phi.d_in] = phi.kraus
        v[c, ..., :k] = 0.0
        for i, m in enumerate(vs):
            v[c, i, :len(m), :k] = m
    mixed = remix_product(v, ops[:, None])
    # each remixed pair against its channel's own, both read from the padded stack, neither kept
    held = np.logical_and(*map(_remixed_close, invariant_pair(mixed), (p[:, None] for p in invariant_pair(ops))))
    own = kraus_vectors(ops)
    psd = is_psd(own.conj() @ own.swapaxes(-2, -1))
    top = (np.abs(own) ** 2).sum(axis=-2).max(axis=-1)
    # A of each channel and remix: the remixed operators' vectors, then from row `rows` the channel's own
    own = np.broadcast_to(own[:, None], (len(run), REMIX_CHECKS, *own.shape[1:]))
    stack = np.concatenate([kraus_vectors(mixed), own], axis=-2)
    # the QR copies the stack: free the run's other padded arrays first, so that they are
    # never alive beside that copy
    del ops, own, mixed
    r = np.linalg.qr(stack.swapaxes(-2, -1), mode="r")
    # on an exact remix R S R† is rounding alone, so only its hermitized form is Hermitian
    # within the tolerance relative to its own largest entry
    w = hermitian_eigenvalues(hermitize((r * np.repeat([1.0, -1.0], [rows, n_kraus])) @ r.conj().swapaxes(-2, -1)))
    held &= np.maximum(w[..., 0], -w[..., -1]) <= 1e-9 * top[:, None]
    return held, psd


def _blocks(channels: list[KrausChannel], trials: int):
    """Runs of consecutive channels whose trials hold at most ``VERIFY_BLOCK_ENTRIES``
    entries together, a channel over it being a block alone, each with the trial counts
    in which the block draws and checks its inputs and the number of channels each
    ``_choi_suites`` run takes. A trial counts ``padded_dim_for(phi)**2`` entries, so its
    image is counted too. One rule sizes both passes: a step takes ``max(1, cap //
    entries)``, so memory stays bounded at any ``--trials`` and a block within the cap
    takes one count, all its trials."""
    blocks: list[list[KrausChannel]] = []
    entries = 0
    for phi in channels:
        size = trials * padded_dim_for(phi) ** 2
        if not blocks or entries + size > VERIFY_BLOCK_ENTRIES:
            blocks.append([])
            entries = 0
        blocks[-1].append(phi)
        entries += size
    for block in blocks:
        step = max(1, VERIFY_BLOCK_ENTRIES // sum(padded_dim_for(phi) ** 2 for phi in block))
        n_kraus, d_in, d_out = (max(getattr(phi, a) for phi in block) for a in ("n_kraus", "d_in", "d_out"))
        # a channel's share of a run's stack (channels, REMIX_CHECKS, rows + K, d_in d_out) on the
        # block's padded grid, rows being the height of the tallest remix isometry
        run = max(1, VERIFY_BLOCK_ENTRIES // (REMIX_CHECKS * (_remix_heights(n_kraus)[-1] + n_kraus) * d_in * d_out))
        yield block, [min(step, trials - start) for start in range(0, trials, step)], run


def _cmd_verify(args) -> int:
    for flag, count in (("--random", args.random), ("--trials", args.trials)):
        if count is not None and count < 1:
            raise ValueError(f"{flag} must be at least 1, got {count}")
    rng = np.random.default_rng(args.seed)
    channels: list[KrausChannel] = []
    if args.channel is not None:
        channels.append(resolve_channel(args.channel))
    else:
        lo_hi = args.dims.split("..")
        if len(lo_hi) != 2:
            raise ChannelFormatError(f"--dims expects <lo>..<hi>, got {args.dims!r}")
        lo = _parse_int(lo_hi[0], "--dims low end")
        hi = _parse_int(lo_hi[1], "--dims high end")
        if not 1 <= lo <= hi:
            raise ChannelFormatError(f"--dims range is empty or invalid: {args.dims!r}")
        for _ in range(args.random):
            d_in = int(rng.integers(lo, hi + 1))
            d_out = int(rng.integers(lo, hi + 1))
            n_kraus = int(rng.integers(1, 4))
            sub = int(rng.integers(2**31))
            channels.append(random_channel(d_in, d_out, n_kraus, 1.0, sub))

    tally = {name: [] for name in SUITES}  # each suite's (cases, failures), per chunk or block
    witness: dict | None = None
    for block, counts, run in _blocks(channels, args.trials):
        padded = np.array([padded_dim_for(phi) for phi in block])
        battery = norm_battery(int(padded.max()))
        # the battery's Ky Fan rows are KyFan(1..padded) of the block; a channel reads those
        # up to its own padded dimension, the per-k suite, since the rest repeat its trace norm
        orders = np.array([n.k if isinstance(n, KyFan) else 0 for n in battery])[:, None]
        rows = orders <= padded  # (norms, channels)
        # every draw in channel order: a channel's inputs, then the Gaussians of its remix
        # isometries as random_isometry draws them. A lone channel over the cap draws and
        # checks its inputs chunk by chunk before its Gaussians: the stream is the same,
        # since random_hermitian reads a stack as that many single draws
        gaussians: list[np.ndarray] = []
        # the block's lowest-indexed channel with a failing trial and its first failing input:
        # only a one-channel block takes more than one chunk, so the earliest chunk's holds
        slot: tuple = ()
        for i, count in enumerate(counts):
            inputs = []
            for phi in block:
                inputs.append(random_hermitian(phi.d_in, rng, count))
                if i == len(counts) - 1:
                    gaussians += [complex_gaussian(rng, (h, phi.n_kraus)) for h in _remix_heights(phi.n_kraus)]
            ok = check_gauge_bounds(block, inputs, battery).ok  # (norms, channels, count)
            # a trial fails when it fails any of its channel's battery rows (the per-k suite among them)
            trial_ok = (ok | ~rows[:, :, None]).all(axis=0)  # (channels, count)
            if not slot and not trial_ok.all():
                c = int(np.argmin(trial_ok.all(axis=1)))
                slot = (c, inputs[c][np.argmin(trial_ok[c])])
            for name, flags in zip(SUITES, (ok[rows & (orders > 0)], ok[rows])):
                tally[name].append(_count(flags))
        # one QR per isometry shape for the whole block
        flat = orthonormal_columns(gaussians)
        isometries = [flat[i:i + REMIX_CHECKS] for i in range(0, len(flat), REMIX_CHECKS)]
        remixed, psd = map(np.concatenate, zip(*(
            _choi_suites(block[c:c + run], isometries[c:c + run]) for c in range(0, len(block), run))))
        for name, flags in zip(SUITES[2:], (remixed, psd)):
            tally[name].append(_count(flags))
        # the witness is the first failing channel, as a channel-by-channel pass finds it: the
        # block's first to fail the remix or Choi suite, or the slot's, whichever comes first
        failing = [*np.flatnonzero(~remixed.all(axis=1) | ~psd)[:1], *slot[:1]]
        if witness is None and failing:
            c = int(min(failing))
            witness = {"channel": block[c].to_dict()}
            if slot and slot[0] == c:
                witness["input"] = matrix_to_entries(slot[1])

    totals = {name: tuple(map(sum, zip(*pairs))) for name, pairs in tally.items()}
    print(f"{'suite':<30}{'cases':>8}{'failures':>10}")
    for name, (cases, fails) in totals.items():
        print(f"{name:<30}{cases:>8}{fails:>10}")
    if args.channel is not None:
        print(f"upper bound: {shrink_upper_bound(channels[0])!r}")
    if any(fails for _, fails in totals.values()):
        print("result: FAIL")
        assert witness is not None
        print(json.dumps(witness, indent=2))
        return EXIT_VIOLATION
    print("result: PASS")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # argparse builds a formatter, which reads the terminal size, for every argument
    # it adds; read the width once, as HelpFormatter does (columns - 2), and share it
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="cpshrink",
        description="Shrinking factors of completely positive maps under unitarily invariant norms.",
        formatter_class=formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser(
        "report",
        formatter_class=formatter,
        help="bracket the shrinking factor of one channel per norm",
        description=(
            "Compute the universal upper bound u, the exact factor of every norm with a closed "
            "form, and an empirical lower bound for every other requested norm. The closed forms: "
            "the spectral norm (schatten:inf, kyfan:1), the trace norm (schatten:1, kyfan:k at or "
            "beyond the padded dimension), schatten:2, kyfan:k for k at least the Kraus count K, "
            "positive multiples of these, and every norm when K = 1, whose factor is u. The report "
            f"embeds a per-k inequality fuzz over {REPORT_FUZZ_INPUTS} seeded random inputs."
        ),
    )
    rep.add_argument("--channel", required=True, help="channel JSON file or named constructor")
    rep.add_argument(
        "--norm",
        action="append",
        default=None,
        help="gauge norm spec (repeatable); default: " + " ".join(DEFAULT_NORMS),
    )
    rep.add_argument(
        "--restarts", type=int, default=0, help="random pure-state starts beside the two analytic ones"
    )
    rep.add_argument(
        "--steps", type=int, default=200, help="search steps per start (a cap where the search can stop early)"
    )
    rep.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    rep.add_argument("--format", choices=("text", "json"), default="text")

    ver = sub.add_parser(
        "verify",
        formatter_class=formatter,
        help="fuzz the shrinking inequalities on one channel or many random ones",
    )
    target = ver.add_mutually_exclusive_group(required=True)
    target.add_argument("--channel", help="channel JSON file or named constructor")
    target.add_argument("--random", type=int, metavar="N", help="number of random channels")
    ver.add_argument("--dims", default="2..5", help="dimension range lo..hi for --random")
    ver.add_argument("--trials", type=int, default=20, help="random inputs per channel")
    ver.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {args.seed}")
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_verify(args)
    except (ValueError, OSError) as exc:  # ChannelFormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceFailure as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
