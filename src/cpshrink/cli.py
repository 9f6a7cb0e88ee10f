"""Command line front end: shrink-factor reports and inequality verification."""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from functools import partial

import numpy as np

from . import shrink
from .channel import (
    KrausChannel,
    identity_channel,
    matrix_to_entries,
    partial_trace_channel,
    random_channel,
    random_cptp_channel,
    read_top_projectors,
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
from .spectral import random_hermitian
from .spectral import spectral_norm  # unused; bench/tracer.py wraps cli.spectral_norm by name

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

REPORT_FUZZ_INPUTS = 25
# matrix entries of the inputs that verify checks in one stacked pass (1 MiB of complex128)
VERIFY_BLOCK_ENTRIES = 2**16
DEFAULT_NORMS = ("schatten:inf", "schatten:2", "schatten:1")
SUITES = ("ky fan inequality (per k)", "gauge norm battery", "bound attained")
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


def _blocks(channels: list[KrausChannel], trials: int):
    """Runs of consecutive channels whose inputs hold at most ``VERIFY_BLOCK_ENTRIES``
    entries together, a channel over it being a block alone, each with the trial counts
    in which the block draws and checks its inputs. A channel's inputs are its trials
    and, in the block's last chunk, its two attaining inputs; an input counts
    ``padded_dim_for(phi)**2`` entries, so its image is counted too. A chunk takes
    ``max(2, cap // entries)`` inputs, so memory stays bounded at any ``--trials`` and a
    block within the cap takes all its inputs at once. The short chunk comes first, so
    the last one has room for the attaining pair."""
    blocks: list[list[KrausChannel]] = []
    entries = 0
    for phi in channels:
        size = (trials + 2) * padded_dim_for(phi) ** 2
        if not blocks or entries + size > VERIFY_BLOCK_ENTRIES:
            blocks.append([])
            entries = 0
        blocks[-1].append(phi)
        entries += size
    for block in blocks:
        step = max(2, VERIFY_BLOCK_ENTRIES // sum(padded_dim_for(phi) ** 2 for phi in block))
        counts = [min(step, trials + 2 - start) for start in range(0, trials + 2, step)][::-1]
        counts[-1] -= 2
        yield block, counts


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
    for block, counts in _blocks(channels, args.trials):
        padded = np.array([padded_dim_for(phi) for phi in block])
        battery = norm_battery(int(padded.max()))
        # the battery's Ky Fan rows are KyFan(1..padded) of the block; a channel reads those
        # up to its own padded dimension, the per-k suite, since the rest repeat its trace norm
        orders = np.array([n.k if isinstance(n, KyFan) else 0 for n in battery])[:, None]
        rows = orders <= padded  # (norms, channels)
        # the block's lowest-indexed channel with a failing trial and its first failing input:
        # only a one-channel block takes more than one chunk, so the earliest chunk's holds.
        # A lone channel over the cap draws its trials chunk by chunk: the stream is the
        # same, since random_hermitian reads a stack as that many single draws
        slot: tuple = ()
        for i, count in enumerate(counts):
            inputs = [random_hermitian(phi.d_in, rng, count) for phi in block]
            if i == len(counts) - 1:
                # after the last trials, the inputs that attain u: I in the spectral norm and
                # the top eigenprojector of Phi†(I) in the trace norm
                tops = read_top_projectors([phi.invariants() for phi in block])
                inputs = [np.concatenate([x, [np.eye(phi.d_in), p]]) for phi, x, p in zip(block, inputs, tops)]
            check = check_gauge_bounds(block, inputs, battery)  # (norms, channels, inputs)
            ok = check.ok[..., :count]
            # a trial fails when it fails any of its channel's battery rows (the per-k suite among them)
            trial_ok = (ok | ~rows[:, :, None]).all(axis=0)  # (channels, count)
            if not slot and not trial_ok.all():
                c = int(np.argmin(trial_ok.all(axis=1)))
                slot = (c, inputs[c][np.argmin(trial_ok[c])])
            for name, flags in zip(SUITES, (ok[rows & (orders > 0)], ok[rows])):
                tally[name].append(_count(flags))
        # the bound is attained when the battery's largest lhs / rhs over the attaining pair is
        # within the slack of 1: no row above 1 + slack, and some row at or above 1 - slack
        lhs, rhs, ok = (a[..., count:] for a in (check.lhs, check.rhs, check.ok))
        pair = rows[:, :, None]
        reached = lhs >= (1.0 - shrink.BOUND_SLACK) * rhs
        attained = ok.all(axis=(0, 2), where=pair) & reached.any(axis=(0, 2), where=pair)
        tally[SUITES[2]].append(_count(attained))
        # the witness is the first failing channel, as a channel-by-channel pass finds it: the
        # block's first to fail attainment, or the slot's, whichever comes first. One that fails
        # attainment alone carries its attaining input of the larger ratio, the one the suite reads
        failing = [*np.flatnonzero(~attained)[:1], *slot[:1]]
        if witness is None and failing:
            c = int(min(failing))
            top = (lhs[:, c] / rhs[:, c]).max(axis=0, initial=0.0, where=pair[:, c]).argmax()
            x = slot[1] if slot and slot[0] == c else inputs[c][count + top]
            witness = {"channel": block[c].to_dict(), "input": matrix_to_entries(x)}

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
