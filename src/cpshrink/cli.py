"""Command line front end: shrink-factor reports and inequality verification."""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .channel import (
    KrausChannel,
    identity_channel,
    matrix_to_entries,
    partial_trace_channel,
    random_channel,
    random_cptp_channel,
    random_isometry,
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
from .spectral import is_psd, random_hermitian, spectral_norm

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3

REPORT_FUZZ_INPUTS = 25
REMIX_CHECKS = 2
DEFAULT_NORMS = ("schatten:inf", "schatten:2", "schatten:1")


def _float17(x: float) -> str:
    # 17 significant digits round-trip float64 exactly, keeping reports diffable
    text = format(float(x), ".17g")
    if not any(c in text for c in ".eE"):
        text += ".0"
    return text


def _emit_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f"{inner}{json.dumps(str(k))}: {_emit_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{inner}{_emit_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _float17(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


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
        if kind == "random":
            return random_channel(d_in, d_out, n_kraus, 1.0, seed)
        return random_cptp_channel(d_in, d_out, n_kraus, seed)
    try:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ChannelFormatError(f"cannot read channel file {source!r}: {exc}") from exc
    return KrausChannel.from_json(text)


def _report_doc(args, phi: KrausChannel) -> dict:
    norms = [parse_norm(t) for t in (args.norm or DEFAULT_NORMS)]
    rep = shrink_report(phi, norms, args.restarts, args.steps, args.seed)
    inv = phi.invariants()

    rng = np.random.default_rng(args.seed)
    xs = np.stack([random_hermitian(phi.d_in, rng) for _ in range(REPORT_FUZZ_INPUTS)])
    oks = np.stack([chk.ok for chk in check_kyfan_bounds(phi, xs)])
    checks, failures = oks.size, int(oks.size - np.count_nonzero(oks))

    return {
        "channel": {
            "source": args.channel,
            "d_in": phi.d_in,
            "d_out": phi.d_out,
            "kraus_count": phi.n_kraus,
        },
        "invariants": {
            "identity_image_norm": spectral_norm(inv.identity_image),
            "adjoint_identity_image_norm": spectral_norm(inv.adjoint_identity_image),
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
                "upper_bound": rep.upper_bound,
                "gap": rep.upper_bound - b.empirical_lower,
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
    print(
        "invariant norms: |Phi(I)|_inf="
        + _float17(inv["identity_image_norm"])
        + " |Phi*(I)|_inf="
        + _float17(inv["adjoint_identity_image_norm"])
    )
    fac = doc["factors"]
    print(
        "factors: upper=" + _float17(fac["upper_bound"])
        + " spectral=" + _float17(fac["spectral"])
        + " trace=" + _float17(fac["trace"])
        + f" padded_dim={fac['padded_dim']}"
    )
    print(f"{'norm':<28}{'empirical_lower':<26}{'upper_bound':<26}gap")
    for row in doc["norms"]:
        print(
            f"{row['norm']:<28}"
            + f"{_float17(row['empirical_lower']):<26}"
            + f"{_float17(row['upper_bound']):<26}"
            + _float17(row["gap"])
        )
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
        print(_emit_json(doc))
    else:
        _print_report_text(doc)
    return EXIT_OK


def _violation_witness(phi: KrausChannel, x: np.ndarray | None) -> dict:
    doc = {"channel": phi.to_dict()}
    if x is not None:
        doc["input"] = matrix_to_entries(x)
    return doc


def _cmd_verify(args) -> int:
    for flag, count in (("--random", args.random), ("--trials", args.trials)):
        if count is not None and count < 1:
            raise ValueError(f"{flag} must be at least 1, got {count}")
    rng = np.random.default_rng(args.seed)
    channels: list[tuple[str, KrausChannel]] = []
    if args.channel is not None:
        channels.append((args.channel, resolve_channel(args.channel)))
    else:
        lo_hi = args.dims.split("..")
        if len(lo_hi) != 2:
            raise ChannelFormatError(f"--dims expects <lo>..<hi>, got {args.dims!r}")
        lo = _parse_int(lo_hi[0], "--dims low end")
        hi = _parse_int(lo_hi[1], "--dims high end")
        if not 1 <= lo <= hi:
            raise ChannelFormatError(f"--dims range is empty or invalid: {args.dims!r}")
        for i in range(args.random):
            d_in = int(rng.integers(lo, hi + 1))
            d_out = int(rng.integers(lo, hi + 1))
            n_kraus = int(rng.integers(1, 4))
            sub = int(rng.integers(2**31))
            channels.append((f"random#{i}", random_channel(d_in, d_out, n_kraus, 1.0, sub)))

    suites = {
        "ky fan inequality (per k)": [0, 0],
        "gauge norm battery": [0, 0],
        "remix invariance": [0, 0],
        "choi positivity": [0, 0],
    }
    witness: dict | None = None

    def record(suite: str, ok, phi: KrausChannel, x: np.ndarray | None) -> None:
        # ok is one flag or one per trial; x is the witness input should any fail
        nonlocal witness
        suites[suite][0] += int(np.size(ok))
        suites[suite][1] += int(np.size(ok) - np.count_nonzero(ok))
        if witness is None and not np.all(ok):
            witness = _violation_witness(phi, x)

    for _, phi in channels:
        battery = norm_battery(padded_dim_for(phi))
        xs = np.stack([random_hermitian(phi.d_in, rng) for _ in range(args.trials)])
        checks = check_gauge_bounds(phi, xs, battery)
        # the witness is the first trial that fails any norm, as in trial-by-trial order
        first_bad = xs[np.argmin(np.all([chk.ok for chk in checks], axis=0))]
        for chk in checks:
            # the battery's Ky Fan rows are exactly KyFan(1..padded), the per-k suite
            if isinstance(chk.norm, KyFan):
                record("ky fan inequality (per k)", chk.ok, phi, first_bad)
            record("gauge norm battery", chk.ok, phi, first_bad)
        inv = phi.invariants()
        base_choi = phi.choi_matrix()
        for extra in range(REMIX_CHECKS):
            rows = phi.n_kraus + 2 * extra
            v = random_isometry(rows, phi.n_kraus, rng)
            mixed = phi.remix(v)
            minv = mixed.invariants()
            ok = (
                float(np.abs(minv.identity_image - inv.identity_image).max()) <= 1e-9
                and float(np.abs(minv.adjoint_identity_image - inv.adjoint_identity_image).max()) <= 1e-9
                and float(np.abs(mixed.choi_matrix() - base_choi).max()) <= 1e-9
            )
            record("remix invariance", ok, phi, None)
        record("choi positivity", is_psd(base_choi), phi, None)

    print(f"{'suite':<30}{'cases':>8}{'failures':>10}")
    for name, (cases, fails) in suites.items():
        print(f"{name:<30}{cases:>8}{fails:>10}")
    if args.channel is not None:
        print("upper bound: " + _float17(shrink_upper_bound(channels[0][1])))
    total_failures = sum(f for _, f in suites.values())
    if total_failures:
        print("result: FAIL")
        assert witness is not None
        print(_emit_json(witness))
        return EXIT_VIOLATION
    print("result: PASS")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpshrink",
        description="Shrinking factors of completely positive maps under unitarily invariant norms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser(
        "report",
        help="bracket the shrinking factor of one channel per norm",
        description=(
            "Compute the universal upper bound, the exact spectral/trace factors, and an "
            "empirical lower bound per requested norm. The report embeds a per-k inequality "
            f"fuzz over {REPORT_FUZZ_INPUTS} seeded random inputs."
        ),
    )
    rep.add_argument("--channel", required=True, help="channel JSON file or named constructor")
    rep.add_argument(
        "--norm",
        action="append",
        default=None,
        help="gauge norm spec (repeatable); default: " + " ".join(DEFAULT_NORMS),
    )
    rep.add_argument("--restarts", type=int, default=20, help="random search restarts")
    rep.add_argument("--steps", type=int, default=40, help="ascent steps per restart")
    rep.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    rep.add_argument("--format", choices=("text", "json"), default="text")

    ver = sub.add_parser(
        "verify",
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
        if args.command == "report":
            return _cmd_report(args)
        return _cmd_verify(args)
    except (ChannelFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ConvergenceFailure as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
