"""cpshrink benchmark: drives ``cpshrink.cli.main(argv)`` in-process, closed loop,
on inputs generated from ``--seed``, and checks every output.

Usage:
    python3 bench/run.py --workload {report-grid,report-small,verify-fuzz}
                         --seed N --seconds S --trace {0,1}

One pass runs the workload's whole command list back to back. A run makes
``round(--seconds / nominal pass time)`` passes (at least eleven commands in
all), the nominal time having been measured once per workload; so a run lasts
about ``--seconds`` on that machine and always does the same work.
``--trace 0`` prints the end-to-end metrics. Their timings take each command
at its mean time over the run's passes and divide by the host's slowdown in
that run, which a reference kernel timed after every command measures (see
``reference.py``); set-up is probed between passes. ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones. The last stdout line is the result object; the line before it is
the full results record, which is also written to ``bench/.work/``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checker
import machine
import reference
import tracer as tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_PROBES = 15
TAIL_BEYOND = 10  # cmd_s_tail is the highest percentile with this many commands beyond it

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cmd_s_p50": "s",
    "cmd_s_tail": "s",
    "checks_per_s": "1/s",
    "gap_frac_mean": "fraction",
    "gap_frac_max": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("bytes_in"):
        return "B"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith(".s") or name.endswith("self_s"):
        return "s"
    return "count"


@dataclass
class Pass:
    seconds: list[float] = field(default_factory=list)
    outcomes: list = field(default_factory=list)
    reference: list[float] = field(default_factory=list)  # reference chunks, before and after each command

    def adjusted(self) -> list[float]:
        """Command times divided by the slowdown the chunks on either side of
        each command measured."""
        return [
            t * 2 * reference.QUIET_S / (before + after)
            for t, before, after in zip(self.seconds, self.reference, self.reference[1:])
        ]

    @property
    def wall(self) -> float:
        return sum(self.seconds)


def run_command(cli, argv) -> tuple[float, int, str, str]:
    """Run one CLI command, capturing its output; returns (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            rc = -1
        elapsed = perf_counter() - t0
    return elapsed, rc, out.getvalue(), err.getvalue()


def run_pass(cli, commands, checker, tracer=None, timed_reference=False) -> Pass:
    """Run every command once and check its output; with a tracer, record spans;
    with ``timed_reference``, time the reference chunk before the first command
    and after each one."""
    result = Pass()
    if timed_reference:
        result.reference.append(reference.chunk())
    with tracer.installed() if tracer else nullcontext():
        for cmd in commands:
            with tracer.command() if tracer else nullcontext():
                elapsed, rc, out, err = run_command(cli, cmd.argv)
            outcome = checker.check(cmd, rc, out)
            if not outcome.ok:
                print(f"FAILED {' '.join(cmd.argv)}: {outcome.reason}\n{err}", file=sys.stderr)
            result.seconds.append(elapsed)
            result.outcomes.append(outcome)
            if timed_reference:
                result.reference.append(reference.chunk())
    return result


def measure(cli, commands, checker, rounds: int, tracer=None, before_round=None) -> tuple[list[Pass], list[Pass]]:
    """Run ``rounds`` untraced passes, or ``rounds`` untraced/traced pairs,
    calling ``before_round(i)`` first in each round. Returns (untraced passes,
    traced passes)."""
    untraced: list[Pass] = []
    traced: list[Pass] = []
    for i in range(rounds):
        if before_round is not None:
            before_round(i)
        if tracer is None:
            untraced.append(run_pass(cli, commands, checker, timed_reference=True))
            continue
        # alternate which side of the pair runs first
        for on in (i % 2 == 1, i % 2 == 0):
            (traced if on else untraced).append(run_pass(cli, commands, checker, tracer if on else None))
    return untraced, traced


def setup_times(workload: str, seed: int, probes: int) -> list[tuple[float, float]]:
    """Set-up time in fresh interpreters: import cpshrink.cli and generate the
    inputs. Returns (set-up seconds, mean reference chunk seconds) per probe."""
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), workload, str(seed), str(WORK / "setup")],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        setup, ref = proc.stdout.split()[-2:]
        times.append((float(setup), float(ref)))
    return times


def end_to_end(passes: list[Pass], setup: list[tuple[float, float]]) -> tuple[dict[str, float], dict]:
    """End-to-end metrics and the sample counts behind them. Every time is
    divided by the host's slowdown: a reference chunk's time over
    ``reference.QUIET_S``. A command is divided by the mean slowdown of the
    chunks timed just before and after it, and taken at its mean over the
    run's passes. A set-up probe runs in a process of its own, which may sit on
    another CPU, so it is divided by the slowdown its own process measured.
    The raw times go in the record."""
    ref = [r for p in passes for r in p.reference]
    mean = [statistics.fmean(times) for times in zip(*(p.adjusted() for p in passes))]
    # every command execution, counted at its command's mean time
    secs = sorted(m for m in mean for _ in passes)
    raw = sorted(s for p in passes for s in p.seconds)
    outcomes = [o for p in passes for o in p.outcomes]
    gaps = [g for o in outcomes for g in o.gap_fracs]
    n = len(secs)
    wall = sum(mean)
    metrics = {
        "setup_s": statistics.median(t * reference.QUIET_S / r for t, r in setup),
        "wall_s": wall,
        "cmd_s_p50": statistics.median(secs),
        "cmd_s_tail": secs[n - TAIL_BEYOND - 1],
        "checks_per_s": sum(o.checks for o in outcomes) / len(passes) / wall,
        # verify brackets nothing: its bracket is the trivial [0, upper], so gap/upper = 1
        "gap_frac_mean": statistics.fmean(gaps) if gaps else 1.0,
        "gap_frac_max": max(gaps) if gaps else 1.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    samples = {
        "passes": len(passes),
        "commands_per_pass": len(mean),
        "slowdown": statistics.fmean(ref) / reference.QUIET_S,
        "reference_chunks": len(ref),
        "setup_s": len(setup),
        "wall_s": len(passes),
        "cmd_s_p50": n,
        "cmd_s_tail": n,
        "cmd_s_tail_percentile": 100.0 * (n - TAIL_BEYOND) / n,
        "gap_frac": len(gaps),
        "raw": {
            "setup_probe_s": [t for t, _ in setup],
            "setup_probe_reference_s": [r for _, r in setup],
            "cmd_s": [p.seconds for p in passes],
            "reference_s": [p.reference for p in passes],
            "cmd_s_p50": statistics.median(raw),
            "cmd_s_tail": raw[n - TAIL_BEYOND - 1],
        },
    }
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cpshrink" / "cli.py").is_file():
        print(f"error: cpshrink sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    import cpshrink
    import cpshrink.cli as cli

    if Path(cpshrink.__file__).resolve().parent != SRC / "cpshrink":
        print(f"error: imported cpshrink from {cpshrink.__file__}, not {SRC}", file=sys.stderr)
        return 2
    commands = workloads.build(args.workload, args.seed, WORK / args.workload)

    tracer = tracing.Tracer() if args.trace else None
    nominal = workloads.NOMINAL_PASS_S[args.workload]
    if tracer is None:
        rounds = max(math.ceil((TAIL_BEYOND + 1) / len(commands)), round(args.seconds / nominal))
    else:
        rounds = max(1, int(args.seconds / (2 * nominal)))
    setup: list[tuple[float, float]] = []

    def probe_setup(i: int) -> None:
        # spread the set-up probes over the run, so that they see the host as the passes do
        share = SETUP_PROBES * (i + 1) // rounds - SETUP_PROBES * i // rounds
        setup.extend(setup_times(args.workload, args.seed, share))

    untraced, traced = measure(cli, commands, checker, rounds, tracer, None if tracer else probe_setup)

    everything = [o for p in untraced + traced for o in p.outcomes]
    failed = sum(not o.ok for o in everything)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine.record(),
        "attempted": len(everything),
        "failed": failed,
        "error_rate": failed / len(everything),
    }
    if tracer is None:
        shown, record["samples"] = end_to_end(untraced, setup)
        units = END_TO_END_UNITS
        record["end_to_end"] = shown
    else:
        walls = {
            "untraced_wall_s": statistics.median(p.wall for p in untraced),
            "traced_wall_s": statistics.median(p.wall for p in traced),
        }
        shown = tracing.summarize(tracer, len(traced))
        shown["trace.overhead_frac"] = walls["traced_wall_s"] / walls["untraced_wall_s"] - 1.0
        units = {name: per_layer_unit(name) for name in shown}
        record["samples"] = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
        record.update(walls)
        record["per_layer"] = shown
        tracer.write(WORK / f"spans-{args.workload}.npz")

    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"record-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    for name, value in shown.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(everything),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
