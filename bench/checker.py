"""Independent output checker behind ``error_rate``.

A command fails when it exits nonzero or its output cannot be parsed. A report
also fails when its exact factors disagree with a recomputation from the
benchmark's own Kraus arrays, when some empirical lower bound exceeds its upper
bound, or when its embedded fuzz ran no checks or found a failure. A verify also
fails without ``result: PASS`` or with no cases. The recomputation uses numpy's
``eigvalsh`` directly; nothing here calls cpshrink.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from numpy.linalg import eigvalsh

REL_TOL = 1e-9


@dataclass
class Outcome:
    """Verdict on one command's output. ``checks`` is the number of inequality
    checks the command reports; ``gap_fracs`` holds ``gap / upper_bound`` per norm."""

    ok: bool
    reason: str = ""
    checks: int = 0
    gap_fracs: list[float] = field(default_factory=list)


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= REL_TOL * abs(want)


def exact_factors(kraus) -> tuple[float, float]:
    """(spectral, trace) factors: top eigenvalues of sum E E† and sum E† E."""
    image = sum(e @ e.conj().T for e in kraus)
    adjoint = sum(e.conj().T @ e for e in kraus)
    return float(eigvalsh(image)[-1]), float(eigvalsh(adjoint)[-1])


def check_report(rc: int, out: str, kraus, norms: int) -> Outcome:
    if rc != 0:
        return Outcome(False, f"exit code {rc}")
    try:
        doc = json.loads(out)
        factors = doc["factors"]
        rows = [(float(r["empirical_lower"]), float(r["upper_bound"]), float(r["gap"])) for r in doc["norms"]]
        checks = int(doc["verification"]["checks"])
        fuzz_failures = int(doc["verification"]["failures"])
        spectral, trace, upper = (float(factors[k]) for k in ("spectral", "trace", "upper_bound"))
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(False, f"unparsable report: {exc!r}")
    want_spectral, want_trace = exact_factors(kraus)
    if not (_close(spectral, want_spectral) and _close(trace, want_trace)):
        return Outcome(False, f"factors {spectral}, {trace} != recomputed {want_spectral}, {want_trace}")
    if not _close(upper, max(want_spectral, want_trace)):
        return Outcome(False, f"upper bound {upper} != max of recomputed factors")
    if len(rows) != norms:
        return Outcome(False, f"{len(rows)} norm rows, expected {norms}")
    for lower, row_upper, _ in rows:
        if lower > row_upper * (1 + REL_TOL):
            return Outcome(False, f"empirical lower {lower} exceeds upper bound {row_upper}")
    if checks <= 0 or fuzz_failures:
        return Outcome(False, f"report fuzz: {checks} checks, {fuzz_failures} failures")
    return Outcome(True, checks=checks, gap_fracs=[gap / row_upper for _, row_upper, gap in rows])


def check_verify(rc: int, out: str) -> Outcome:
    if rc != 0:
        return Outcome(False, f"exit code {rc}")
    lines = out.splitlines()
    header = next((i for i, line in enumerate(lines) if line.split()[:1] == ["suite"]), None)
    cases, failures = [], []
    for line in lines[header + 1 :] if header is not None else []:
        row = line.rsplit(None, 2)
        if len(row) != 3 or not (row[1].isdigit() and row[2].isdigit()):
            break
        cases.append(int(row[1]))
        failures.append(int(row[2]))
    if not cases:
        return Outcome(False, "no verify suite table")
    if "result: PASS" not in lines:
        return Outcome(False, "no 'result: PASS' line")
    if any(failures) or min(cases) <= 0:
        return Outcome(False, f"suite cases {cases}, failures {failures}")
    return Outcome(True, checks=sum(cases))


def check(cmd, rc: int, out: str) -> Outcome:
    if cmd.kind == "report":
        return check_report(rc, out, cmd.kraus, cmd.norms)
    return check_verify(rc, out)
