"""Tests of the benchmark itself: run with ``python3 -m pytest -q bench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import cpshrink.cli as cli  # noqa: E402


def traced_pass(workload: str, workdir: Path) -> tuple[run.Pass, dict]:
    commands = workloads.build(workload, 7, workdir, tiny=True)
    tracer = tracing.Tracer()
    result = run.run_pass(cli, commands, checker, tracer)
    return result, tracing.summarize(tracer, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    a = workloads.build(workload, 3, tmp_path)
    b = workloads.build(workload, 3, tmp_path)
    c = workloads.build(workload, 4, tmp_path)
    assert [x.argv for x in a] == [x.argv for x in b] != [x.argv for x in c]
    for x, y in zip(a, b):
        if x.kraus is not None:
            np.testing.assert_array_equal(x.kraus, y.kraus)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_exactly(workload, tmp_path):
    first, counts1 = traced_pass(workload, tmp_path)
    second, counts2 = traced_pass(workload, tmp_path)
    assert all(o.ok for o in first.outcomes + second.outcomes)
    exact = [name for name in counts1 if run.per_layer_unit(name) in ("count", "B")]
    assert {k: counts1[k] for k in exact} == {k: counts2[k] for k in exact}
    assert counts1["cli.main.calls"] == len(first.seconds)
    elb_calls = counts1["shrink.empirical_lower_bound.calls"]
    assert (elb_calls == 0) == (workload == "verify-fuzz")


def test_tracer_restores_every_site(tmp_path):
    before = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in tracing._sites()]
    traced_pass("report-small", tmp_path)
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in before)


def test_mirrored_specs_match_cpshrink():
    for spec, kraus in (
        ("random:3x2x2:11", workloads.random_kraus(3, 2, 2, 11)),
        ("cptp:3x2x2:11", workloads.cptp_kraus(3, 2, 2, 11)),
        ("ptrace:2x3", workloads.ptrace_kraus(2, 3)),
    ):
        np.testing.assert_allclose(np.stack(cli.resolve_channel(spec).kraus), kraus, rtol=0, atol=1e-13)


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    cmd = workloads.build("report-grid", 5, tmp_path_factory.mktemp("report"), tiny=True)[0]
    _, rc, out, _ = run.run_command(cli, cmd.argv)
    return cmd, rc, out


def test_checker_accepts_real_report(report):
    cmd, rc, out = report
    outcome = checker.check(cmd, rc, out)
    assert outcome.ok and outcome.checks > 0 and len(outcome.gap_fracs) == cmd.norms


@pytest.mark.parametrize(
    "tamper",
    [
        lambda doc: doc["factors"].update(spectral=doc["factors"]["spectral"] * (1 + 1e-6)),
        lambda doc: doc["factors"].update(trace=doc["factors"]["trace"] * 0.5),
        lambda doc: doc["norms"][0].update(empirical_lower=doc["norms"][0]["upper_bound"] * 1.01),
        lambda doc: doc["norms"].pop(),
        lambda doc: doc["verification"].update(failures=1),
        lambda doc: doc.pop("factors"),
    ],
)
def test_checker_counts_tampered_report_as_error(report, tamper):
    cmd, rc, out = report
    doc = json.loads(out)
    tamper(doc)
    assert not checker.check(cmd, rc, json.dumps(doc)).ok


def test_checker_counts_bad_exit_and_garbage_as_error(report):
    cmd, _, out = report
    assert not checker.check(cmd, 2, out).ok
    assert not checker.check(cmd, 0, out[: len(out) // 2]).ok


VERIFY_PASS = """suite                            cases  failures
ky fan inequality (per k)           32         0
gauge norm battery                  74         0
remix invariance                     6         0
choi positivity                      3         0
result: PASS
"""


def test_checker_on_verify_transcripts():
    cmd = workloads.Command(("verify",), "verify")
    assert checker.check(cmd, 0, VERIFY_PASS).checks == 115
    failed = VERIFY_PASS.replace("74         0", "74         1").replace("PASS", "FAIL") + "{}\n"
    assert not checker.check(cmd, 1, failed).ok
    assert not checker.check(cmd, 0, failed).ok
    assert not checker.check(cmd, 0, VERIFY_PASS.replace("result: PASS\n", "")).ok
    assert not checker.check(cmd, 0, "result: PASS\n").ok
    empty = VERIFY_PASS.replace("32", " 0").replace("74", " 0").replace(" 6 ", " 0 ").replace(" 3 ", " 0 ")
    assert not checker.check(cmd, 0, empty).ok


def test_timings_divide_by_the_slowdown_around_each_command():
    ok = checker.Outcome(True, checks=5)
    q = reference.QUIET_S
    # the host runs at half speed, except around the second command of the first pass
    passes = [
        run.Pass([1.0, 4.0, 2.0], [ok] * 3, [2 * q, 2 * q, 6 * q, 2 * q]),
        run.Pass([3.0, 2.0, 2.0], [ok] * 3, [2 * q] * 4),
        run.Pass([1.0, 3.0, 1.0], [ok] * 3, [2 * q] * 4),
        run.Pass([3.0, 3.0, 3.0], [ok] * 3, [2 * q] * 4),
    ]
    assert passes[0].adjusted() == pytest.approx([0.5, 1.0, 0.5])
    setup = [(0.2, q), (0.1, 0.5 * q), (0.4, 2 * q)]
    metrics, samples = run.end_to_end(passes, setup)
    # adjusted command means 1.0, 1.25, 0.875
    assert metrics["wall_s"] == pytest.approx(3.125) and metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["cmd_s_p50"] == pytest.approx(1.0)
    assert metrics["cmd_s_tail"] == pytest.approx(0.875)  # 12 executions: the 11th slowest
    assert metrics["checks_per_s"] == pytest.approx(15 / 3.125)
    assert samples["slowdown"] == pytest.approx(2.25)


def test_benchmark_json_matches_emitted_metrics(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    _, layers = traced_pass("verify-fuzz", tmp_path)
    names = [*layers, "trace.overhead_frac"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: run.per_layer_unit(n) for n in names}


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout
