import argparse
import contextlib
import dataclasses
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpshrink import cli, shrink
from cpshrink.channel import KrausChannel, identity_channel, matrix_to_entries, random_channel, random_cptp_channel
from cpshrink.cli import main, resolve_channel
from cpshrink.errors import ChannelFormatError
from cpshrink.gauge import KyFan, Schatten
from cpshrink.shrink import check_gauge_bounds, norm_battery, shrink_report, shrink_upper_bound
from cpshrink.spectral import random_hermitian


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestResolveChannel:
    def test_identity(self):
        phi = resolve_channel("identity:4")
        assert phi.d_in == 4 and phi.d_out == 4 and phi.n_kraus == 1

    def test_ptrace(self):
        phi = resolve_channel("ptrace:2x3")
        assert phi.d_in == 6 and phi.d_out == 2 and phi.n_kraus == 3

    def test_random_matches_library(self):
        phi = resolve_channel("random:2x3x2:5")
        ref = random_channel(2, 3, 2, 1.0, 5)
        for a, b in zip(phi.kraus, ref.kraus):
            np.testing.assert_array_equal(a, b)

    def test_cptp(self):
        phi = resolve_channel("cptp:3x2x2:7")
        w = phi.invariants().adjoint_identity_image
        assert np.abs(w - np.eye(3)).max() <= 1e-10

    @pytest.mark.parametrize("spec", ["identity:x", "ptrace:2", "random:2x2x2", "cptp:axbxc:1"])
    def test_bad_specs(self, spec):
        with pytest.raises(ChannelFormatError):
            resolve_channel(spec)

    def test_file(self, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(random_channel(2, 2, 2, 1.0, 3).to_json())
        phi = resolve_channel(str(path))
        assert phi.d_in == 2 and phi.n_kraus == 2

    def test_missing_file(self):
        with pytest.raises(ChannelFormatError, match="cannot read"):
            resolve_channel("/nonexistent/chan.json")


class TestReport:
    def test_default_schedule_is_the_analytic_starts(self, capsys):
        # the default schedule is no random start and a cap of 200 steps, and says so
        argv = ("report", "--channel", "ptrace:2x3", "--norm", "schatten:3",
                "--norm", "combo:0.5*schatten:2+2*kyfan:2")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[-1] == "parameters: restarts=0 steps=200 seed=0"
        assert run(capsys, *argv, "--restarts", "0", "--steps", "200") == (0, out, "")

    def test_partial_trace_text(self, capsys):
        code, out, _ = run(
            capsys, "report", "--channel", "ptrace:2x3", "--norm", "schatten:inf",
            "--restarts", "2", "--steps", "5",
        )
        assert code == 0
        assert "upper=3.0" in out
        assert "schatten:inf" in out

    def test_identity_json_values(self, capsys):
        code, out, _ = run(
            capsys, "report", "--channel", "identity:4", "--norm", "kyfan:2",
            "--restarts", "2", "--steps", "5", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["factors"]["upper_bound"] == pytest.approx(1.0, abs=1e-12)
        assert doc["norms"][0]["norm"] == "kyfan:2"
        assert doc["norms"][0]["empirical_lower"] == pytest.approx(1.0, abs=1e-9)
        assert doc["verification"]["failures"] == 0

    def test_json_byte_identical_across_runs(self, capsys, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(random_channel(3, 2, 2, 1.0, 5).to_json())
        args = (
            "report", "--channel", str(path), "--norm", "schatten:2",
            "--restarts", "5", "--steps", "10", "--seed", "7", "--format", "json",
        )
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_emitted_channel_rereads_to_same_report(self, tmp_path):
        phi = random_channel(2, 3, 2, 1.0, 13)
        path = tmp_path / "chan.json"
        path.write_text(phi.to_json())
        again = resolve_channel(str(path))
        a = shrink_report(phi, [Schatten(2.0)], restarts=4, steps=10, seed=3)
        b = shrink_report(again, [Schatten(2.0)], restarts=4, steps=10, seed=3)
        assert a.upper_bound == b.upper_bound
        assert a.spectral_factor == b.spectral_factor
        assert a.trace_factor == b.trace_factor
        assert a.per_norm[0].empirical_lower == b.per_norm[0].empirical_lower
        np.testing.assert_array_equal(a.per_norm[0].witness, b.per_norm[0].witness)

    def test_default_norms_applied(self, capsys):
        code, out, _ = run(
            capsys, "report", "--channel", "identity:2", "--restarts", "1", "--steps", "2",
        )
        assert code == 0
        for name in ("schatten:inf", "schatten:2", "schatten:1"):
            assert name in out

    def test_value_columns_line_up_with_the_header(self, capsys):
        # labels of 30 and 35 characters widen the norm column; each row's values start
        # where the header's names do
        code, out, _ = run(
            capsys, "report", "--channel", "ptrace:2x3", "--norm", "combo:1*schatten:inf+1*kyfan:1",
            "--norm", "kyfan:2", "--norm", "combo:1e308*kyfan:1+1e308*kyfan:2",
        )
        assert code == 0
        lines = out.splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("norm "))
        starts = [m.start() for m in re.finditer(r"\S+", lines[at])]
        assert starts == [0, 36, 62, 88]
        for row in lines[at + 1: at + 4]:
            assert [m.start() for m in re.finditer(r"\S+", row)] == starts

    def test_short_labels_keep_the_default_columns(self, capsys):
        code, out, _ = run(capsys, "report", "--channel", "ptrace:2x3", "--norm", "kyfan:2")
        assert code == 0
        header, row = out.splitlines()[3:5]
        assert header == f"{'norm':<28}{'empirical_lower':<26}{'upper_bound':<26}gap"
        assert row == "kyfan:2" + " " * 21 + "3.0" + " " * 23 + "3.0" + " " * 23 + "0.0"

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"d_in": 2, "d_out": 1, "kraus": [[[[1.0, 0.0], [0.0]]]]}')
        code, _, err = run(capsys, "report", "--channel", str(path))
        assert code == 2
        assert "kraus[0][0][1]" in err

    def test_bad_norm_exits_2(self, capsys):
        code, _, err = run(capsys, "report", "--channel", "identity:2", "--norm", "foo:1")
        assert code == 2
        assert "foo" in err

    def test_svd_failure_exits_3(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        code, _, err = run(capsys, "report", "--channel", "random:2x2x2:1")
        assert code == 3
        assert err.startswith("error: numerical failure: ")

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        # numpy's own allocation failure is a MemoryError; this one allocates nothing
        def fail(*args, **kwargs):
            raise MemoryError("Unable to allocate 23.8 GiB for an array")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        code, out, err = run(capsys, "report", "--channel", "random:2x2x2:1")
        assert (code, out) == (3, "")
        assert err == "error: out of memory: Unable to allocate 23.8 GiB for an array\n"

    def test_large_schatten_exponent_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "report", "--channel", "random:1x1x1:3", "--norm", "schatten:400", "--format", "json",
        )
        assert code == 0
        row = json.loads(out)["norms"][0]
        assert row["empirical_lower"] <= row["upper_bound"] * (1 + 1e-9)

    def test_underflowing_trace_factor_exits_0(self, capsys, tmp_path):
        # Kraus entries near 1e-170: every factor underflows to 0, and the search still runs
        path = tmp_path / "tiny.json"
        path.write_text(random_channel(2, 2, 1, 1e-170, 1).to_json())
        code, out, err = run(capsys, "report", "--channel", str(path), "--norm", "schatten:3", "--format", "json")
        assert code == 0, err
        doc = json.loads(out)
        assert [row["empirical_lower"] for row in doc["norms"]] == [0.0]
        assert doc["factors"]["upper_bound"] == 0.0

    @pytest.mark.parametrize("spec, plain", [
        ("combo:1e308*kyfan:1+1e308*kyfan:2", "combo:1*kyfan:1+1*kyfan:2"),
        ("combo:1e-320*kyfan:2", "combo:1*kyfan:2"),
        ("combo:1e-320*kyfan:1", "kyfan:1"),
    ])
    def test_extreme_coefficients_exit_0(self, capsys, spec, plain):
        # a positive multiple has the same factor, so the search runs on rescaled coefficients
        # and neither overflows nor underflows into "bad input"
        rows = {}
        for norm in (spec, plain):
            code, out, err = run(capsys, "report", "--channel", "ptrace:2x3", "--norm", norm, "--format", "json")
            assert (code, err) == (0, "")
            (rows[norm],) = json.loads(out)["norms"]
        assert rows[spec]["empirical_lower"] == pytest.approx(rows[plain]["empirical_lower"], rel=1e-12)
        assert rows[spec]["gap"] == pytest.approx(rows[plain]["gap"], rel=1e-12, abs=1e-12)

    def test_underflowing_term_exits_0(self, capsys):
        # the kyfan:1 coefficient rescales to 0 beside 1e160: the row is the schatten:3 row
        code, out, err = run(capsys, "report", "--channel", "random:3x3x2:0", "--norm",
                             "combo:1e-170*kyfan:1+1e160*schatten:3", "--norm", "schatten:3", "--format", "json")
        assert (code, err) == (0, "")
        row, base = json.loads(out)["norms"]
        assert row["norm"] == "combo:1e-170*kyfan:1+1e+160*schatten:3"
        assert {**row, "norm": base["norm"]} == base

    @pytest.mark.parametrize("spec", ["schatten:1.0000000001", "schatten:1234567.0",
                                      "combo:0.1234567*kyfan:1+1*schatten:2", "combo:1e-320*schatten:3"])
    def test_row_names_the_norm_asked_for(self, capsys, spec):
        code, out, _ = run(capsys, "report", "--channel", "ptrace:2x3", "--norm", spec, "--restarts", "2",
                           "--steps", "3", "--format", "json")
        assert code == 0
        (row,) = json.loads(out)["norms"]
        assert row["norm"] == spec

    def test_long_norm_spec_keeps_its_column(self, capsys):
        spec = "combo:0.5*schatten:2+2*kyfan:2"
        assert len(spec) >= 28
        code, out, _ = run(
            capsys, "report", "--channel", "random:2x2x2:1", "--norm", spec,
            "--restarts", "1", "--steps", "2",
        )
        assert code == 0
        (row,) = [line for line in out.splitlines() if line.startswith(spec)]
        assert row.split()[0] == spec and len(row.split()) == 4

    def test_floats_print_in_shortest_exact_form(self, capsys):
        # every float prints as repr, the shortest text that reads back as that float, in JSON
        # and text alike; this report's gap has a longer 17-digit form, so the case tells them apart
        argv = ("report", "--channel", "ptrace:2x2", "--norm", "schatten:3")
        doc = cli._report_doc(cli.build_parser().parse_args(argv), resolve_channel("ptrace:2x2"))

        def leaves(node):
            if isinstance(node, (dict, list)):
                return [x for v in (node.values() if isinstance(node, dict) else node) for x in leaves(v)]
            return [] if isinstance(node, str) else [node]

        numbers = leaves(doc)
        assert all(type(x) in (int, float) for x in numbers)
        floats = [x for x in numbers if type(x) is float]
        gap = doc["norms"][0]["gap"]
        assert f"{gap:.17g}" != repr(gap)
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        texts = []
        parsed = json.loads(out, parse_float=lambda text: texts.append(text) or float(text))
        assert texts == [repr(x) for x in floats]
        assert [x for x in leaves(parsed) if type(x) is float] == floats
        code, out, _ = run(capsys, *argv)
        assert code == 0
        tokens = [t for t in re.findall(r"[-+]?\d[\d.]*(?:e[-+]?\d+)?", out) if "." in t or "e" in t]
        assert tokens == [repr(x) for x in floats]
        assert [float(t) for t in tokens] == floats

    def test_each_row_prints_its_own_bound(self, capsys, monkeypatch):
        # the report decides each row's bound: one lowered below u there moves that row's
        # upper_bound and gap, in JSON and text, while the other row and the factors keep u
        real = cli.shrink_report

        def lowered(*args):
            rep = real(*args)
            rows = [dataclasses.replace(row, upper=(row.empirical_lower + row.upper) / 2)
                    if row.norm == Schatten(3.0) else row for row in rep.per_norm]
            return dataclasses.replace(rep, per_norm=tuple(rows))

        monkeypatch.setattr(cli, "shrink_report", lowered)
        argv = ("report", "--channel", "cptp:3x2x2:5", "--norm", "schatten:3", "--norm", "schatten:1.5")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        u = shrink_upper_bound(resolve_channel("cptp:3x2x2:5"))
        moved, kept = doc["norms"]
        bound = (moved["empirical_lower"] + u) / 2
        assert moved["empirical_lower"] < bound < u
        assert (moved["upper_bound"], moved["gap"]) == (bound, bound - moved["empirical_lower"])
        assert (kept["upper_bound"], kept["gap"]) == (u, u - kept["empirical_lower"])
        assert doc["factors"]["upper_bound"] == u
        code, out, _ = run(capsys, *argv)
        assert code == 0
        rows = [line.split() for line in out.splitlines() if line.startswith("schatten:")]
        assert rows == [[row["norm"], *(repr(row[key]) for key in ("empirical_lower", "upper_bound", "gap"))]
                        for row in (moved, kept)]
        assert "factors: upper=" + repr(u) in out

    @pytest.mark.parametrize("spec", ["cptp:3x3x2:5", "random:2x3x2:1"])
    def test_invariants_block_holds_the_factors(self, capsys, spec):
        # the invariants block holds the same s and t as factors, bit for bit, on a square
        # channel and a non-square one, and both are the channel's own invariant reads
        code, out, _ = run(capsys, "report", "--channel", spec, "--format", "json")
        assert code == 0
        doc = json.loads(out)
        inv = resolve_channel(spec).invariants()
        assert (doc["invariants"]["identity_image_norm"], doc["invariants"]["adjoint_identity_image_norm"]) == (
            doc["factors"]["spectral"], doc["factors"]["trace"]
        ) == (inv.identity_image_norm, inv.adjoint_identity_image_norm)

    @pytest.mark.parametrize("spec, padded", [("ptrace:2x3", 6), ("cptp:3x2x2:1", 3), ("random:1x4x2:0", 4)])
    def test_verification_block_counts_its_fuzz(self, capsys, spec, padded):
        # the embedded fuzz checks 25 seeded inputs on Ky Fan 1..padded_dim each
        code, out, _ = run(capsys, "report", "--channel", spec, "--format", "json")
        assert code == 0
        assert json.loads(out)["verification"] == {"inputs": 25, "checks": 25 * padded, "failures": 0}


class TestVerify:
    def test_named_channel_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--channel", "ptrace:2x2", "--trials", "10")
        assert code == 0
        assert "result: PASS" in out
        assert "upper bound: 2.0" in out

    def test_random_channels_pass(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--random", "5", "--dims", "2..4", "--seed", "1", "--trials", "5",
        )
        assert code == 0
        assert "result: PASS" in out
        assert "ky fan inequality (per k)" in out

    def test_bad_dims_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "--random", "2", "--dims", "5")
        assert code == 2
        assert "--dims" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("--random", "0"), "--random"),
            (("--random", "-3"), "--random"),
            (("--random", "2", "--trials", "0"), "--trials"),
        ],
    )
    def test_nothing_to_check_exits_2(self, capsys, argv, flag):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: " + flag)

    def test_missing_target_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify"])
        assert info.value.code == 2

    @pytest.mark.parametrize("spec, scale", [
        ("identity:3", None), ("ptrace:2x3", None), ("cptp:4x2x3:1", None), ("random:1x5x2:3", None),
        ("random:3x2x2:4", 1e-140), ("random:3x2x2:4", 1e140),
    ], ids=["identity", "ptrace", "cptp", "1-to-5", "1e-140", "1e140"])
    def test_bound_is_attained_on_every_kind_of_channel(self, capsys, tmp_path, spec, scale):
        # u is attained at I or at the top eigenprojector of Phi†(I) on a unital channel, a
        # partial trace, a trace-preserving one, a 1 -> 5 one, and at Kraus entries near
        # 1e+-140, with no numpy RuntimeWarning (an error under the tests' warning filter)
        if scale is not None:
            phi = resolve_channel(spec)
            spec = str(tmp_path / "chan.json")
            (tmp_path / "chan.json").write_text(KrausChannel(phi.d_in, phi.d_out, scale * phi.kraus).to_json())
        code, out, _ = run(capsys, "verify", "--channel", spec, "--trials", "3")
        assert code == 0 and "bound attained                       1         0" in out

    @pytest.mark.parametrize("scale", [2.0**40, 2.0**-40, 1e150, 1e-150], ids=["2^40", "2^-40", "1e150", "1e-150"])
    def test_halved_bound_fails_alike_at_any_kraus_scale(self, capsys, monkeypatch, tmp_path, scale):
        # the slack is relative to the bound, so a bound half the true one fails the same
        # checks for Kraus operators c * E as for E, however small or large c is
        real = shrink.shrink_upper_bound
        monkeypatch.setattr(shrink, "shrink_upper_bound", lambda phi: real(phi) / 2)
        tables = []
        for c in (1.0, scale):
            path = tmp_path / "chan.json"
            path.write_text(random_channel(3, 2, 2, c, 4).to_json())
            code, out, _ = run(capsys, "verify", "--channel", str(path))
            assert code == 1
            tables.append(out.splitlines()[:4])
        assert tables[0] == tables[1]
        assert tables[0][1:] == [
            "ky fan inequality (per k)           60         3",
            "gauge norm battery                 200         8",
            "bound attained                       1         1",
        ]

    def test_failing_suites_and_witness(self, capsys, monkeypatch):
        # a negative slack fails some checks: the counts and the first failing trial are pinned
        monkeypatch.setattr(shrink, "BOUND_SLACK", -0.6)
        code, out, _ = run(capsys, "verify", "--channel", "random:3x2x2:4", "--trials", "6")
        assert code == 1
        table, _, witness = out.partition("result: FAIL\n")
        assert table.splitlines()[:4] == [
            "suite                            cases  failures",
            "ky fan inequality (per k)           18         3",
            "gauge norm battery                  60        11",
            "bound attained                       1         1",
        ]
        doc = json.loads(witness)
        assert doc["channel"] == resolve_channel("random:3x2x2:4").to_dict()
        rng = np.random.default_rng(0)
        trials = [random_hermitian(3, rng) for _ in range(6)]
        assert doc["input"] == matrix_to_entries(trials[1])

    def test_stacked_channels_match_a_per_channel_loop(self, capsys, monkeypatch):
        # a negative slack fails some checks; the suite table and the witness are those
        # that one check per channel predicts, with the draws in the same order. Each
        # channel's check takes its trials, then I and the top eigenprojector of Phi†(I).
        # Every channel fails attainment under a negative slack, so the first channel is
        # the witness: with its first failing trial, or else the attaining input that
        # holds its largest ratio
        monkeypatch.setattr(shrink, "BOUND_SLACK", -0.6)
        rng = np.random.default_rng(0)
        shapes = [(int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(2**31)))
                  for _ in range(5)]
        cases = fails = kyfan_cases = kyfan_fails = 0
        witness = None
        for d_in, d_out, n_kraus, sub in shapes:
            phi = random_channel(d_in, d_out, n_kraus, 1.0, sub)
            xs = random_hermitian(d_in, rng, 6)
            attaining = np.stack([np.eye(d_in), phi.invariants().adjoint_top_projector])
            check = check_gauge_bounds([phi], [np.concatenate([xs, attaining])], norm_battery(max(d_in, d_out)))
            oks = check.ok[:, 0, :6]
            kyfan = np.array([isinstance(norm, KyFan) for norm in check.norms])
            cases, fails = cases + oks.size, fails + int((~oks).sum())
            kyfan_cases, kyfan_fails = kyfan_cases + oks[kyfan].size, kyfan_fails + int((~oks[kyfan]).sum())
            if witness is None:
                ratios = (check.lhs[:, 0, 6:] / check.rhs[:, 0, 6:]).max(axis=0)
                x = xs[np.argmin(oks.all(axis=0))] if not oks.all() else attaining[np.argmax(ratios)]
                witness = {"channel": phi.to_dict(), "input": matrix_to_entries(x)}
        assert fails and witness is not None
        argv = ("verify", "--random", "5", "--dims", "1..5", "--trials", "6")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        table, _, printed = out.partition("result: FAIL\n")
        assert table.splitlines()[1:] == [
            f"ky fan inequality (per k){kyfan_cases:>13}{kyfan_fails:>10}",
            f"gauge norm battery{cases:>20}{fails:>10}",
            "bound attained                       5         5",
        ]
        assert json.loads(printed) == witness
        # one channel per block prints the same
        monkeypatch.setattr(cli, "VERIFY_BLOCK_ENTRIES", 1)
        assert run(capsys, *argv)[:2] == (1, out)

    def test_witness_of_a_channel_that_fails_attainment_alone(self, capsys, monkeypatch):
        # the third of five random channels gets a bound 1e-6 too large: none of its trials
        # can fail, but its bound is no longer attained. Its witness is the attaining input
        # that holds its largest ratio, I when s > t and else the top eigenprojector of
        # Phi†(I), unless an earlier channel fails first
        rng = np.random.default_rng(0)
        shapes = [[int(rng.integers(*r)) for r in ((1, 6), (1, 6), (1, 4), (2**31,))] for _ in range(5)]
        first, _, target, *_ = (random_channel(d_in, d_out, k, 1.0, sub) for d_in, d_out, k, sub in shapes)
        real = shrink.shrink_upper_bound

        def scaled(factors):
            # verify builds its own channels, so each is known by its Kraus set
            return lambda phi: real(phi) * factors.get(phi.kraus.tobytes(), 1.0)

        argv = ("verify", "--random", "5", "--dims", "1..5", "--trials", "6")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        passed = out.splitlines()[:4]
        monkeypatch.setattr(shrink, "shrink_upper_bound", scaled({target.kraus.tobytes(): 1 + 1e-6}))
        code, out, _ = run(capsys, *argv)
        table, _, printed = out.partition("result: FAIL\n")
        assert code == 1 and table.splitlines() == passed[:3] + ["bound attained                       5         1"]
        inv = target.invariants()
        assert inv.identity_image_norm != inv.adjoint_identity_image_norm
        top = np.eye(target.d_in) if inv.identity_image_norm > inv.adjoint_identity_image_norm else inv.adjoint_top_projector
        assert json.loads(printed) == {"channel": target.to_dict(), "input": matrix_to_entries(top)}
        # one channel per block prints the same
        with monkeypatch.context() as m:
            m.setattr(cli, "VERIFY_BLOCK_ENTRIES", 1)
            assert run(capsys, *argv)[:2] == (1, out)
        # a quarter of the first channel's bound fails its trials too, and it wins with its
        # first failing trial, not an attaining input
        monkeypatch.setattr(shrink, "shrink_upper_bound", scaled({first.kraus.tobytes(): 0.25, target.kraus.tobytes(): 1 + 1e-6}))
        code, out, _ = run(capsys, *argv)
        table, _, printed = out.partition("result: FAIL\n")
        assert code == 1 and table.splitlines()[-1] == "bound attained                       5         2"
        witness = json.loads(printed)
        inv = first.invariants()
        attaining = [matrix_to_entries(x) for x in (np.eye(first.d_in), inv.adjoint_top_projector)]
        assert witness["channel"] == first.to_dict() and witness["input"] not in attaining

    def test_file_channel(self, capsys, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(random_channel(2, 2, 2, 1.0, 21).to_json())
        code, out, _ = run(capsys, "verify", "--channel", str(path), "--trials", "5")
        assert code == 0
        assert "result: PASS" in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (("report", "--channel", "ptrace:2x2", "--seed", "-1"), "--seed must be non-negative, got -1"),
        (("verify", "--random", "2", "--seed", "-3"), "--seed must be non-negative, got -3"),
        (("verify", "--channel", "random:2x2x1:-5"), "random seed: expected a non-negative integer, got '-5'"),
        (("report", "--channel", "random:2x2x1:-5"), "random seed: expected a non-negative integer, got '-5'"),
        (("verify", "--channel", "cptp:2x2x1:-5"), "cptp seed: expected a non-negative integer, got '-5'"),
        (("report", "--channel", "cptp:2x2x1:-5"), "cptp seed: expected a non-negative integer, got '-5'"),
    ],
    ids=["report-flag", "verify-flag", "verify-random", "report-random", "verify-cptp", "report-cptp"],
)
def test_negative_seed_exits_2_naming_it(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


OVERSIZED_INTEGER = ('{"d_in": 2, "d_out": 1, "kraus": [[[[1.0, 0.0], [1%s, 0.0]]]]}' % ("0" * 400),
                     "kraus[0][0][1]: entries must be finite")
# a row far shorter than d_in is bad input, named before its 14.6 TiB matrix is allocated
WIDE_ROW = ('{"d_in": 1000000000000, "d_out": 1, "kraus": [[[[1, 0]]]]}', "kraus[0][0]: expected 1000000000000 entries, got 1")


@pytest.mark.parametrize("command, text, message", [
    ("report", *OVERSIZED_INTEGER), ("verify", *OVERSIZED_INTEGER), ("report", *WIDE_ROW), ("verify", *WIDE_ROW),
], ids=["report", "verify", "report-wide-row", "verify-wide-row"])
def test_oversized_json_integer_exits_2(capsys, tmp_path, command, text, message):
    path = tmp_path / "huge.json"
    path.write_text(text)
    code, out, err = run(capsys, command, "--channel", str(path))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("command", ["report", "verify"])
def test_overflowing_kraus_set_exits_2(capsys, tmp_path, command):
    # finite entries whose invariant pair overflows float64: bad input, named as such
    path = tmp_path / "huge.json"
    op = [[[1e160, 0.0], [0.0, 0.0]], [[2e160, 0.0], [1e160, 0.0]]]
    path.write_text(json.dumps({"d_in": 2, "d_out": 2, "kraus": [op]}))
    code, out, err = run(capsys, command, "--channel", str(path))
    assert code == 2
    assert out == ""
    assert "error: Phi(I) overflows float64: Kraus entries beyond the supported range 1e-150..1e150" in err


@pytest.mark.parametrize("argv, svd, eigh, eigvalsh", [
    # the pair takes one values-only solve of Phi(I) (2 x 2), for s, and one eigensystem of
    # Phi†(I) (3 x 3), for t; the fuzz takes one SVD per matrix size (2 x 2 images, 3 x 3
    # inputs), and the Schatten-2 Gram one values-only solve. The report reads no witness, so
    # no projector is formed: 2 SVDs, 1 eigh, 1 + 1 eigvalsh
    (("report", "--channel", "cptp:3x2x2:1"), 2, 1, 2),
    # the searched row's search reads the trace witness; its eigh calls are not pinned here.
    # No row reads h, so the one values-only solve is the pair's
    (("report", "--channel", "cptp:3x2x2:1", "--norm", "schatten:3"), 2, None, 1),
    # the printed bound reads the s and t the stacked check kept, and the attaining
    # projector is formed from the top eigenvector kept with them, with no solve:
    # the pair's 1 + 1 and the check's 2 SVDs
    (("verify", "--channel", "cptp:3x2x2:1"), 2, 1, 1),
    # a square channel's fuzz takes one SVD for images and inputs together, and its pair one
    # solve of each kind; with one Kraus operator every row is u, so no Gram is built or solved
    (("report", "--channel", "random:3x3x1:1"), 1, 1, 1),
    # with two, the Schatten-2 row takes the Gram's one values-only solve beside the pair's
    (("report", "--channel", "random:3x3x2:1"), 1, 1, 2),
    # Ky Fan 3 and 4 of a partial trace (three Kraus operators, padded dimension 6) have a
    # closed form, and both read Phi(I)'s eigenvalues, kept by the values-only solve that
    # gives s: the pair's 1 + 1 (Phi(I) 2 x 2, Phi†(I) 6 x 6), and the fuzz one SVD for the
    # images and one for the inputs
    (("report", "--channel", "ptrace:2x3", "--norm", "kyfan:3", "--norm", "kyfan:4"), 2, 1, 1),
    # a combination on Schatten 2 and Ky Fan 2 is searched as it is: no row reads h, so no
    # Gram is solved, and the one values-only solve is the pair's
    (("report", "--channel", "random:3x3x2:1", "--norm", "combo:0.5*schatten:2+2*kyfan:2"), 1, None, 1),
    # the block's pairs take one values-only solve per distinct size of Phi(I) (d_out) and one
    # eigensystem per distinct size of Phi†(I) (d_in), and the one stacked check one SVD per
    # distinct matrix size over images and inputs together. At seed 0 the channels are
    # 5 -> 4, 3 -> 2 and 2 -> 5: the pairs take d_out {4, 2, 5} and d_in {5, 3, 2}, the
    # check sizes {4, 2, 5} | {5, 3, 2}: 4 SVDs, 3 eigh, 3 eigvalsh. The attaining
    # projectors are formed from the kept vectors, with no solve
    (("verify", "--random", "3"), 4, 3, 3),
    # 3 -> 3, 2 -> 2, 2 -> 3, 3 -> 3, 3 -> 3 and 2 -> 3: d_out {3, 2}, d_in {3, 2}, and sizes
    # {2, 3} for the check: 2 SVDs, 2 eigh, 2 eigvalsh
    (("verify", "--random", "6", "--dims", "2..3"), 2, 2, 2),
], ids=["report", "report-schatten3", "verify-channel", "report-square", "report-square-two-kraus",
        "report-kyfan-shared-spectrum", "report-combination-reads-no-base", "verify-random",
        "verify-random-shared-sizes"])
def test_spectral_work_is_done_once(capsys, monkeypatch, argv, svd, eigh, eigvalsh):
    counts = {"svd": 0, "eigh": 0, "eigvalsh": 0}

    def counting(name):
        real = getattr(np.linalg, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return call

    for name in counts:
        monkeypatch.setattr(np.linalg, name, counting(name))
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert counts["svd"] == svd
    assert eigh is None or counts["eigh"] == eigh
    assert counts["eigvalsh"] == eigvalsh


def test_verify_builds_no_remixed_channel(capsys, monkeypatch):
    # the only channels constructed are the six checked ones
    built = []
    real = KrausChannel.__post_init__
    monkeypatch.setattr(KrausChannel, "__post_init__", lambda self: built.append(1) or real(self))
    code, out, _ = run(capsys, "verify", "--random", "6", "--dims", "2..3", "--trials", "1")
    assert code == 0 and "bound attained                       6         0" in out
    assert len(built) == 6


def test_verify_validates_each_input_size_once_per_chunk(capsys, monkeypatch):
    # each stacked check validates its inputs once per distinct input size: at seed 0 the
    # six channels have d_in 3, 2, 2, 3, 3 and 2, so one block takes two validations; with
    # a cap of 20 entries each channel is a block alone, in chunks of 5 (padded dimension 2)
    # or 2 (padded dimension 3) of its 3 trials and 2 attaining inputs, one validation each.
    # An input counts its padded dimension squared, so the 2 -> 3 channels (the third and
    # the sixth) chunk as d = 3 does: 1 + 5 * 3 chunks
    validations = []
    real_require, real_check = shrink.require_hermitian, cli.check_gauge_bounds

    def require(a, stacked=False):
        validations.append(np.shape(a))
        return real_require(a, stacked)

    checks = []

    def check(phis, xs, norms):
        validations.clear()
        out = real_check(phis, xs, norms)
        checks.append((len(validations), len({phi.d_in for phi in phis})))
        return out

    monkeypatch.setattr(shrink, "require_hermitian", require)
    monkeypatch.setattr(cli, "check_gauge_bounds", check)
    argv = ("verify", "--random", "6", "--dims", "2..3", "--trials", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and checks == [(2, 2)]
    checks.clear()
    monkeypatch.setattr(cli, "VERIFY_BLOCK_ENTRIES", 20)
    assert run(capsys, *argv)[:2] == (0, out)
    assert checks == [(1, 1)] * 16


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    j=st.sampled_from([-490, 490]) | st.integers(-490, 490),
    dims=st.lists(st.integers(1, 6), min_size=2, max_size=2).map(sorted),
    seed=st.integers(0, 2**31 - 1),
)
def test_bound_off_by_one_part_in_a_million_fails_attainment_on_every_channel(j, dims, seed):
    # the bound is attained at I and at the top eigenprojector of Phi†(I), so a bound 1e-6
    # too small or too large fails every channel's attainment case, and the true bound none,
    # at Kraus scales 2^+-490. The channels are random ones with 1-3 Kraus operators, and
    # every other one whose shape allows it trace preserving, each scaled by 2^j
    real_bound, real_channel = shrink.shrink_upper_bound, cli.random_channel

    def channel(d_in, d_out, n_kraus, scale, sub):
        if sub % 2 and n_kraus * d_out >= d_in:
            return KrausChannel(d_in, d_out, random_cptp_channel(d_in, d_out, n_kraus, sub).kraus * 2.0**j)
        return real_channel(d_in, d_out, n_kraus, 2.0**j, sub)

    argv = ["verify", "--random", "6", "--dims", "%d..%d" % tuple(dims), "--trials", "2", "--seed", str(seed)]
    printed = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "random_channel", channel)
        for f in (1.0, 1 - 1e-6, 1 + 1e-6):
            m.setattr(shrink, "shrink_upper_bound", lambda phi, f=f: real_bound(phi) * f)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                code = main(argv)
            printed.append((code, out.getvalue().splitlines()[3]))
    assert printed == [
        (0, "bound attained                       6         0"),
        (1, "bound attained                       6         6"),
        (1, "bound attained                       6         6"),
    ]


def test_verify_takes_one_eigensystem_per_input_size_per_block(capsys, monkeypatch):
    # the attaining projectors of a block come from one eigensystem per distinct d_in: at
    # seed 0 the six channels have d_in 3, 2, 2, 3, 3 and 2, so one block takes two stacked
    # solves, and one channel per block takes one solve each
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: calls.append(a.shape) or real(a, *args, **kw))
    argv = ("verify", "--random", "6", "--dims", "2..3")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and calls == [(3, 3, 3), (3, 2, 2)]
    calls.clear()
    monkeypatch.setattr(cli, "VERIFY_BLOCK_ENTRIES", 1)
    assert run(capsys, *argv)[:2] == (0, out)
    assert calls == [(1, d, d) for d in (3, 2, 2, 3, 3, 2)]


def test_verify_draws_and_checks_each_channel_once(capsys, monkeypatch):
    # one stacked input draw per channel and one battery evaluation per block of
    # channels (here all three), at the names the benchmark's tracer wraps
    counts = {"random_hermitian": 0, "gauge_eval": 0}
    for owner, name in ((cli, "random_hermitian"), (shrink, "gauge_eval")):
        real = getattr(owner, name)

        def call(*args, _real=real, _name=name, **kwargs):
            counts[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, call)
    code, out, _ = run(capsys, "verify", "--random", "3", "--trials", "20")
    assert code == 0 and "result: PASS" in out
    assert counts == {"random_hermitian": 3, "gauge_eval": 1}



@pytest.mark.parametrize("columns", ["40", "80", "200"])
def test_help_is_formatted_as_argparse_default(monkeypatch, columns):
    # build_parser reads the terminal width once; help and usage must read as the
    # default formatter, which sizes itself on every call, prints them
    monkeypatch.setenv("COLUMNS", columns)
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for p in (parser, *sub.choices.values()):
        ours = (p.format_help(), p.format_usage())
        p.formatter_class = argparse.HelpFormatter
        assert ours == (p.format_help(), p.format_usage())
    assert [p.prog for p in sub.choices.values()] == ["cpshrink report", "cpshrink verify"]


@pytest.mark.parametrize("entries, stacks", [(27, [3, 3, 3]), (9, [1, 2, 2, 2, 2])])
def test_verify_checks_a_channel_over_the_cap_in_chunks(capsys, monkeypatch, entries, stacks):
    # a lone channel whose inputs exceed the cap draws and checks them at most that many
    # entries at a time, or two inputs at a time under one input's entries, so its memory
    # does not grow with --trials. Its seven trials and two attaining inputs end in a full
    # chunk; under a negative slack trial 1 fails first, so the witness's input comes from
    # the first or the second chunk. The table, the witness and the exit code are those of
    # one pass over all seven trials
    monkeypatch.setattr(shrink, "BOUND_SLACK", -0.6)
    argv = ("verify", "--channel", "random:3x2x2:4", "--trials", "7")
    whole = run(capsys, *argv)
    assert whole[0] == 1
    sizes = []
    real = cli.check_gauge_bounds
    monkeypatch.setattr(cli, "check_gauge_bounds", lambda phis, xs, norms: sizes.append(len(xs[0])) or real(phis, xs, norms))
    monkeypatch.setattr(cli, "VERIFY_BLOCK_ENTRIES", entries)
    assert run(capsys, *argv) == whole
    assert sizes == stacks


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    channels=st.integers(2, 6),
    dims=st.lists(st.integers(1, 5), min_size=2, max_size=2).map(sorted),
    trials=st.integers(1, 8),
    seed=st.integers(0, 2**31 - 1),
    slack=st.sampled_from([-0.6, -0.05]),
)
def test_verify_output_does_not_depend_on_the_block_cap(channels, dims, trials, seed, slack):
    # a negative slack fails some trials; the exit code and stdout, the witness and its input
    # included, are the same at every cap: one channel per block, a cap of 50 entries (a lone
    # channel's trials in chunks beside blocks of several channels) and the default
    argv = ["verify", "--random", str(channels), "--dims", "%d..%d" % tuple(dims), "--trials", str(trials),
            "--seed", str(seed)]
    printed = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(shrink, "BOUND_SLACK", slack)
        for cap in (1, 50, 2**16):
            m.setattr(cli, "VERIFY_BLOCK_ENTRIES", cap)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                printed.append((main(argv), out.getvalue()))
    assert printed[1:] == printed[:1] * 2


def test_verify_blocks_and_chunks_at_the_cap(monkeypatch):
    # one rule partitions every run: a channel's inputs are its trials and its two attaining
    # inputs. A channel that brings a block to exactly the cap stays in it, one entry more
    # starts a new block, and each block takes its inputs in chunks of at most the cap's
    # entries, or of two inputs: all at once within the cap, else summing to them with the
    # short chunk first. The counts are of trials, so the last one is its chunk less two
    def parts(cap, dims, trials):
        monkeypatch.setattr(cli, "VERIFY_BLOCK_ENTRIES", cap)
        channels = [identity_channel(d) for d in dims]
        return [([phi.d_in for phi in block], counts) for block, counts in cli._blocks(channels, trials)]

    # 4 trials and 2 attaining inputs of d_in 2, 1 and 2: 24 + 6 + 24 = 54 entries
    assert parts(54, (2, 1, 2), 4) == [([2, 1, 2], [4])]
    assert parts(53, (2, 1, 2), 4) == [([2, 1], [4]), ([2], [4])]
    # a lone channel over the cap: 9 inputs of 9 entries, at most 27 or 18 at a time, or
    # two inputs when the cap is under two inputs' entries; the last chunk may hold the
    # attaining pair alone
    assert parts(27, (3,), 7) == [([3], [3, 3, 1])]
    assert parts(18, (3,), 7) == [([3], [1, 2, 2, 2, 0])]
    assert parts(8, (3,), 7) == [([3], [1, 2, 2, 2, 0])]
    assert parts(20, (1, 3), 4) == [([1], [4]), ([3], [2, 2, 0])]
    # the default cap: a 16 x 16 channel at 300 trials holds 77,312 entries
    monkeypatch.undo()
    ((block, counts),) = cli._blocks([identity_channel(16)], 300)
    assert len(block) == 1 and counts == [46, 254]


def test_verify_counts_each_trial_on_its_padded_dimension(capsys):
    # a trial's image is d_out x d_out, so a 1 -> 16 channel counts 16^2 = 256 entries per
    # trial, not one: 16,000 trials and 2 attaining inputs take chunks of 256, whose images
    # hold the cap's entries. In one chunk their images would hold 62 x the cap, and the pass
    # peaks at 182 x 16 bytes per entry of the cap; in chunks it peaks at about 4 x
    ((block, counts),) = cli._blocks([random_channel(1, 16, 2, 1.0, 1)], 16000)
    assert len(block) == 1 and counts == [130] + [256] * 61 + [254]
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", "--channel", "random:1x16x2:1", "--trials", "16000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "result: PASS" in out
    assert peak <= 6 * 16 * cli.VERIFY_BLOCK_ENTRIES


@pytest.mark.parametrize("argv, named", [
    (("report", "--channel", "ptrace:0x2"), "ptrace dimensions: dimensions must be positive, got '0x2'"),
    (("report", "--channel", "identity:0"), "identity dimension must be positive, got 0"),
    (("verify", "--random", "2", "--dims", "3..2"), "--dims range is empty or invalid: '3..2'"),
], ids=["ptrace", "identity", "dims"])
def test_bad_dimensions_exit_2(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and named in err
