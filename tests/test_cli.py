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

from cpshrink import channel, cli, shrink
from cpshrink.channel import (
    KrausChannel,
    choi_product,
    identity_channel,
    invariant_pair,
    kraus_vectors,
    matrix_to_entries,
    random_channel,
    random_isometry,
    remix_product,
)
from cpshrink.cli import main, resolve_channel
from cpshrink.errors import ChannelFormatError
from cpshrink.gauge import KyFan, Schatten
from cpshrink.shrink import check_gauge_bounds, norm_battery, shrink_report, shrink_upper_bound
from cpshrink.spectral import is_psd, random_hermitian


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

    @pytest.mark.parametrize("scale", [1e3, 1e120])
    def test_remix_invariance_holds_at_large_kraus_scale(self, capsys, tmp_path, scale):
        path = tmp_path / "chan.json"
        path.write_text(random_channel(3, 3, 2, scale, 1).to_json())
        code, out, _ = run(capsys, "verify", "--channel", str(path), "--trials", "5")
        assert code == 0
        assert "remix invariance                     2         0" in out
        assert "result: PASS" in out

    @pytest.mark.parametrize("scale", [1e-6, 1e-150])
    def test_wrong_remix_fails_at_any_kraus_scale(self, capsys, monkeypatch, tmp_path, scale):
        # the comparison is relative to the base's largest entry, so a remix that scales the
        # Kraus set by 1.5 fails at a small Kraus scale too, and a right one passes there
        path = tmp_path / "chan.json"
        path.write_text(random_channel(3, 3, 2, scale, 1).to_json())
        argv = ("verify", "--channel", str(path), "--trials", "5")
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "remix invariance                     2         0" in out
        real = cli.remix_product
        monkeypatch.setattr(cli, "remix_product", lambda v, ops: real(v, ops) * 1.5)
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert "remix invariance                     2         2" in out

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
            tables.append(out.splitlines()[:5])
        assert tables[0] == tables[1]
        assert tables[0][1:3] == [
            "ky fan inequality (per k)           60         3",
            "gauge norm battery                 200         8",
        ]

    def test_tampered_remix_fails(self, capsys, monkeypatch):
        real = cli.remix_product
        monkeypatch.setattr(cli, "remix_product", lambda v, ops: real(v, ops) * (1 + 1e-6))
        code, out, _ = run(capsys, "verify", "--channel", "random:3x3x2:1", "--trials", "5")
        assert code == 1
        assert "remix invariance                     2         2" in out

    def test_failing_suites_and_witness(self, capsys, monkeypatch):
        # a negative slack fails some checks: the counts and the first failing trial are pinned
        monkeypatch.setattr(shrink, "BOUND_SLACK", -0.6)
        code, out, _ = run(capsys, "verify", "--channel", "random:3x2x2:4", "--trials", "6")
        assert code == 1
        table, _, witness = out.partition("result: FAIL\n")
        assert table.splitlines()[:5] == [
            "suite                            cases  failures",
            "ky fan inequality (per k)           18         3",
            "gauge norm battery                  60        11",
            "remix invariance                     2         0",
            "choi positivity                      1         0",
        ]
        doc = json.loads(witness)
        assert doc["channel"] == resolve_channel("random:3x2x2:4").to_dict()
        rng = np.random.default_rng(0)
        trials = [random_hermitian(3, rng) for _ in range(6)]
        assert doc["input"] == matrix_to_entries(trials[1])

    def test_stacked_channels_match_a_per_channel_loop(self, capsys, monkeypatch):
        # a negative slack fails some checks; the suite table and the witness are those
        # that one check per channel predicts, with the draws in the same order
        monkeypatch.setattr(shrink, "BOUND_SLACK", -0.6)
        rng = np.random.default_rng(0)
        shapes = [(int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 4)), int(rng.integers(2**31)))
                  for _ in range(5)]
        cases = fails = kyfan_cases = kyfan_fails = 0
        witness = None
        for d_in, d_out, n_kraus, sub in shapes:
            phi = random_channel(d_in, d_out, n_kraus, 1.0, sub)
            xs = random_hermitian(d_in, rng, 6)
            for extra in range(cli.REMIX_CHECKS):
                random_isometry(n_kraus + 2 * extra, n_kraus, rng)
            check = check_gauge_bounds([phi], [xs], norm_battery(max(d_in, d_out)))
            oks = check.ok[:, 0]
            kyfan = np.array([isinstance(norm, KyFan) for norm in check.norms])
            cases, fails = cases + oks.size, fails + int((~oks).sum())
            kyfan_cases, kyfan_fails = kyfan_cases + oks[kyfan].size, kyfan_fails + int((~oks[kyfan]).sum())
            if witness is None and not oks.all():
                witness = {"channel": phi.to_dict(), "input": matrix_to_entries(xs[np.argmin(oks.all(axis=0))])}
        assert fails and witness is not None
        argv = ("verify", "--random", "5", "--dims", "1..5", "--trials", "6")
        code, out, _ = run(capsys, *argv)
        assert code == 1
        table, _, printed = out.partition("result: FAIL\n")
        assert table.splitlines()[1:] == [
            f"ky fan inequality (per k){kyfan_cases:>13}{kyfan_fails:>10}",
            f"gauge norm battery{cases:>20}{fails:>10}",
            "remix invariance                    10         0",
            "choi positivity                      5         0",
        ]
        assert json.loads(printed) == witness
        # one channel per block prints the same
        monkeypatch.setattr(cli, "VERIFY_BLOCK_ENTRIES", 1)
        assert run(capsys, *argv)[:2] == (1, out)

    @pytest.mark.parametrize("patched, line", [
        ("is_psd", "choi positivity                      5         1"),
        ("remix_product", "remix invariance                    10         2"),
    ])
    def test_witness_of_a_suite_without_inputs(self, capsys, monkeypatch, patched, line):
        # the third of five random channels fails a suite that draws no input: its
        # witness is the channel alone, unless the battery fails in an earlier channel
        rng = np.random.default_rng(0)
        shapes = [[int(rng.integers(*r)) for r in ((1, 6), (1, 6), (1, 4), (2**31,))] for _ in range(5)]
        d_in, d_out, n_kraus, sub = shapes[2]
        target = random_channel(d_in, d_out, n_kraus, 1.0, sub)
        vecs = kraus_vectors(target.kraus)
        gram = vecs.conj() @ vecs.T
        real = getattr(cli, patched)

        def is_psd(grams):
            # the target's Kraus Gram, zero-padded in the stack of its run, shifted by
            # -2 |gram|_max I: no longer positive, while its remix suite reads no Gram
            grams = grams.copy()
            for g in grams:
                if (np.abs(g[:n_kraus, :n_kraus] - gram).max() <= 1e-9 * np.abs(gram).max()
                        and not g[n_kraus:].any() and not g[:, n_kraus:].any()):
                    g -= 2 * np.abs(gram).max() * np.eye(len(g))
            return real(grams)

        def remix_product(v, ops):
            # the target's remixed Kraus sets scaled by 1.5, every other channel's as they are:
            # ops is the run's zero-padded Kraus stack (channels, 1, K, d_out, d_in)
            mixed = real(v, ops)
            for c, padded in enumerate(ops[:, 0]):
                if (np.array_equal(padded[:n_kraus, :d_out, :d_in], target.kraus)
                        and np.count_nonzero(padded) == np.count_nonzero(target.kraus)):
                    mixed[c] *= 1.5
            return mixed

        argv = ("verify", "--random", "5", "--dims", "1..5", "--trials", "6")

        def witness(out):
            return json.loads(out.partition("result: FAIL\n")[2])

        with monkeypatch.context() as m:
            m.setattr(shrink, "BOUND_SLACK", -0.6)
            battery_witness = witness(run(capsys, *argv)[1])
        monkeypatch.setattr(cli, patched, {"is_psd": is_psd, "remix_product": remix_product}[patched])
        code, out, _ = run(capsys, *argv)
        assert code == 1 and line in out
        assert [row.split()[-1] for row in out.splitlines()[1:5]].count("0") == 3
        assert witness(out) == {"channel": target.to_dict()}
        # one channel per block prints the same
        with monkeypatch.context() as m:
            m.setattr(cli, "VERIFY_BLOCK_ENTRIES", 1)
            assert run(capsys, *argv)[:2] == (1, out)
        # a battery failure in an earlier channel wins, with its failing input
        monkeypatch.setattr(shrink, "BOUND_SLACK", -0.6)
        code, out, _ = run(capsys, *argv)
        assert code == 1 and line in out
        assert witness(out) == battery_witness
        assert "input" in battery_witness and battery_witness["channel"] != target.to_dict()

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
    # s and t take one SVD each, the fuzz one per matrix size (2 x 2 images, 3 x 3 inputs);
    # the report reads no witness, so no eigh: one values-only solve for the Schatten-2 Gram
    (("report", "--channel", "cptp:3x2x2:1"), 4, 0, 1),
    # the searched row's search reads the trace witness; its eigh calls are not pinned here
    (("report", "--channel", "cptp:3x2x2:1", "--norm", "schatten:3"), 4, None, 0),
    # the printed bound reads the s and t the stacked check already computed; the Choi
    # suites take two values-only solves per run of channels: one for the stack of Kraus
    # Grams (positivity) and one for the stack of R S R† (remix invariance)
    (("verify", "--channel", "cptp:3x2x2:1"), 4, 0, 2),
    # a square channel's s and t take one stacked SVD, and its fuzz one for images and inputs;
    # with one Kraus operator every row is u, so no Gram is built or solved
    (("report", "--channel", "random:3x3x1:1"), 2, 0, 0),
    # with two, the Schatten-2 row takes the Gram's one values-only solve
    (("report", "--channel", "random:3x3x2:1"), 2, 0, 1),
    # Ky Fan 3 and 4 of a partial trace (three Kraus operators, padded dimension 6) have a
    # closed form, and both read Phi(I)'s eigenvalues from one values-only solve: s and t
    # take one SVD per size (2 and 6), the fuzz one for the images and one for the inputs
    (("report", "--channel", "ptrace:2x3", "--norm", "kyfan:3", "--norm", "kyfan:4"), 4, 0, 1),
    # a combination on Schatten 2 and Ky Fan 2 is searched as it is: no row reads h or
    # ||Phi(I)||_(2), so neither the Gram nor Phi(I)'s eigenvalues are solved for
    (("report", "--channel", "random:3x3x2:1", "--norm", "combo:0.5*schatten:2+2*kyfan:2"), 2, None, 0),
    # the block's s and t (the remixed channels never read them or the witness) take one
    # SVD per distinct size of Phi(I) (d_out) and Phi†(I) (d_in), and the one stacked check
    # one per distinct matrix size over images and inputs together. At seed 0 the channels
    # are 5 -> 4, 3 -> 2 and 2 -> 5: s and t take sizes {4, 2, 5} | {5, 3, 2}, the check
    # sizes {4, 2, 5} | {5, 3, 2}: 4 + 4. The three channels are one block and one run of
    # the Choi suites, whose two solves (Grams, then R S R†) serve all three
    (("verify", "--random", "3"), 8, 0, 2),
    # 3 -> 3, 2 -> 2, 2 -> 3, 3 -> 3, 3 -> 3 and 2 -> 3: sizes {2, 3} for s and t and for
    # the check: 2 + 2. One block and one run: two solves for the six channels' Choi suites
    (("verify", "--random", "6", "--dims", "2..3"), 4, 0, 2),
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


def test_verify_forms_no_choi_matrix(capsys, monkeypatch):
    # the Choi suites read K x K algebra of the vectorized Kraus operators: choi_product is
    # not called, and no solve is larger than a run's remixed and own Kraus counts together.
    # The channel is 4 x 4 with two Kraus operators, so its Choi matrix would be 16 x 16;
    # the solves are its 2 x 2 Gram and the 6 x 6 R S R† of 4 remixed and 2 own operators
    calls = []
    monkeypatch.setattr(channel, "choi_product", lambda ops: calls.append(ops.shape))
    monkeypatch.setattr(cli, "choi_product", lambda ops: calls.append(ops.shape), raising=False)
    sizes = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args: sizes.append(a.shape[-1]) or real(a, *args))
    code, out, _ = run(capsys, "verify", "--channel", "random:4x4x2:1", "--trials", "1")
    assert code == 0 and "choi positivity                      1         0" in out
    assert calls == [] and sizes == [2, 6]


def test_verify_builds_no_remixed_channel(capsys, monkeypatch):
    # the remix suite reads the remixed pair and Choi matrices from the shared helpers, so the
    # only channels constructed are the six checked ones
    built = []
    real = KrausChannel.__post_init__
    monkeypatch.setattr(KrausChannel, "__post_init__", lambda self: built.append(1) or real(self))
    code, out, _ = run(capsys, "verify", "--random", "6", "--dims", "2..3", "--trials", "1")
    assert code == 0 and "remix invariance                    12         0" in out
    assert len(built) == 6


def test_verify_validates_each_input_size_once_per_chunk(capsys, monkeypatch):
    # each stacked check validates its inputs once per distinct input size: at seed 0 the
    # six channels have d_in 3, 2, 2, 3, 3 and 2, so one block takes two validations; with
    # a cap of 20 entries each channel is a block alone, in chunks of 5 (padded dimension 2)
    # or 2 (padded dimension 3) of its 3 trials, one validation each. A trial counts its
    # padded dimension squared, so the 2 -> 3 channels (the third and the sixth) chunk as
    # d = 3 does: 1 + 5 * 2 chunks
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
    assert checks == [(1, 1)] * 11


def _remixed_channel_holds(phi: KrausChannel, v: np.ndarray, base_choi: np.ndarray) -> bool:
    # the per-remix path: build the remixed channel and compare its pair and Choi matrix
    def close(mixed, base):
        return float(np.abs(mixed - base).max()) <= 1e-9 * float(np.abs(base).max())

    mixed = phi.remix(v)
    inv, minv = phi.invariants(), mixed.invariants()
    return (
        close(minv.identity_image, inv.identity_image)
        and close(minv.adjoint_identity_image, inv.adjoint_identity_image)
        and close(mixed.choi_matrix(), base_choi)
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d_in=st.integers(1, 6),
    d_out=st.integers(1, 6),
    n_kraus=st.integers(1, 3),
    j=st.integers(-490, 490),
    seed=st.integers(0, 2**31 - 1),
    tamper=st.sampled_from([1.0, 1 + 1e-12, 1 + 1e-6]),
)
def test_remix_suite_matches_remixed_channels(d_in, d_out, n_kraus, j, seed, tamper):
    phi = random_channel(d_in, d_out, n_kraus, 2.0**j, seed)
    rng = np.random.default_rng(seed)
    # the helpers on a stack of unpadded isometries give each remixed channel's pair and Choi
    # matrix bit for bit
    for rows in (n_kraus, n_kraus + 2):
        vs = np.stack([random_isometry(rows, n_kraus, rng) for _ in range(2)])
        ops = remix_product(vs, phi.kraus)
        pair, choi = invariant_pair(ops), choi_product(ops)
        for r, v in enumerate(vs):
            mixed = KrausChannel(d_in, d_out, (v @ phi.kraus.reshape(n_kraus, -1)).reshape(rows, d_out, d_in))
            inv = mixed.invariants()
            assert np.array_equal(pair[0][r], inv.identity_image)
            assert np.array_equal(pair[1][r], inv.adjoint_identity_image)
            assert np.array_equal(choi[r], mixed.choi_matrix())
    # verify's Choi suites, square isometry padded, flag each remix as the remixed channels
    # do, against the channel's own Kraus vectors scaled by sqrt(tamper), so that its Choi
    # matrix is off by the factor tamper: the reference compares that Choi matrix entrywise,
    # the suite reads the spectral norm of the difference from R S R†
    vs = [random_isometry(n_kraus + 2 * extra, n_kraus, rng) for extra in range(cli.REMIX_CHECKS)]
    base = choi_product(phi.kraus * np.sqrt(tamper))
    real = cli.kraus_vectors
    with pytest.MonkeyPatch.context() as m:
        # the run's own Kraus stack is (channels, K, d_out, d_in), its remixes (channels, 2, rows, d_out, d_in)
        m.setattr(cli, "kraus_vectors", lambda ops: real(ops) * (np.sqrt(tamper) if ops.ndim == 4 else 1.0))
        (held,), (psd,) = cli._choi_suites([phi], [vs])
    assert held.tolist() == [_remixed_channel_holds(phi, v, base) for v in vs]
    assert held.all() == (tamper != 1 + 1e-6)
    assert psd


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    d_in=st.integers(1, 6),
    d_out=st.integers(1, 6),
    n_kraus=st.integers(1, 4),
    j=st.sampled_from([-490, 490]) | st.integers(-490, 490),
    seed=st.integers(0, 2**31 - 1),
    tamper=st.sampled_from([1.0, 1 + 1e-12, 1 + 1e-6, 1.5]),
)
def test_choi_suites_read_the_choi_spectra(d_in, d_out, n_kraus, j, seed, tamper):
    # the two facts the Choi suites rest on, read from the matrices they solve: the Kraus
    # Gram's eigenvalues are the Choi matrix's top min(K, d_in d_out), rank-deficient
    # Grams (K > d_in d_out) among them, and R S R†'s largest eigenvalue magnitude is the
    # spectral norm of the Choi difference, ~0 on exact remixes and never under its largest
    # entry. The channel's own vectors are scaled by sqrt(tamper), its Choi matrix by tamper
    phi = random_channel(d_in, d_out, n_kraus, 2.0**j, seed)
    rng = np.random.default_rng(seed)
    vs = [random_isometry(n_kraus + 2 * extra, n_kraus, rng) for extra in range(cli.REMIX_CHECKS)]
    base = choi_product(phi.kraus * np.sqrt(tamper))
    grams, differences = [], []
    real_vectors, real_psd, real_eigenvalues = cli.kraus_vectors, cli.is_psd, cli.hermitian_eigenvalues
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cli, "kraus_vectors", lambda ops: real_vectors(ops) * (np.sqrt(tamper) if ops.ndim == 4 else 1.0))
        m.setattr(cli, "is_psd", lambda x: grams.append(x) or real_psd(x))
        m.setattr(cli, "hermitian_eigenvalues", lambda x: differences.append(x) or real_eigenvalues(x))
        (held,), (psd,) = cli._choi_suites([phi], [vs])
    ((gram,),), ((difference, *_),) = grams, differences
    assert gram.shape == (n_kraus, n_kraus)
    w = np.linalg.eigvalsh(base)[::-1]
    top = min(n_kraus, d_in * d_out)
    np.testing.assert_allclose(np.linalg.eigvalsh(gram)[::-1][:top], w[:top], rtol=0, atol=1e-12 * w[0])
    assert psd == is_psd(base)
    largest = float(np.abs(base).max())
    for r, v in enumerate(vs):
        norm = float(np.abs(np.linalg.eigvalsh(difference[r])).max())
        entrywise = float(np.abs(phi.remix(v).choi_matrix() - base).max())
        assert norm >= entrywise - 1e-12 * largest
        if tamper == 1.0:
            assert norm <= 1e-12 * largest
    assert held.all() == (tamper < 1 + 1e-6)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    first=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    rest=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=4),
    counts=st.lists(st.integers(1, 4), min_size=6, max_size=6),
    scales=st.lists(st.sampled_from([-490, 490]) | st.integers(-490, 490), min_size=6, max_size=6),
    seed=st.integers(0, 2**31 - 1),
    tampered=st.integers(0, 5),
    patched=st.sampled_from(["remix_product", "invariant_pair", "kraus_vectors"]),
)
def test_padded_run_flags_each_channel_as_alone(first, rest, counts, scales, seed, tampered, patched):
    # a run of 2-6 channels is padded to its largest K, row count, d_in and d_out; the first two
    # channels are d_in -> d_out and d_out -> d_in, so the padded grid exceeds some channel's
    # d_in d_out unless d_in = d_out. One channel's first remix is tampered by 1 + 1e-6: its
    # operators (both checks see them), its pair (the pair check alone sees it) or its vectors
    # (the Choi check alone sees them). Each channel's flags are those of its own single-channel run, so
    # padding never flips a neighbour's verdict, and every exact remix holds at Kraus scales
    # 2^+-490, each check at its own channel's threshold
    shapes = [first, first[::-1], *rest]
    rng = np.random.default_rng(seed)
    run = [random_channel(d_in, d_out, k, 2.0**j, int(rng.integers(2**31)))
           for (d_in, d_out), k, j in zip(shapes, counts, scales)]
    isometries = [[random_isometry(phi.n_kraus + 2 * extra, phi.n_kraus, rng) for extra in range(cli.REMIX_CHECKS)]
                  for phi in run]
    tampered %= len(run)
    real = getattr(cli, patched)

    def suites(channels, isos, target):
        # the remixes' operators (channels, 2, rows, d_out, d_in), pair or vectors (channels, 2,
        # rows, d_in d_out); the channels' own stack (channels, K, d_out, d_in) is left alone
        def tampering(*args):
            out = real(*args)
            if target is not None and args[-1].ndim == 5:
                for part in out if patched == "invariant_pair" else (out,):
                    part[target, 0] *= 1 + 1e-6
            return out

        with pytest.MonkeyPatch.context() as m:
            m.setattr(cli, patched, tampering)
            return cli._choi_suites(channels, isos)

    held, psd = suites(run, isometries, tampered)
    for c, (phi, vs) in enumerate(zip(run, isometries)):
        (alone_held,), (alone_psd,) = suites([phi], [vs], 0 if c == tampered else None)
        assert held[c].tolist() == alone_held.tolist() and psd[c] == alone_psd
    expected = np.ones((len(run), cli.REMIX_CHECKS), dtype=bool)
    expected[tampered, 0] = False
    assert held.tolist() == expected.tolist() and psd.all()


@pytest.mark.parametrize("argv, one_block, channel_blocks", [
    # at seed 0 the channels have 2, 1 and 2 Kraus operators; the remix isometries are
    # (n + 2 * extra) x n for extra 0 and 1, so the shapes are {2x2, 4x2, 1x1, 3x1}: 4 in
    # one block, and 2 per channel in blocks of one: 2 * 3. The remix suite adds one R
    # factor per run of the Choi suites: one block is one run, 4 + 1, and a block of one
    # channel is one run too, (2 + 1) * 3
    (("verify", "--random", "3"), 5, 9),
    # 2, 1, 2, 3, 2 and 3 Kraus operators: shapes {1x1, 3x1, 2x2, 4x2, 3x3, 5x3}, 6 in
    # one block, and 2 * 6 in blocks of one; plus one R factor per run, 6 + 1 and (2 + 1) * 6
    (("verify", "--random", "6", "--dims", "2..3"), 7, 18),
], ids=["verify-random", "verify-random-shared-shapes"])
def test_verify_takes_one_qr_per_isometry_shape_per_block(capsys, monkeypatch, argv, one_block, channel_blocks):
    calls = []
    real = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kw: calls.append(a.shape) or real(a, *args, **kw))
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(calls) == one_block
    calls.clear()
    monkeypatch.setattr(cli, "VERIFY_BLOCK_ENTRIES", 1)
    assert run(capsys, *argv)[:2] == (0, out)
    assert len(calls) == channel_blocks


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


@pytest.mark.parametrize("entries, stacks", [(18, [2, 2, 2, 1]), (9, [1] * 7)])
def test_verify_checks_a_channel_over_the_cap_in_chunks(capsys, monkeypatch, entries, stacks):
    # a lone channel whose inputs exceed the cap draws and checks them at most that many
    # entries at a time, so its memory does not grow with --trials; under a negative slack
    # trial 1 fails first, so the witness's input comes from the first or the second chunk. The
    # table, the witness and the exit code are those of one pass over all seven trials
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
    # one rule partitions every run: a channel that brings a block to exactly the cap
    # stays in it, one entry more starts a new block, and each block takes its trials in
    # chunks of at most the cap's entries: all at once within the cap, else summing to them
    def parts(cap, dims, trials):
        monkeypatch.setattr(cli, "VERIFY_BLOCK_ENTRIES", cap)
        channels = [identity_channel(d) for d in dims]
        return [([phi.d_in for phi in block], counts) for block, counts, _ in cli._blocks(channels, trials)]

    # 4 trials of d_in 2, 1 and 2: 16 + 4 + 16 = 36 entries
    assert parts(36, (2, 1, 2), 4) == [([2, 1, 2], [4])]
    assert parts(35, (2, 1, 2), 4) == [([2, 1], [4]), ([2], [4])]
    # a lone channel over the cap: 7 trials of 9 entries, at most 18 at a time, or one
    # trial when the cap is under one trial's entries
    assert parts(18, (3,), 7) == [([3], [2, 2, 2, 1])]
    assert parts(8, (3,), 7) == [([3], [1] * 7)]
    assert parts(20, (1, 3), 4) == [([1], [4]), ([3], [2, 2])]
    # the default cap: a 16 x 16 channel at 300 trials holds 76,800 entries
    monkeypatch.undo()
    ((block, counts, _),) = cli._blocks([identity_channel(16)], 300)
    assert len(block) == 1 and counts == [256, 44]


def test_verify_counts_each_trial_on_its_padded_dimension(capsys):
    # a trial's image is d_out x d_out, so a 1 -> 16 channel counts 16^2 = 256 entries per
    # trial, not one: 16,000 trials take chunks of 256, whose images hold the cap's entries.
    # In one chunk their images would hold 62 x the cap, and the pass peaks at 182 x 16 bytes
    # per entry of the cap; in chunks it peaks at about 4 x
    ((block, counts, _),) = cli._blocks([random_channel(1, 16, 2, 1.0, 1)], 16000)
    assert len(block) == 1 and counts == [256] * 62 + [128]
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "verify", "--channel", "random:1x16x2:1", "--trials", "16000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and "result: PASS" in out
    assert peak <= 6 * 16 * cli.VERIFY_BLOCK_ENTRIES


def test_choi_runs_stay_within_the_cap(monkeypatch):
    # the rule that sizes a block's trial chunks sizes its Choi runs: a run takes max(1, cap //
    # entries) channels, a channel's entries being its share of the run's stack, (2, rows + K,
    # d_in d_out) on the block's padded grid (its largest K and d_in and d_out, rows = K + 2).
    # Each run's own stack holds at most the cap's entries, or the run is one channel
    def runs(cap, dims):
        # a dimension d is the identity channel on d, a triple (d_in, d_out, K) a random channel
        monkeypatch.setattr(cli, "VERIFY_BLOCK_ENTRIES", cap)
        channels = [identity_channel(d) if isinstance(d, int) else random_channel(*d, 1.0, 0) for d in dims]
        parts = []
        for block, _, size in cli._blocks(channels, 1):
            for c in range(0, len(block), size):
                part = block[c:c + size]
                n_kraus, d_in, d_out = (max(getattr(phi, a) for phi in part) for a in ("n_kraus", "d_in", "d_out"))
                assert len(part) == 1 or len(part) * cli.REMIX_CHECKS * (2 * n_kraus + 2) * d_in * d_out <= cap
                parts.append([phi.d_in for phi in part])
        return parts

    # one Kraus operator: rows 3 + K 1, so each channel holds 2 * 4 * d^2 entries at d_in = d
    # alone: 32 at d = 2, 128 at d = 4
    assert runs(96, (2, 2, 2, 2)) == [[2, 2, 2], [2]]
    assert runs(128, (2, 2, 2, 2)) == [[2, 2, 2, 2]]
    # a channel over the cap is a run alone
    assert runs(100, (4, 4, 4)) == [[4], [4], [4]]
    # every channel of the block counts on its 4 x 4 grid
    assert runs(100, (2, 4, 2, 2)) == [[2], [4], [2], [2]]
    assert runs(1, (2, 2)) == [[2], [2]]
    assert runs(100, (1,)) == [[1]]
    # and at its largest Kraus count: K = 3 gives rows 5 + K 3, 2 * 8 * 4 = 64 entries at d = 2
    assert runs(128, ((2, 2, 3), 2)) == [[2, 2]]
    assert runs(127, ((2, 2, 3), 2)) == [[2], [2]]
    # a 6 -> 2 channel beside a 2 -> 6 one: each alone holds 2 * 4 * 12 = 96 entries, but a
    # run of both pads them to the 6 x 6 grid, 2 * 2 * 4 * 36 = 576 entries, not 192
    assert runs(200, ((6, 2, 1), (2, 6, 1))) == [[6], [2]]
    assert runs(575, ((6, 2, 1), (2, 6, 1))) == [[6], [2]]
    assert runs(576, ((6, 2, 1), (2, 6, 1))) == [[6, 2]]


@pytest.mark.parametrize("dims", ["4..8", "6..10", "8..12", "10..16"])
def test_choi_runs_stay_within_the_cap_at_any_remix_count(capsys, monkeypatch, dims):
    # the draws, the run sizes and the padded isometries read one set of remix heights, so
    # with three remixes (heights K, K + 2 and K + 4) every run of more than one channel still
    # holds at most the cap's entries. Each run's stack (channels, remixes, rows + K, d_in d_out)
    # is counted from the isometries it is given, at the run's largest K, d_in and d_out
    monkeypatch.setattr(cli, "REMIX_CHECKS", 3)
    sizes = []
    real = cli._choi_suites

    def counted(part, isometries):
        n_kraus, d_in, d_out = (max(getattr(phi, a) for phi in part) for a in ("n_kraus", "d_in", "d_out"))
        rows = n_kraus + max(len(m) - phi.n_kraus for phi, vs in zip(part, isometries) for m in vs)
        assert {len(vs) for vs in isometries} == {3}
        sizes.append((len(part), len(part) * 3 * (rows + n_kraus) * d_in * d_out))
        return real(part, isometries)

    monkeypatch.setattr(cli, "_choi_suites", counted)
    code, out, _ = run(capsys, "verify", "--random", "40", "--dims", dims, "--trials", "1")
    assert code == 0 and "remix invariance                   120         0" in out
    assert any(channels > 1 for channels, _ in sizes)
    assert all(entries <= cli.VERIFY_BLOCK_ENTRIES for channels, entries in sizes if channels > 1)


def test_verify_choi_suites_keep_memory_bounded(capsys, monkeypatch):
    # a block of 60 channels with d_in, d_out in 1..32 (one block: their inputs hold under the
    # cap) stacks 15 x the cap's entries in one Choi pass, where a run of one 32 x 32 channel's
    # Choi matrix's entries, 16 x the cap, peaks at 22 x 16 bytes per entry of the cap; in runs
    # of at most the cap each holds about 2 x (the stack, and the QR's copy of it). The table
    # and the witness do not depend on the runs: one run per channel and one for the whole
    # block print the same
    peaks = []
    real, real_blocks = cli._choi_suites, cli._blocks

    def traced(channels, isometries):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = real(channels, isometries)
        peaks.append((tracemalloc.get_traced_memory()[1] - before) / (16 * cli.VERIFY_BLOCK_ENTRIES))
        return out

    argv = ("verify", "--random", "60", "--dims", "1..32", "--trials", "1")
    monkeypatch.setattr(cli, "_choi_suites", traced)
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, *argv)
    finally:
        tracemalloc.stop()
    assert code == 0 and "choi positivity                     60         0" in out
    assert len(peaks) > 1 and max(peaks) <= 3
    monkeypatch.setattr(cli, "_choi_suites", real)
    for run_of in (lambda block: 1, len):
        monkeypatch.setattr(cli, "_blocks", lambda channels, trials, run_of=run_of: (
            (block, counts, run_of(block)) for block, counts, _ in real_blocks(channels, trials)))
        assert run(capsys, *argv)[:2] == (0, out)


@pytest.mark.parametrize("argv, named", [
    (("report", "--channel", "ptrace:0x2"), "ptrace dimensions: dimensions must be positive, got '0x2'"),
    (("report", "--channel", "identity:0"), "identity dimension must be positive, got 0"),
    (("verify", "--random", "2", "--dims", "3..2"), "--dims range is empty or invalid: '3..2'"),
], ids=["ptrace", "identity", "dims"])
def test_bad_dimensions_exit_2(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and named in err
