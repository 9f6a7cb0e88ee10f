import json

import numpy as np
import pytest

from cpshrink.channel import random_channel
from cpshrink.cli import main, resolve_channel
from cpshrink.errors import ChannelFormatError
from cpshrink.gauge import Schatten
from cpshrink.shrink import shrink_report


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

    def test_large_schatten_exponent_exits_0(self, capsys):
        code, out, _ = run(
            capsys, "report", "--channel", "random:1x1x1:3", "--norm", "schatten:400", "--format", "json",
        )
        assert code == 0
        row = json.loads(out)["norms"][0]
        assert row["empirical_lower"] <= row["upper_bound"] * (1 + 1e-9)

    def test_seventeen_digit_floats(self, capsys):
        code, out, _ = run(
            capsys, "report", "--channel", "random:2x2x2:9", "--norm", "schatten:2",
            "--restarts", "2", "--steps", "4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        value = doc["invariants"]["identity_image_norm"]
        assert f'"identity_image_norm": {value:.17g}' in out


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

    def test_file_channel(self, capsys, tmp_path):
        path = tmp_path / "chan.json"
        path.write_text(random_channel(2, 2, 2, 1.0, 21).to_json())
        code, out, _ = run(capsys, "verify", "--channel", str(path), "--trials", "5")
        assert code == 0
        assert "result: PASS" in out
