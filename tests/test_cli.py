import json
import os

import numpy as np
import pytest

from leakywire.cli import load_curve, main, write_results
from leakywire.curve import PlanarCurvatureProfile, StraightLine
from leakywire.errors import ConfigError, CurveFormatError
from leakywire.operators import GridSpec
from leakywire.solver import SolveConfig, spectrum_scan


def run_cli(*argv):
    return main(list(argv))


class TestLoadCurve:
    def test_builtin_straight(self):
        assert isinstance(load_curve("straight"), StraightLine)

    def test_inline_bump(self):
        c = load_curve("bump:a=0.5,w=2")
        assert isinstance(c, PlanarCurvatureProfile)
        assert c.params == {"profile": "gaussian", "a": 0.5, "w": 2.0}

    def test_inline_power(self):
        c = load_curve("power:a=1,beta=2")
        assert c.params["profile"] == "power_tail"

    def test_unknown_inline_family(self):
        with pytest.raises(CurveFormatError):
            load_curve("spiral:a=1")

    def test_json_file(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"family": "straight"}))
        assert isinstance(load_curve(str(path)), StraightLine)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_curve("/nonexistent/curve.json")

    def test_sampled_file_bad_parameter_named(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({
            "family": "sampled",
            "samples": [[0, 0, 0, 0], [1, 1, 0, 0], [0.5, 2, 0, 0], [2, 3, 0, 0]],
        }))
        with pytest.raises(CurveFormatError, match="index 2"):
            load_curve(str(path))


class TestSolveCommand:
    def test_straight_empty_states(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = run_cli("solve", "--curve", "straight", "--alpha", "0",
                       "-L", "16", "-N", "128", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["states"] == []
        assert doc["zeta0"] == pytest.approx(-1.2609470067487734, abs=1e-12)

    def test_bump_binds(self, tmp_path):
        out = tmp_path / "res.json"
        code = run_cli("solve", "--curve", "bump:a=1,w=1", "--alpha", "0",
                       "-L", "16", "-N", "256", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["states"]) >= 1
        assert doc["states"][0]["energy"] < -1.26095 * (1 - 1e-3)

    def test_malformed_json_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli("solve", "--curve", str(bad))
        assert code == 3
        assert "line 1" in capsys.readouterr().err

    def test_inadmissible_curve_exits_1(self, tmp_path):
        ang = np.linspace(-np.pi, np.pi, 401)
        path = tmp_path / "loop.json"
        path.write_text(json.dumps({
            "family": "sampled",
            "samples": np.column_stack(
                [ang, np.cos(ang), np.sin(ang), np.zeros_like(ang)]).tolist(),
        }))
        code = run_cli("solve", "--curve", str(path), "-L", "3.14", "-N", "64")
        assert code == 1


class TestScanCommand:
    def test_json_payload(self, tmp_path):
        out = tmp_path / "scan.json"
        code = run_cli("scan", "--curve", "straight", "--alpha", "0.3",
                       "-L", "16", "-N", "128", "--points", "8", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["kappas"]) == 8
        lam1 = np.array([row[0] for row in doc["lambdas"]])
        assert np.allclose(lam1, doc["s_kappa"], atol=1e-12)
        assert any(c["branch"] == 0 for c in doc["crossings"])

    def test_csv_format(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli("scan", "--curve", "straight", "-L", "8", "-N", "64",
                       "--points", "4", "--format", "csv", "-o", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("kappa,s_kappa,lambda_1")
        assert len(lines) == 5

    def test_csv_bytes_are_the_renderer_output(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli("scan", "--curve", "straight", "--alpha", "0.3", "-L", "8",
                       "-N", "64", "-m", "2", "--kappa-min", "0.5", "--kappa-max", "2",
                       "--points", "4", "--format", "csv", "-o", str(out))
        assert code == 0
        config = SolveConfig(alpha=0.3, grid=GridSpec(8.0, 64), m_branches=2)
        curve, _ = spectrum_scan(StraightLine(), config, (0.5, 2.0), 4)
        data = out.read_bytes()
        assert data == curve.csv_text().encode()
        assert b"\r" not in data


class TestCheckCommand:
    def test_bump_all_pass(self, tmp_path):
        out = tmp_path / "check.json"
        code = run_cli("check", "--curve", "bump:a=1,w=1", "--mu", "1",
                       "--samples", "300", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["pass_a1"] is True
        assert doc["pass_a2"] is True
        assert doc["pass_decay"] is True
        assert doc["a2"]["mu"] == 1.0

    def test_straight_c_exactly_one(self, tmp_path):
        out = tmp_path / "check.json"
        code = run_cli("check", "--curve", "straight", "--samples", "200",
                       "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["c_estimate"] == 1.0


class TestConvergeCommand:
    def test_straight_vacuous(self, tmp_path):
        out = tmp_path / "conv.json"
        code = run_cli("converge", "--curve", "straight", "-L", "16",
                       "-N", "128", "--levels", "2", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["convergence"]["accepted"] is True


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["solve", "--curve", "bump:a=1,w=1", "--alpha", "0",
                "-L", "16", "-N", "128"]
        assert run_cli(*args, "-o", str(a)) == 0
        assert run_cli(*args, "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        # timestamps live only in the sidecar
        assert os.path.exists(f"{a}.meta.json")
        assert "written_at" not in a.read_text()

    def test_round_trip_equality(self, tmp_path):
        out = tmp_path / "res.json"
        run_cli("solve", "--curve", "straight", "-L", "8", "-N", "64",
                "-o", str(out))
        doc = json.loads(out.read_text())
        again = json.loads(json.dumps(doc))
        assert again == doc


class TestWriteResults:
    def test_atomic_no_partial_file(self, tmp_path):
        target = tmp_path / "sub" / "out.json"
        write_results({"x": 1}, target)
        assert json.loads(target.read_text()) == {"x": 1}
        leftovers = [p for p in target.parent.iterdir()
                     if p.name.endswith(".tmp")]
        assert leftovers == []

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            write_results({"x": 1}, tmp_path / "out.bin", fmt="parquet")
