import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import leakywire
import leakywire.spectral as spectral_mod
from leakywire.cli import load_curve, main, write_results
from leakywire.curve import PlanarCurvatureProfile, SampledParametric, StraightLine
from leakywire.errors import ConfigError, CurveFormatError, NumericalFailureError
from leakywire.operators import GridSpec, OperatorCache
from leakywire.solver import SolveConfig, spectrum_scan

from conftest import scan_samples


def run_cli(*argv):
    return main(list(argv))


def short_wire(path):
    """Write a sampled curve of half-length about 10.2 to ``path``; its samples."""
    t = np.linspace(-10.0, 10.0, 201)
    samples = np.column_stack([t, t, 0.8 * np.exp(-(t / 1.5) ** 2), 0.3 * np.tanh(t)])
    path.write_text(json.dumps({"family": "sampled", "samples": samples.tolist()}))
    return samples


class TestLoadCurve:
    def test_builtin_straight(self):
        assert isinstance(load_curve("straight"), StraightLine)

    def test_inline_bump(self):
        # k(s) = a exp(-(s/w)^2) with the spec's a and w
        c = load_curve("bump:a=0.5,w=2")
        assert isinstance(c, PlanarCurvatureProfile)
        assert c.curvature(0.0) == 0.5
        assert c.curvature(2.0) == pytest.approx(0.5 / math.e, rel=1e-14, abs=0.0)

    def test_inline_power(self):
        # k(s) = a for |s| < 1 and a |s|^(-beta) outside
        c = load_curve("power:a=1,beta=2")
        assert isinstance(c, PlanarCurvatureProfile)
        assert c.curvature(0.5) == 1.0
        assert c.curvature(2.0) == pytest.approx(0.25, rel=1e-14, abs=0.0)

    def test_unknown_inline_family(self):
        with pytest.raises(CurveFormatError):
            load_curve("spiral:a=1")

    def test_json_file(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"family": "straight"}))
        assert isinstance(load_curve(str(path)), StraightLine)

    def test_json_file_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "curve.json"
        path.write_text("[1, 2]")
        with pytest.raises(CurveFormatError, match="JSON object"):
            load_curve(str(path))

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

    def test_sidecar_holds_each_states_diagnostics(self, tmp_path):
        # the payload keeps only the states; how each was found goes to the
        # sidecar, in the payload's order
        out = tmp_path / "res.json"
        assert run_cli("solve", "--curve", "bump:a=3,w=2", "-L", "24", "-N", "256",
                       "-m", "6", "-o", str(out)) == 0
        states = json.loads(out.read_text())["states"]
        meta = json.loads(Path(f"{out}.meta.json").read_text())
        assert {"written_at_unix", "tool_version", "states"} <= set(meta)
        assert len(meta["states"]) == len(states) > 1
        for state, diag in zip(states, meta["states"]):
            assert set(diag) == {"bracket", "iterations", "correction", "evaluations",
                                 "eigensolver", "parity"}
            assert diag["bracket"][0] < state["kappa"] < diag["bracket"][1]
            assert abs(diag["correction"]) <= 1e-10
            assert diag["evaluations"] > 1
        assert "evaluations" not in out.read_text()

    def test_malformed_json_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli("solve", "--curve", str(bad))
        assert code == 3
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, field", [
        ({"family": "planar_curvature",
          "params": {"profile": "gaussian", "a": "x", "w": 1}}, "field 'a'"),
        ({"family": "straight", "domain_hint": "wide"}, "field 'domain_hint'"),
        ({"family": "sampled",
          "samples": [[0, 0, 0, 0], [1, 1, 0, 0], [2, "x", 0, 0], [3, 3, 0, 0]]},
         "samples must be an (n, 4) array of numbers"),
        ({"family": "planar_curvature",
          "params": {"profile": "gaussian", "a": 1, "w": 1}, "domain_hint": math.nan},
         "field 'domain_hint' must be finite"),
        ({"family": "sampled",
          "samples": [[0, 0, 0, 0], [1, 1, 0, 0], [2, math.inf, 0, 0], [3, 3, 0, 0]]},
         "samples must be finite; violated at sample index 2"),
    ], ids=["profile", "domain_hint", "samples", "nan_domain_hint", "inf_sample"])
    def test_non_numeric_or_non_finite_field_exits_3(self, tmp_path, capsys, spec, field):
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(spec))
        code = run_cli("solve", "--curve", str(path), "-L", "4", "-N", "32")
        captured = capsys.readouterr()
        assert code == 3
        assert f"configuration error: {field}" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_samples_overflowing_the_arc_length_exit_3(self, tmp_path, capsys):
        # finite samples near 1e200: |gamma'|^2 overflows, so the arc length
        # is not finite and cannot be the knots of t(s)
        t = np.linspace(-10.0, 10.0, 41)
        samples = np.column_stack([t, 1e200 * t, 1e200 * np.sin(t), 0.0 * t])
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"family": "sampled", "samples": samples.tolist()}))
        code = run_cli("check", "--curve", str(path), "-o", str(tmp_path / "out.json"))
        captured = capsys.readouterr()
        assert code == 3
        assert "arc length is not finite" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["scan", "converge"])
    def test_positions_overflowing_on_the_grid_exit_1(self, tmp_path, capsys, command):
        # finite samples near 1e150 have a finite arc length, but their
        # positions overflow between samples: the operator cache refuses
        # them as solve's audit does, before the mirror test's SVD
        t = np.linspace(-10.0, 10.0, 41)
        samples = np.column_stack([t, 1e150 * t, 1e150 * np.sin(t), 0.0 * t])
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"family": "sampled", "samples": samples.tolist()}))
        with np.errstate(all="ignore"):
            code = run_cli(command, "--curve", str(path), "-N", "64",
                           "-o", str(tmp_path / "out.json"))
        captured = capsys.readouterr()
        assert code == 1
        assert "geometry error" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not (tmp_path / "out.json").exists()

    def test_non_finite_output_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # finite samples near 1e150 pass the arc-length check but overflow
        # the curvature, so check's c_estimate is NaN, which strict JSON
        # cannot hold: exit 2, naming the key, and no payload or sidecar
        t = np.linspace(-10.0, 10.0, 41)
        samples = np.column_stack([t, 1e150 * t, 1e150 * np.sin(t), 0.0 * t])
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"family": "sampled", "samples": samples.tolist()}))
        out = tmp_path / "out.json"
        with np.errstate(all="ignore"):
            code = run_cli("check", "--curve", str(path), "-o", str(out))
        captured = capsys.readouterr()
        assert code == 2
        assert "numerical failure: payload.c_estimate is not finite" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.json"]
        with np.errstate(all="ignore"):
            assert run_cli("check", "--curve", str(path)) == 2
        assert capsys.readouterr().out == ""

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


class TestDefaultBox:
    # without -L the box is at most the sampled half-length over the widest
    # box a command solves on: L itself, or converge's tail at 1.5 L
    @pytest.mark.parametrize("argv, reach", [
        (["solve"], 1.0),
        (["scan", "--points", "4"], 1.0),
        (["bc-verify"], None),
        (["converge", "--levels", "2"], 1.5),
    ], ids=["solve", "scan", "bc-verify", "converge"])
    def test_fits_a_sampled_curve_shorter_than_16(self, tmp_path, argv, reach):
        path = tmp_path / "curve.json"
        short_wire(path)
        half = load_curve(str(path)).half_length
        assert 10.0 < half < 16.0
        out = tmp_path / "res.json"
        assert run_cli(argv[0], "--curve", str(path), "-N", "64", *argv[1:],
                       "-o", str(out)) == 0
        doc = json.loads(out.read_text())
        if reach is None:
            assert "grid" not in doc and doc["bc_residual"] < 1e-2
        else:
            assert doc["grid"]["L"] == half / reach


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

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_sidecar_holds_the_scan_diagnostics(self, tmp_path, fmt):
        # how the scan solved its values goes to the sidecar, in either
        # format, and never into the payload
        out = tmp_path / f"scan.{fmt}"
        assert run_cli("scan", "--curve", "bump:a=1,w=1", "-L", "16", "-N", "256",
                       "--format", fmt, "-o", str(out)) == 0
        meta = json.loads(Path(f"{out}.meta.json").read_text())
        keys = {"evaluations", "dense_solves", "ritz_steps", "ritz_fallbacks",
                "ritz_worst_bound"}
        assert keys <= set(meta)
        assert meta["ritz_steps"] > 0
        # the samples step too: fewer full solves than the 20 samples
        assert meta["evaluations"] > 20 > meta["dense_solves"] >= 1
        assert 0 <= meta["ritz_worst_bound"] <= 1e-13
        assert not any(key in out.read_text() for key in keys)

    @pytest.mark.parametrize("points", [1, 2])
    def test_one_and_two_points(self, tmp_path, monkeypatch, points):
        # the first sample is solved in full with its seed vectors, as there
        # is no sample before it to step from; a second sample steps from it
        steps, before = [], []
        ritz_step, solve = spectral_mod._ritz_step, spectral_mod._BranchEvaluator.solve

        def logged_solve(ev, kappa, seed=None, vectors=False):
            if seed is None or not vectors:   # a sample: the first, or a later one
                before.append(len(steps))
            return solve(ev, kappa, seed, vectors)

        monkeypatch.setattr(spectral_mod, "_ritz_step",
                            lambda *args: steps.append(1) or ritz_step(*args))
        monkeypatch.setattr(spectral_mod._BranchEvaluator, "solve", logged_solve)
        out = tmp_path / "scan.json"
        assert run_cli("scan", "--curve", "bump:a=1,w=1", "-L", "16", "-N", "256",
                       "--points", str(points), "-o", str(out)) == 0
        assert len(json.loads(out.read_text())["kappas"]) == points
        assert before == [0] * points
        meta = json.loads(Path(f"{out}.meta.json").read_text())
        if points == 1:
            assert steps == []
            assert meta["evaluations"] == meta["dense_solves"] == 1
        else:
            assert meta["ritz_steps"] + meta["ritz_fallbacks"] >= 2


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

    def test_sampled_curve_shorter_than_the_default_window(self, tmp_path):
        # half-length about 10.2 < 24: the default window is the sampled range
        path = tmp_path / "curve.json"
        samples = short_wire(path)
        out = tmp_path / "check.json"
        assert run_cli("check", "--curve", str(path), "-o", str(out)) == 0
        lo, hi = json.loads(out.read_text())["s_range"]
        assert 10.0 < hi < 24.0 and lo == -hi
        # the window ends are the ends of the samples
        curve = load_curve(str(path))
        assert np.allclose(curve.point(np.array([lo, hi])), samples[[0, -1], 1:],
                           rtol=0, atol=1e-9)


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

    def test_byte_identical_scan_reruns(self, tmp_path):
        # a scan's crossings come from Ritz steps; reruns give the same bytes
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        args = ["scan", "--curve", "bump:a=1,w=1", "-L", "16", "-N", "256"]
        assert run_cli(*args, "-o", str(a)) == 0
        assert run_cli(*args, "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(Path(f"{a}.meta.json").read_text())["ritz_steps"] > 0

    def test_round_trip_equality(self, tmp_path):
        out = tmp_path / "res.json"
        run_cli("solve", "--curve", "straight", "-L", "8", "-N", "64",
                "-o", str(out))
        doc = json.loads(out.read_text())
        again = json.loads(json.dumps(doc))
        assert again == doc


class TestWriteResults:
    def test_non_finite_sidecar_writes_nothing(self, tmp_path):
        target = tmp_path / "out.json"
        with pytest.raises(NumericalFailureError, match=r"sidecar\.states\[1\]\.residual"):
            write_results('{"x": 1}\n', target, {"states": [{"residual": 0.0},
                                                            {"residual": math.inf}]})
        assert list(tmp_path.iterdir()) == []

    def test_atomic_no_partial_file(self, tmp_path):
        target = tmp_path / "sub" / "out.json"
        write_results('{"x": 1}\n', target)
        assert json.loads(target.read_text()) == {"x": 1}
        leftovers = [p for p in target.parent.iterdir()
                     if p.name.endswith(".tmp")]
        assert leftovers == []


class TestArgumentErrors:
    @pytest.mark.parametrize("argv", [
        ["scan", "--points", "-1"],
        ["scan", "--points", "0"],
        ["solve", "-m", "0"],
        ["solve", "-m", "100"],
        ["converge", "--levels", "1"],
        ["solve", "--tol-kappa", "0"],
        ["solve", "--tol-lambda=-1e-9"],
        # an infinite --tol-lambda would switch the root's residual check off
        ["solve", "--tol-lambda", "inf"],
        ["solve", "--tol-kappa", "inf"],
        ["converge", "--tol-lambda", "inf"],
        ["solve", "--format", "csv"],
        ["converge", "--format", "csv"],
    ], ids=lambda argv: " ".join(argv))
    def test_exits_3_without_traceback(self, argv, capsys):
        code = run_cli(*argv[:1], "--curve", "straight", "-L", "8", "-N", "64", *argv[1:])
        captured = capsys.readouterr()
        assert code == 3
        assert "Traceback" not in captured.err + captured.out
        assert "geometry error" not in captured.err


    @pytest.mark.parametrize("argv", [
        ["converge", "--curve", "straight", "-L", "8", "-N", "64", "--levels", "5"],
        ["converge", "--curve", "straight", "-L", "8", "-N", "34", "--levels", "3"],
        ["check", "--curve", "straight", "--samples", "0"],
        ["bc-verify", "--curve", "straight", "-L", "8", "-N", "64", "--angles", "0"],
        ["bc-verify", "--curve", "straight", "-L", "8", "-N", "64", "--radii=-1e-3,1e-2"],
        ["bc-verify", "--curve", "straight", "-L", "8", "-N", "64", "--radii", "1e-3:1e-2:1"],
        ["scan", "--curve", "straight", "-L", "8", "-N", "64",
         "--kappa-min", "2", "--kappa-max", "1"],
        ["scan", "--curve", "straight", "-L", "8", "-N", "64", "--kappa-min", "-1"],
        # --kappa-max at most solve's search limit, 1e6 kappa0 (1.12e6 at alpha 0)
        ["scan", "--curve", "straight", "-L", "8", "-N", "64", "--kappa-max", "inf"],
        ["scan", "--curve", "straight", "-L", "8", "-N", "64", "--kappa-max", "1e160"],
        ["scan", "--curve", "straight", "-L", "8", "-N", "64", "--kappa-max", "1.2e6"],
        # alpha must be finite with a finite negative continuum edge zeta0(alpha);
        # without -L the check must also precede the default-L audit
        ["solve", "--curve", "straight", "-L", "8", "-N", "64", "--alpha", "nan"],
        ["solve", "--curve", "bump:a=1,w=1", "-N", "64", "--alpha", "nan"],
        ["scan", "--curve", "bump:a=1,w=1", "-N", "64", "--alpha", "inf"],
        ["converge", "--curve", "bump:a=1,w=1", "-N", "64", "--alpha=-inf"],
        ["solve", "--curve", "straight", "-L", "8", "-N", "64", "--alpha", "-200"],
        ["bc-verify", "--curve", "bump:a=1,w=1", "-N", "64", "--alpha", "-200"],
        ["solve", "--curve", "straight", "-N", "64", "--alpha", "200"],
        # -L must be finite and positive on every command
        ["check", "--curve", "straight", "-L", "-1"],
        ["check", "--curve", "bump:a=1,w=1", "-L", "nan"],
        ["check", "--curve", "straight", "-L", "inf"],
        ["solve", "--curve", "straight", "-L", "nan", "-N", "64"],
        ["solve", "--curve", "bump:a=1,w=1", "-L", "inf", "-N", "64"],
        ["scan", "--curve", "straight", "-L=-inf", "-N", "64"],
        # shift radii must stay below the curve's safe radius (0.5 here)
        ["bc-verify", "--curve", "bump:a=1,w=1", "-L", "16", "-N", "256",
         "--radii", "0.3:3:6"],
        ["bc-verify", "--curve", "bump:a=1,w=1", "-L", "16", "-N", "256",
         "--radii", "0.01,0.5"],
        # grids whose N x N arrays exceed the memory limit
        ["check", "--curve", "straight", "--samples", "20000"],
        ["solve", "--curve", "bump:a=1,w=1", "-L", "24", "-N", "40000"],
        ["converge", "--curve", "bump:a=1,w=1", "-L", "24", "-N", "8000"],
        # the audit options: omega in (0, 1), a finite epsilon > 0, a finite mu >= 0
        ["check", "--curve", "bump:a=1,w=1", "--omega", "1.5"],
        ["check", "--curve", "bump:a=1,w=1", "--omega", "nan"],
        ["check", "--curve", "bump:a=1,w=1", "--epsilon", "0"],
        ["check", "--curve", "bump:a=1,w=1", "--epsilon", "nan"],
        ["check", "--curve", "bump:a=1,w=1", "--mu=-1"],
        ["check", "--curve", "bump:a=1,w=1", "--mu", "nan"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[3:]))
    def test_exits_3_before_any_search(self, argv, capsys, monkeypatch):
        import leakywire.cli as cli_mod

        def no_search(*args, **kwargs):
            raise AssertionError("a search ran before the arguments were checked")

        for name in ("find_bound_states", "ground_state", "spectrum_scan", "converge_study",
                     "check_a1", "check_a2"):
            monkeypatch.setattr(cli_mod, name, no_search)
        code = run_cli(*argv)
        captured = capsys.readouterr()
        assert code == 3
        assert "configuration error" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_oversized_planar_build_exits_3(self, capsys, monkeypatch):
        # -L 1e8 asks for a planar profile of 9.6e9 cells, tens of TiB; the
        # refusal states the estimate, and comes before any array is allocated
        import leakywire.curve as curve_mod

        def no_arrays(*args, **kwargs):
            raise AssertionError("cell arrays allocated before the size check")

        monkeypatch.setattr(curve_mod.np, "arange", no_arrays)
        code = run_cli("check", "--curve", "bump:a=1,w=1", "-L", "1e8")
        captured = capsys.readouterr()
        assert code == 3
        assert "configuration error" in captured.err
        assert "domain hint 1.5e+08 needs 9600000000 cells, about 1.72e+03 GiB" in captured.err
        assert "(-L 1e+08 sets it to 1.5 L)" in captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("argv, estimate", [
        (["check", "--curve", "straight", "--samples", "20000"],
         "--samples 20000 needs 20000 x 20000 arrays of about 9.69 GiB"),
        (["solve", "--curve", "bump:a=1,w=1", "-L", "24", "-N", "40000"],
         "-N 40000 needs 40000 x 40000 arrays of about 38.7 GiB"),
    ], ids=["check", "solve"])
    def test_oversized_grid_exits_3(self, capsys, monkeypatch, argv, estimate):
        # the refusal states the estimate, and comes before any N x N array
        # is allocated
        real_empty = np.empty

        def small_empty(shape, *args, **kwargs):
            if np.prod(shape) >= 10 ** 8:
                raise AssertionError("an N x N array was allocated before the size check")
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", small_empty)
        code = run_cli(*argv)
        captured = capsys.readouterr()
        assert code == 3
        assert f"configuration error: {estimate}, above the 2 GiB limit" in captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize("argv, per_entry, sizes", [
        (["solve", "--curve", "{sampled}", "-L", "20"], "_BYTES_PER_ENTRY", (512, 1024)),
        (["solve", "--curve", "bump:a=1,w=1", "-L", "24"], "_BYTES_PER_ENTRY", (512, 1024)),
        # at 512 samples the planar curve build, not the audit, sets the peak
        (["check", "--curve", "bump:a=1,w=1"], "_BYTES_PER_ENTRY", (1024, 2048)),
    ], ids=["solve_one_block", "solve_split", "check"])
    def test_size_guard_covers_the_peak_per_entry(self, tmp_path, argv, per_entry, sizes):
        # the guard's bytes per entry bound the growth of the run's peak
        import tracemalloc

        import leakywire.cli as cli_mod

        samples = scan_samples(1.0)
        if "{sampled}" in argv:
            # the sampled wire has no mirror symmetry, so its Q stays one block
            wire = SampledParametric(samples)
            assert not any(OperatorCache(wire, GridSpec(20.0, n)).parity for n in sizes)
        curve_file = tmp_path / "curve.json"
        curve_file.write_text(json.dumps({"family": "sampled", "samples": samples.tolist()}))
        argv = [a.format(sampled=curve_file) for a in argv]
        size = "--samples" if argv[0] == "check" else "-N"
        peaks = []
        for n in sizes:
            tracemalloc.start()
            try:
                assert run_cli(*argv, size, str(n), "-o", str(tmp_path / "out.json")) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (sizes[1] ** 2 - sizes[0] ** 2) <= getattr(cli_mod, per_entry)

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        # a run inside the size guard can still meet a process with less
        # memory than the guard's limit; the chord array's allocation fails
        real_empty = np.empty

        def no_memory(shape, *args, **kwargs):
            if np.prod(shape) >= 64 * 64:
                raise MemoryError(f"Unable to allocate an array with shape {shape}")
            return real_empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", no_memory)
        code = run_cli("solve", "--curve", "bump:a=1,w=1", "-L", "8", "-N", "64")
        captured = capsys.readouterr()
        assert code == 3
        assert "configuration error: out of memory" in captured.err
        assert "lower -N or --samples" in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_oversized_build_from_a_curve_file_names_its_hint(self, tmp_path, capsys):
        # the file's own domain_hint wins over -L, so -L is not blamed
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({
            "family": "planar_curvature", "domain_hint": 1e8,
            "params": {"profile": "gaussian", "a": 1.0, "w": 1.0}}))
        code = run_cli("check", "--curve", str(path), "-L", "8")
        captured = capsys.readouterr()
        assert code == 3
        assert "domain hint 1e+08 needs 6400000000 cells" in captured.err
        assert "-L" not in captured.err

    def test_oversized_angles_exit_3_before_the_search(self, capsys, monkeypatch):
        # 40000 directions at N = 1024 ask the trace of each radius for about
        # 3 GiB; the refusal states the estimate, and comes before the search
        import leakywire.cli as cli_mod

        def no_search(*args, **kwargs):
            raise AssertionError("ground state searched before the size check")

        monkeypatch.setattr(cli_mod, "ground_state", no_search)
        code = run_cli("bc-verify", "--curve", "bump:a=1,w=1", "-L", "24", "-N", "1024",
                       "--angles", "40000")
        captured = capsys.readouterr()
        assert code == 3
        assert ("configuration error: --angles 40000 needs 40000 x 1024 arrays of about "
                "3.05 GiB, above the 2 GiB limit") in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_oversized_radii_count_exits_3_before_any_array(self, capsys, monkeypatch):
        # a billion radii ask for about 1.7 TiB; the count is refused before
        # np.geomspace allocates it, and before the search
        import leakywire.cli as cli_mod

        def refused(*args, **kwargs):
            raise AssertionError("ran before the radii count was checked")

        monkeypatch.setattr(cli_mod, "ground_state", refused)
        monkeypatch.setattr(cli_mod.np, "geomspace", refused)
        code = run_cli("bc-verify", "--curve", "bump:a=1,w=1", "-L", "16", "-N", "256",
                       "--radii", "0.001:0.002:1000000000")
        captured = capsys.readouterr()
        assert code == 3
        assert ("configuration error: --radii count 1000000000 needs 1000000000 x 1 arrays "
                "of about 1.68e+03 GiB, above the 2 GiB limit") in captured.err
        assert "Traceback" not in captured.err + captured.out

    def test_long_trace_exits_3_before_the_search(self, capsys, monkeypatch, tmp_path):
        # a million radii pass the memory guard (about 1.7 GiB), but their
        # traces would run for about half an hour: the kernel evaluations are
        # counted and refused before the search, in well under a second
        import leakywire.cli as cli_mod

        def no_search(*args, **kwargs):
            raise AssertionError("ground state searched before the work check")

        monkeypatch.setattr(cli_mod, "ground_state", no_search)
        out = tmp_path / "bc.json"
        start = time.perf_counter()
        code = run_cli("bc-verify", "--curve", "bump:a=1,w=1", "-L", "16", "-N", "256",
                       "--radii", "0.001:0.01:1000000", "-o", str(out))
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 3 and elapsed < 1.0
        assert ("configuration error: --radii count 1000000 at --angles 8 and -N 256 needs "
                "about 4.41e+10 kernel evaluations (5 foot points x 8816 per radius), above "
                "the 1e+09 limit") in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("radii, angles, n", [(8, 8, 1024), (8, 8, 2400), (4000, 8, 16)],
                             ids=["defaults", "lanczos_ci", "radii_guard_test"])
    def test_trace_work_guard_admits_the_documented_runs(self, radii, angles, n):
        # the CLI defaults, the CI's N = 2400 run and the largest tier-1 run
        import leakywire.cli as cli_mod

        cli_mod._refuse_long_trace(radii, angles, n)

    def test_radii_guard_covers_the_peak_per_radius(self, monkeypatch, tmp_path):
        # the guard's bytes per radius bound the growth with the radii count
        # of a bc-verify run's peak after its search.  The traces are stood in
        # for by full-precision values of the same shape: what one radius's
        # trace allocates while it is computed is the trace guard's share
        import gc
        import tracemalloc

        import leakywire.cli as cli_mod
        import leakywire.eigenfield as eigenfield_mod

        def trace_values(curve, grid, kappa, h, s, radii, angles):
            return np.outer(-np.log(radii) / (2 * math.pi), np.ones(len(angles)))

        states, live = [], []

        def once(curve, config):
            if not states:
                states.append(ground_state(curve, config))
            tracemalloc.reset_peak()
            live.append(tracemalloc.get_traced_memory()[0])
            return states[0]

        ground_state = cli_mod.ground_state
        monkeypatch.setattr(cli_mod, "ground_state", once)
        monkeypatch.setattr(eigenfield_mod, "trace_values", trace_values)
        argv = ["bc-verify", "--curve", "bump:a=1,w=1", "-L", "8", "-N", "16",
                "-o", str(tmp_path / "bc.json")]
        assert run_cli(*argv) == 0   # the search runs here, untraced
        peaks, counts = [], (1000, 4000)
        for count in counts:
            gc.collect()
            tracemalloc.start()
            try:
                assert run_cli(*argv, "--radii", f"0.001:0.004:{count}") == 0
                peaks.append(tracemalloc.get_traced_memory()[1] - live[-1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / (counts[1] - counts[0]) <= cli_mod._BYTES_PER_RADIUS

    def test_trace_guard_covers_the_peak_per_direction_and_node(self, bump):
        # the guard's bytes per (direction, grid node) bound the growth of the
        # trace's peak with the number of directions
        import tracemalloc

        import leakywire.cli as cli_mod
        from leakywire.eigenfield import trace_values

        grid = GridSpec(24.0, 256)
        h = np.cos(grid.nodes / 8.0)
        radii = np.geomspace(0.1, 0.4, 3)
        peaks, sizes = [], (32, 128)
        for n in sizes:
            angles = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
            tracemalloc.start()
            try:
                trace_values(bump, grid, 1.0, h, 0.3, radii, angles)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / ((sizes[1] - sizes[0]) * grid.N) <= cli_mod._BYTES_PER_TRACE

    @pytest.mark.parametrize("option", [
        ["-N", "64"], ["--alpha", "0.5"], ["-m", "0"], ["--tol-kappa", "-1"],
        ["--tol-lambda", "1"],
    ], ids=lambda option: option[0])
    def test_check_takes_only_its_options(self, option):
        assert run_cli("check", "--curve", "straight", "--samples", "16", *option) == 3


class TestImports:
    # in a fresh process, each of these scipy packages costs a run 0.1 to
    # 0.3 s of import
    UNUSED = ("scipy.optimize", "scipy.interpolate", "scipy.integrate", "scipy.special",
              "scipy.sparse")

    @staticmethod
    def loaded_after(commands, names, tmp_path):
        """{command: the packages of ``names`` in sys.modules after it ran},
        the commands run in order in one fresh process."""
        script = """
import json, sys
from leakywire.cli import main
names = json.loads(sys.argv[2])
loaded = {}
for argv in json.loads(sys.argv[1]):
    assert main(argv + ["-o", sys.argv[3]]) == 0, argv
    loaded[argv[0]] = [name for name in names if name in sys.modules]
print(json.dumps(loaded))
"""
        env = dict(os.environ, PYTHONPATH=str(Path(leakywire.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands),
                               json.dumps(names), str(tmp_path / "out.json")],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_planar_commands_load_only_numpy_and_scipy_linalg(self, tmp_path):
        planar = ["--curve", "bump:a=1,w=1", "-L", "16"]
        commands = [["solve", *planar, "-N", "256"], ["scan", *planar, "-N", "256"],
                    ["converge", *planar, "-N", "256"], ["check", *planar, "--samples", "256"]]
        assert self.loaded_after(commands, self.UNUSED, tmp_path) == {
            "solve": [], "scan": [], "converge": [], "check": []}

    def test_sampled_commands_load_only_numpy_and_scipy_linalg(self, tmp_path):
        # the sampled wire's splines are the package's own; bc-verify and
        # verify call scipy.integrate and scipy.special, so they run in a
        # second process that checks for scipy.interpolate alone
        wire = tmp_path / "wire.json"
        short_wire(wire)
        sampled = ["--curve", str(wire), "-L", "8"]
        commands = [["scan", *sampled, "-N", "128"], ["solve", *sampled, "-N", "128"],
                    ["check", *sampled, "--samples", "128"]]
        assert self.loaded_after(commands, self.UNUSED, tmp_path) == {
            "scan": [], "solve": [], "check": []}
        commands = [["bc-verify", *sampled, "-N", "128"], ["verify"]]
        assert self.loaded_after(commands, ["scipy.interpolate"], tmp_path) == {
            "bc-verify": [], "verify": []}


class TestModuleEntryPoint:
    def test_python_m_leakywire(self):
        env = dict(os.environ, PYTHONPATH=str(Path(leakywire.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-m", "leakywire", "check", "--curve", "straight"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["c_estimate"] == 1.0
