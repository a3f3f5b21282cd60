"""Coverage for the remaining contract surfaces: CLI verification commands,
export helpers, and rare error paths."""

import json
import math

import numpy as np
import pytest

from leakywire.cli import main
from leakywire.curve import FrenetFrame, StraightLine, eval_frame
from leakywire.eigenfield import TraceFit, trace_to_dict
from leakywire.errors import BracketFailureError, DegenerateFrameError
from leakywire.operators import GridSpec
from leakywire.solver import SolveConfig, _BranchEvaluator, find_bound_states
from leakywire.spectral import lambda_curve


class TestVerifyCommand:
    def test_suite_green_and_json(self, tmp_path):
        out = tmp_path / "verify.json"
        code = main(["verify", "-o", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert isinstance(reports, list) and len(reports) >= 6
        assert all(r["passed"] for r in reports)
        names = {r["name"].split("[")[0] for r in reports}
        assert {"straight_line", "kernel_properties", "scaling_inequality",
                "kappa_independence"} <= names


class TestBcVerifyCommand:
    def test_bump_end_to_end(self, tmp_path):
        out = tmp_path / "bc.json"
        code = main(["bc-verify", "--curve", "bump:a=1,w=1", "--alpha", "0",
                     "-L", "16", "-N", "256", "-o", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["bc_residual"] < 0.2
        assert len(doc["traces"]) == 5
        tr = doc["traces"][0]
        assert {"s", "radii", "values", "xi", "omega", "fit_residual"} <= set(tr)

    def test_one_branch_is_enough_for_the_ground_state(self, bump, tmp_path):
        # bc-verify reads only the ground state (branch 0), so -m 1 must not
        # trip the m_branches cap check
        out = tmp_path / "bc.json"
        code = main(["bc-verify", "--curve", "bump:a=1,w=1", "--alpha", "0",
                     "-L", "16", "-N", "256", "-m", "1", "-o", str(out)])
        assert code == 0
        ground = find_bound_states(bump, SolveConfig(alpha=0.0, grid=GridSpec(16.0, 256)))[0]
        assert json.loads(out.read_text())["kappa"] == pytest.approx(
            ground.kappa_tilde, rel=1e-12, abs=0.0)

    def test_straight_reports_nothing_to_verify(self, tmp_path):
        out = tmp_path / "bc.json"
        code = main(["bc-verify", "--curve", "straight", "-L", "8", "-N", "64",
                     "-o", str(out)])
        assert code == 1
        assert json.loads(out.read_text())["states"] == []


class TestExports:
    def test_trace_round_trip(self):
        tf = TraceFit(s=0.5, radii=np.array([0.01, 0.001]),
                      values=np.array([1.0, 2.0]), xi=0.1, omega=0.2,
                      fit_residual=1e-9)
        doc = trace_to_dict(tf)
        assert doc["s"] == 0.5 and doc["xi"] == 0.1
        json.dumps(doc)


class TestIterativeEigenPath:
    def test_lanczos_matches_dense(self, bump):
        from leakywire.operators import OperatorCache, assemble_Q
        from leakywire.spectral import _iterative_top, top_eigenpairs

        g = GridSpec(16.0, 512)
        q = assemble_Q(bump, g, 1.2)
        dense = top_eigenpairs(q, 5)
        vals, vecs = _iterative_top(q.matrix, 5, want_vectors=True)
        for j, (lam, v) in enumerate(dense):
            assert vals[j] == pytest.approx(lam, abs=1e-10)
            assert abs(abs(np.dot(vecs[:, j], v)) - 1.0) < 1e-8

    @pytest.mark.parametrize("path", ["lambda_curve", "find_bound_states"])
    def test_large_grid_dispatch(self, bump, monkeypatch, path):
        # force the iterative branch on a small grid and compare branches;
        # find_bound_states also takes the Lanczos eigenvector path at roots
        import leakywire.spectral as spectral_mod

        g = GridSpec(16.0, 256)
        if path == "lambda_curve":
            kappas = np.geomspace(1.1, 2.0, 3)
            run = lambda: lambda_curve(bump, g, kappas, m=3).lambdas
        else:
            config = SolveConfig(alpha=0.0, grid=g, m_branches=3)
            run = lambda: np.array([np.r_[s.energy, s.residual, s.h]
                                    for s in find_bound_states(bump, config)])
        dense = run()
        lanczos = spectral_mod._iterative_top
        wanted_vectors = []

        def counting(matrix, m, want_vectors):
            wanted_vectors.append(want_vectors)
            return lanczos(matrix, m, want_vectors)

        monkeypatch.setattr(spectral_mod, "DENSE_EIGEN_LIMIT", 100)
        monkeypatch.setattr(spectral_mod, "_iterative_top", counting)
        iterative = run()
        assert wanted_vectors
        assert (path == "find_bound_states") == any(wanted_vectors)
        assert dense.size and dense.shape == iterative.shape
        assert np.allclose(dense, iterative, rtol=0, atol=1e-9)


class TestCliEdges:
    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    def test_odd_grid_size_is_config_error(self, capsys):
        assert main(["solve", "--curve", "straight", "-N", "127"]) == 3

    def test_narrow_radii_span_is_numerical_error(self, capsys):
        # fit over radii spanning < 3x is refused -> exit 2
        code = main(["bc-verify", "--curve", "bump:a=1,w=1", "-L", "16",
                     "-N", "256", "--radii", "1e-3:2e-3:4"])
        assert code == 2


class TestErrorPaths:
    def test_degenerate_frame_raises(self):
        class BrokenFrame(StraightLine):
            def frame(self, s):
                nan = np.full(3, np.nan)
                return FrenetFrame(t=nan, b=nan, n=nan)

        with pytest.raises(DegenerateFrameError):
            eval_frame(BrokenFrame(), 0.0)

    def test_bracket_failure(self, bump, monkeypatch):
        config = SolveConfig(alpha=0.0, grid=GridSpec(8.0, 64),
                             bracket_max_factor=4.0, m_branches=1)
        monkeypatch.setattr(_BranchEvaluator, "values",
                            lambda self, kappa: np.array([math.inf]))
        with pytest.raises(BracketFailureError):
            find_bound_states(bump, config)
