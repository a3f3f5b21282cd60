"""Coverage for the remaining contract surfaces: CLI verification commands,
export helpers, and rare error paths."""

import json
import math
import warnings

import numpy as np
import pytest

from leakywire.cli import main
from leakywire.curve import FrenetFrame, PlanarCurvatureProfile, StraightLine, eval_frame
from leakywire.eigenfield import TraceFit, trace_to_dict
from leakywire.errors import BracketFailureError, DegenerateFrameError
from leakywire.operators import GridSpec
from leakywire import solver
from leakywire.solver import SolveConfig, find_bound_states
from leakywire.spectral import Eigen, _BranchEvaluator, lambda_curve

from conftest import unfold


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

    def test_default_radii_raise_no_warning(self, tmp_path):
        # the default radii lie far below Delta/2 = 0.0625 here, which the
        # trace's interpolated quadrature resolves: nothing to warn about
        out = tmp_path / "bc.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["bc-verify", "--curve", "bump:a=1,w=1", "-L", "16", "-N", "256",
                         "-o", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        assert json.loads(out.read_text())["radii"][0] == pytest.approx(1e-3)

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

    def test_payload_does_not_depend_on_m(self, tmp_path):
        # the ground-state search tracks one branch, so -m cannot reach the payload
        outs = [tmp_path / f"bc{m}.json" for m in (1, 8)]
        for m, out in zip((1, 8), outs):
            assert main(["bc-verify", "--curve", "bump:a=1,w=1", "--alpha", "0",
                         "-L", "16", "-N", "256", "-m", str(m), "-o", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_each_trace_fitted_once(self, tmp_path, monkeypatch):
        # the residual reuses the five fitted traces of the payload
        import leakywire.eigenfield as eigenfield_mod

        calls = []
        trace_on_shifted = eigenfield_mod.trace_on_shifted

        def counting(*args, **kwargs):
            calls.append(args[4])
            return trace_on_shifted(*args, **kwargs)

        monkeypatch.setattr(eigenfield_mod, "trace_on_shifted", counting)
        out = tmp_path / "bc.json"
        assert main(["bc-verify", "--curve", "bump:a=1,w=1", "--alpha", "0",
                     "-L", "16", "-N", "256", "-o", str(out)]) == 0
        assert calls == [-2.0, -1.0, 0.0, 1.0, 2.0]

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
    def test_lanczos_matches_dense(self, bump, monkeypatch):
        import leakywire.spectral as spectral_mod
        from leakywire.operators import OperatorCache
        from leakywire.spectral import _BranchEvaluator, _iterative_top, top_eigen

        g = GridSpec(16.0, 512)
        q = OperatorCache(bump, g).q_matrix(1.2)
        dense = top_eigen(q, 5)
        dense_vecs = top_eigen(unfold(q)[None], 5, vectors=True).vectors[0]
        # Lanczos on the full matrix against the dense solve of its blocks
        vals, vecs = _iterative_top(unfold(q), 5, want_vectors=True)
        for j in range(5):
            assert vals[j] == pytest.approx(dense.values[j], abs=1e-10)
            assert abs(abs(np.dot(vecs[:, j], dense_vecs[:, j])) - 1.0) < 1e-8
        # and Lanczos on the block-diagonal operator, which labels each value
        # by the block of its Ritz vector, and on the one block a root solves
        monkeypatch.setattr(spectral_mod, "DENSE_EIGEN_LIMIT", 100)
        vals, parity, path = top_eigen(q, 5)[:3]
        assert path == "lanczos"
        assert parity == dense.parity and "odd" in parity
        with _BranchEvaluator(bump, g, 5) as ev:
            for j in range(5):
                assert vals[j] == pytest.approx(dense.values[j], abs=1e-10)
                block, k = dense.branch(j)
                root, h = ev.eigenpair(1.2, block)
                assert root.path == "lanczos"
                assert abs(np.dot(h[:, k], dense_vecs[:, j]) - 1.0) < 1e-8

    @pytest.mark.parametrize("path", ["lambda_curve", "find_bound_states"])
    def test_large_grid_dispatch(self, bump, monkeypatch, path):
        # force the iterative branch on a small grid and compare branches;
        # find_bound_states also takes the Lanczos eigenvector path at roots.
        # lambda_curve runs on a one-block wire, where Lanczos asks for no
        # vectors: only a two-block run reads each value's parity from them
        import leakywire.spectral as spectral_mod

        g = GridSpec(16.0, 256)
        if path == "lambda_curve":
            kappas = np.geomspace(1.1, 2.0, 3)
            run = lambda: lambda_curve(_off_centre_bump(1.0), g, kappas, m=3).lambdas
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

    @pytest.mark.parametrize("amplitude", [1.0, 0.3])
    def test_one_eigenvalue_runs_lanczos_above_1152(self, monkeypatch, amplitude):
        # a ground-state search at N=1536 asks for one eigenvalue: Lanczos,
        # with the dense path's energy.  Amplitude 0.3 is weakly bound: kappa~
        # lies 2e-4 above kappa0, against 7e-3 for amplitude 1.  The bump is
        # centred off the grid's midpoint, so Q stays one 1536 x 1536 block
        import leakywire.spectral as spectral_mod

        bump = _off_centre_bump(amplitude)
        config = SolveConfig(alpha=0.0, grid=GridSpec(24.0, 1536))
        lanczos = spectral_mod._iterative_top
        calls = []

        def spy(matrix, m, want_vectors):
            calls.append((matrix.shape[0], m))
            return lanczos(matrix, m, want_vectors)

        monkeypatch.setattr(spectral_mod, "_iterative_top", spy)
        (st,) = find_bound_states(bump, config, ground_only=True)
        assert calls and set(calls) == {(1536, 1)}
        assert st.diagnostics["eigensolver"] == "lanczos"
        assert st.diagnostics["parity"] is None
        calls.clear()
        monkeypatch.setattr(spectral_mod, "DENSE_TOP1_LIMIT", 1536)
        (dense,) = find_bound_states(bump, config, ground_only=True)
        assert not calls
        assert dense.diagnostics["eigensolver"] == "dense"
        assert st.energy == pytest.approx(dense.energy, rel=1e-12, abs=0.0)

    def test_eight_eigenvalues_stay_dense_at_1536(self, monkeypatch):
        import leakywire.spectral as spectral_mod

        def no_lanczos(*args):
            raise AssertionError("an m = 8 solve at N = 1536 ran Lanczos")

        monkeypatch.setattr(spectral_mod, "_iterative_top", no_lanczos)
        states = find_bound_states(_off_centre_bump(1.0),
                                   SolveConfig(alpha=0.0, grid=GridSpec(24.0, 1536)))
        assert states
        assert {s.diagnostics["eigensolver"] for s in states} == {"dense"}
        assert {s.diagnostics["parity"] for s in states} == {None}

    @pytest.mark.parametrize("n, path", [(200, "dense"), (256, "lanczos")])
    def test_path_follows_the_block_size(self, bump, monkeypatch, n, path):
        # a split wire's path is chosen for its N/2 x N/2 blocks; the bracket
        # start solves both blocks in one eigensolve, and every other
        # evaluation and the root solve branch 0's block alone
        import leakywire.spectral as spectral_mod

        lanczos = spectral_mod._iterative_top
        calls = []

        def spy(matrix, m, want_vectors):
            calls.append(matrix.shape)
            return lanczos(matrix, m, want_vectors)

        monkeypatch.setattr(spectral_mod, "DENSE_TOP1_LIMIT", 100)
        monkeypatch.setattr(spectral_mod, "_iterative_top", spy)
        config = SolveConfig(alpha=0.0, grid=GridSpec(16.0, n))
        (st,) = find_bound_states(bump, config, ground_only=True)
        assert st.diagnostics["eigensolver"] == path
        assert st.diagnostics["parity"] == "even"
        if path == "dense":
            assert not calls
        else:
            blocks = st.diagnostics["evaluations"] - 1
            assert calls == [(n, n)] + [(n // 2, n // 2)] * (blocks + 1)


def _off_centre_bump(amplitude):
    """k(s) = a exp(-(s - 1/2)^2): a bump whose chords are not persymmetric
    on grids centred at s = 0."""
    return PlanarCurvatureProfile(lambda s: amplitude * np.exp(-(s - 0.5) ** 2), 36.0)


class TestCliEdges:
    def test_help_exits_clean(self, capsys):
        assert main(["--help"]) == 0
        assert "solve" in capsys.readouterr().out

    def test_odd_grid_size_is_config_error(self, capsys):
        assert main(["solve", "--curve", "straight", "-N", "127"]) == 3

    def test_narrow_radii_span_is_numerical_error(self, capsys, monkeypatch):
        # fit over radii spanning < 3x is refused -> exit 2, before the search
        import leakywire.cli as cli_mod

        monkeypatch.setattr(cli_mod, "ground_state",
                            lambda *args: pytest.fail("ground state searched"))
        code = main(["bc-verify", "--curve", "bump:a=1,w=1", "-L", "16",
                     "-N", "256", "--radii", "1e-3:2e-3:4"])
        assert code == 2
        assert "radii span a factor 2.00 < 3" in capsys.readouterr().err


class TestErrorPaths:
    def test_degenerate_frame_raises(self):
        class BrokenFrame(StraightLine):
            def frame(self, s):
                nan = np.full(3, np.nan)
                return FrenetFrame(t=nan, b=nan, n=nan)

        with pytest.raises(DegenerateFrameError):
            eval_frame(BrokenFrame(), 0.0)

    def test_bracket_failure(self, bump, monkeypatch):
        config = SolveConfig(alpha=0.0, grid=GridSpec(8.0, 64), m_branches=1)
        monkeypatch.setattr(solver, "BRACKET_MAX_FACTOR", 4.0)
        # the search start is solved; every value of the branch's block is
        # inf, so Newton gives no step and the bracket grows to its limit
        eigenpair = _BranchEvaluator.eigenpair
        inf = Eigen(np.array([math.inf]), ["even"], "dense", (np.full((32, 1), 32 ** -0.5),))
        monkeypatch.setattr(_BranchEvaluator, "eigenpair", lambda self, kappa, block=None:
                            eigenpair(self, kappa) if block is None else (inf, None))
        # ground_only: with one tracked branch the -m cap check, which runs
        # before any search, would refuse the solve first
        with pytest.raises(BracketFailureError):
            find_bound_states(bump, config, ground_only=True)
