"""Layer spans for the traced benchmark run.

The tracer wraps the public calls of each layer at the name its caller looks
up (``leakywire.cli.load_curve``, ``leakywire.solver.check_a1``, the
``scipy.linalg`` eigensolvers as ``leakywire.spectral`` and
``leakywire.solver`` reach them, ...), so the program itself is unchanged.
Spans (name, start, end, parent, request) are kept in memory and written out
when the run ends.  Spans are recorded only inside a request, so the
benchmark's own input checks never show up in them.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import defaultdict

import numpy as np
from scipy.sparse.linalg import LinearOperator

MIB = 2.0 ** 20


class _Proxy:
    """Attribute view of a module with some attributes replaced."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class _CountingMatrix(LinearOperator):
    """A dense matrix as a LinearOperator that counts matvecs.

    The product is ``A.dot(X)`` on the same (n, 1) blocks as scipy's own
    wrapper of a dense array, so Lanczos sees bit-identical vectors.
    """

    def __init__(self, matrix):
        super().__init__(matrix.dtype, matrix.shape)
        self.A = matrix
        self.matvecs = 0

    def _matmat(self, X):
        self.matvecs += X.shape[1]
        return self.A.dot(X)


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name, **attrs):
        span = {"req": self.request, "name": name, "parent": self._stack[-1] if self._stack else None,
                "t0": time.perf_counter(), "t1": None, **attrs}
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span):
        span["t1"] = time.perf_counter()
        self._stack.pop()

    def run_request(self, index, fn, *args):
        """Call ``fn(*args)`` as traced request ``index`` under a cli.request span."""
        self.request = index
        span = self._open("cli.request")
        try:
            return fn(*args)
        finally:
            self._close(span)
            self.request = None

    def wrap(self, name, fn, after=None):
        """``fn`` recording a span; ``after(span, args, result)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.request is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type)
                              else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import scipy
        import scipy.linalg

        import leakywire.cli as cli
        import leakywire.curve as curve
        import leakywire.operators as operators
        import leakywire.solver as solver
        import leakywire.spectral as spectral

        patch = self._patch
        patch(cli, "load_curve", self.wrap("curve.build", cli.load_curve))
        for mod in (cli, solver):
            patch(mod, "check_a1", self.wrap("curve.audit", mod.check_a1))
        classes = [curve.Curve]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            if "pairwise_chords" in cls.__dict__:
                patch(cls, "pairwise_chords",
                      self.wrap("curve.chords", cls.__dict__["pairwise_chords"]))

        def cache_bytes(span, args, _):
            span["bytes"] = sum(v.nbytes for v in vars(args[0]).values()
                                if isinstance(v, np.ndarray) and v.ndim == 2)

        cache = operators.OperatorCache
        patch(cache, "__init__", self.wrap("operators.cache_init", cache.__init__, cache_bytes))
        patch(cache, "q_matrix", self.wrap("operators.q_build", cache.q_matrix))

        def matrix_size(span, args, _):
            span["n"] = int(args[0].shape[0])

        linalg = _Proxy(scipy.linalg,
                        eigh=self.wrap("spectral.dense", scipy.linalg.eigh, matrix_size),
                        eigvalsh=self.wrap("spectral.dense", scipy.linalg.eigvalsh, matrix_size))
        for mod in (spectral, solver):
            patch(mod, "scipy", _Proxy(scipy, linalg=linalg))
            patch(mod, "_iterative_top", self._lanczos(mod._iterative_top))

        def states(span, _, result):
            span["states"] = len(result)
            span["uncertain"] = sum(bool(s.threshold_uncertain) for s in result)
            evaluations = [s.diagnostics["evaluations"] for s in result
                           if "evaluations" in s.diagnostics]
            span["roots"] = len(evaluations)
            # without a root search only the bracket-start values were built
            span["evaluations"] = max(evaluations, default=1)

        def crossings(span, _, result):
            span["states"] = span["roots"] = len(result[1])
            span["uncertain"] = 0

        for mod in (cli, solver):
            patch(mod, "find_bound_states",
                  self.wrap("solver.find_bound_states", mod.find_bound_states, states))
        patch(cli, "spectrum_scan", self.wrap("solver.spectrum_scan", cli.spectrum_scan, crossings))
        patch(cli, "converge_study", self.wrap("solver.converge_study", cli.converge_study))

        def payload_bytes(span, args, _):
            span["bytes"] = os.path.getsize(args[1])

        patch(cli, "write_results", self.wrap("cli.write", cli.write_results, payload_bytes))

    def _lanczos(self, iterative_top):
        @functools.wraps(iterative_top)
        def traced(matrix, m, want_vectors):
            if self.request is None:
                return iterative_top(matrix, m, want_vectors)
            op = _CountingMatrix(matrix)
            span = self._open("spectral.lanczos", n=int(matrix.shape[0]))
            try:
                return iterative_top(op, m, want_vectors)
            finally:
                self._close(span)
                span["matvecs"] = op.matvecs

        return traced

    def uninstall(self):
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    # -- checks and metrics ----------------------------------------------------

    def evaluation_mismatches(self) -> dict:
        """Requests whose span counts disagree with the solver's own counts.

        Each find_bound_states call builds Q once per evaluation it reports
        plus once per root (the eigenvector solve), and runs one eigensolve
        per build.
        """
        children = defaultdict(lambda: defaultdict(int))
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]][span["name"]] += 1
        bad = {}
        for i, span in enumerate(self.spans):
            # a call that raised has no counts; its request already failed
            if span["name"] != "solver.find_bound_states" or "roots" not in span:
                continue
            c = children[i]
            expected = span["evaluations"] + span["roots"]
            solves = c["spectral.dense"] + c["spectral.lanczos"]
            if c["operators.q_build"] != expected or solves != expected:
                bad[span["req"]] = (f"find_bound_states: {c['operators.q_build']} Q builds and "
                                    f"{solves} eigensolves, solver reports {expected}")
        return bad

    def layer_metrics(self, request_seconds) -> dict:
        """Per-layer metrics over the traced requests (per-request means)."""
        n_req = len(request_seconds)
        total = defaultdict(float)
        count = defaultdict(int)
        child_time = defaultdict(float)
        for span in self.spans:
            dur = span["t1"] - span["t0"]
            total[span["name"]] += dur
            count[span["name"]] += 1
            if span["parent"] is not None:
                child_time[span["parent"]] += dur
        solver_self = sum(span["t1"] - span["t0"] - child_time[i]
                          for i, span in enumerate(self.spans)
                          if span["name"].startswith("solver."))
        dense_flops = sum(4.0 / 3.0 * s["n"] ** 3 for s in self.spans if s["name"] == "spectral.dense")
        searches = [s for s in self.spans
                    if s["name"] in ("solver.find_bound_states", "solver.spectrum_scan")]
        roots = sum(s.get("roots", 0) for s in searches)
        attr = lambda name, key: sum(s.get(key, 0) for s in self.spans if s["name"] == name)
        per_req = lambda v: v / n_req
        values = {
            "curve.build_s": (per_req(total["curve.build"]), "s"),
            "curve.audit_calls": (per_req(count["curve.audit"]), "count"),
            "curve.chords_s": (per_req(total["curve.chords"]), "s"),
            "curve.chords_calls": (per_req(count["curve.chords"]), "count"),
            "operators.cache_init_s": (per_req(total["operators.cache_init"]), "s"),
            "operators.q_build_s": (per_req(total["operators.q_build"]), "s"),
            "operators.q_builds": (per_req(count["operators.q_build"]), "count"),
            "operators.cache_mb_computed": (
                max((s["bytes"] for s in self.spans if s["name"] == "operators.cache_init"),
                    default=0) / MIB, "MiB"),
            "spectral.dense_s": (per_req(total["spectral.dense"]), "s"),
            "spectral.dense_calls": (per_req(count["spectral.dense"]), "count"),
            "spectral.dense_gflops_computed": (
                dense_flops / total["spectral.dense"] / 1e9 if total["spectral.dense"] else 0.0,
                "GFLOP/s"),
            "spectral.eigen_s": (per_req(total["spectral.dense"] + total["spectral.lanczos"]), "s"),
            "spectral.lanczos_calls": (per_req(count["spectral.lanczos"]), "count"),
            "spectral.lanczos_matvecs": (per_req(attr("spectral.lanczos", "matvecs")), "count"),
            "solver.evals_per_root": (
                count["operators.q_build"] / roots if roots else 0.0, "count"),
            "solver.self_s": (per_req(solver_self), "s"),
            "solver.states": (per_req(sum(s.get("states", 0) for s in searches)), "count"),
            "solver.uncertain_states": (per_req(sum(s.get("uncertain", 0) for s in searches)),
                                        "count"),
            "cli.write_s": (per_req(total["cli.write"]), "s"),
            "cli.payload_bytes": (per_req(attr("cli.write", "bytes")), "bytes"),
            "bench.traced_request_s_p50": (statistics.median(request_seconds), "s"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
