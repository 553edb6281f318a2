"""Tracing from outside the program: timing and counting wrappers.

:meth:`Tracer.install` replaces public functions and methods of ``tropalg`` with
wrappers at the places where callers look them up: every module namespace
that binds the function (``tropalg.cli.solve``, ``tropalg.solver.matvec_dilate``,
``tropalg.matmul_dilate``, ...) and the class attributes of ``Clodum`` and
``TropicalPolynomial``.  No file of the program changes.

Each wrapped call records a span (name, start, end, parent, iteration) in
memory; :meth:`Tracer.save` writes them out at the end of a run and
:meth:`Tracer.layer_metrics` turns them into per-iteration layer metrics
named after the modules: ``clodum``, ``wlattice``, ``solver``, ``tropgeom``,
``regression``, ``formats`` and ``cli``.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

# (attribute path under ``tropalg``, counter hook); the first component is
# the module, which names the layer
TRACED = [
    ("cli.run_fit", None),
    ("cli.run_solve", None),
    ("cli.ingest_csv", None),
    ("formats.read_tropmat", None),
    ("formats.read_tropvec", None),
    ("formats.parse_tropmat", "parse"),
    ("formats.write_polynomial", None),
    ("formats.read_polynomial", None),
    ("formats.parse_polynomial", "parse"),
    ("regression.fit_max_affine", None),
    ("regression.fit_line", None),
    ("regression.fit_plane", None),
    ("regression.estimate_slopes_1d", None),
    ("regression.estimate_slopes_nd", None),
    ("regression._kmeans", None),
    ("solver.solve", None),
    ("solver.greatest_subsolution", None),
    ("solver.mmae_solution", None),
    ("solver.canonical_projection", None),
    ("wlattice.matvec_dilate", None),
    ("wlattice.matvec_erode", None),
    ("wlattice.matmul_dilate", "matmul"),
    ("wlattice.matmul_erode", "matmul"),
    ("wlattice.signal_dilate", None),
    ("wlattice.signal_erode", None),
    ("tropgeom.TropicalPolynomial.evaluate", "points"),
    ("tropgeom.newton_polytope", None),
    ("tropgeom.polytope_join", None),
    ("tropgeom.polytope_minkowski_sum", None),
    ("tropgeom.convex_hull_2d", None),
    ("clodum.Clodum.validate", "validate"),
    ("clodum.Clodum.mul", "op"),
    ("clodum.Clodum.dual_mul", "op"),
    ("clodum.Clodum.adjoint_erosion", "op"),
    ("clodum.Clodum.conjugate", "op"),
]

MODULES = ("cli", "formats", "regression", "solver", "wlattice", "tropgeom", "clodum")

# per-layer metric -> span names whose outermost calls it sums
SPAN_TIMES = {
    "regression.estimate_slopes_1d_s": ["regression.estimate_slopes_1d"],
    "regression.estimate_slopes_nd_s": ["regression.estimate_slopes_nd"],
    "regression.kmeans_s": ["regression._kmeans"],
    "cli.ingest_csv_s": ["cli.ingest_csv"],
    "formats.read_tropmat_s": ["formats.read_tropmat"],
    "formats.write_polynomial_s": ["formats.write_polynomial"],
    "solver.solve_s": ["solver.solve"],
    "solver.greatest_subsolution_s": ["solver.greatest_subsolution"],
    "wlattice.matvec_dilate_s": ["wlattice.matvec_dilate"],
    "wlattice.matmul_dilate_s": ["wlattice.matmul_dilate"],
    "wlattice.matmul_erode_s": ["wlattice.matmul_erode"],
    "wlattice.signal_s": ["wlattice.signal_dilate", "wlattice.signal_erode"],
    "tropgeom.evaluate_s": ["tropgeom.TropicalPolynomial.evaluate"],
    "tropgeom.polytope_s": ["tropgeom.newton_polytope", "tropgeom.polytope_join",
                            "tropgeom.polytope_minkowski_sum"],
}

# per-layer metric -> span names whose self time it sums; the other layers
# sum the self time of all their spans
SELF_TIMES = {
    "regression.fit_max_affine_self_s": ["regression.fit_max_affine"],
    "cli.self_s": ["cli.run_fit", "cli.run_solve"],
}

SPAN_COUNTS = {
    "solver.calls": [p for p, _ in TRACED if p.startswith("solver.")],
    "wlattice.matvec_dilate_calls": ["wlattice.matvec_dilate"],
    "wlattice.matvec_erode_calls": ["wlattice.matvec_erode"],
    "clodum.validate_calls": ["clodum.Clodum.validate"],
    "clodum.op_calls": ["clodum.Clodum.mul", "clodum.Clodum.dual_mul",
                        "clodum.Clodum.adjoint_erosion", "clodum.Clodum.conjugate"],
}


class Tracer:
    """Spans and counters of the traced iterations, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.iteration = array("l")
        self.outermost = array("b")
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.current = -1
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.depth[name] += 1
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.iteration.append(self.current)
        self.outermost.append(self.depth[name] == 1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name: str) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()
        self.depth[name] -= 1

    def count(self, key: str, value: float) -> None:
        self.counts[self.current][key] += value

    def _wrap(self, name: str, fn, hook: str | None):
        tracer = self

        if hook == "matmul":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracemalloc.start()
                idx = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx, name)
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    counts = tracer.counts[tracer.current]
                    counts["wlattice.matmul_peak_mb"] = max(counts["wlattice.matmul_peak_mb"],
                                                            peak / 2**20)
            return wrapper

        counters = {
            "parse": lambda args, out: tracer.count("formats.bytes_parsed", len(args[0])),
            "points": lambda args, out: tracer.count("tropgeom.points_evaluated",
                                                     len(np.atleast_2d(args[1]))),
            "validate": lambda args, out: tracer.count("clodum.validate_elems", np.size(out)),
            "op": lambda args, out: tracer.count("clodum.op_elems", np.size(out)),
        }
        after = counters.get(hook)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, tropalg) -> None:
        """Wrap every name in :data:`TRACED` wherever ``tropalg`` binds it."""
        modules = [tropalg] + [getattr(tropalg, m) for m in MODULES]
        for path, hook in TRACED:
            parts = path.split(".")
            owner = getattr(tropalg, parts[0])
            for part in parts[1:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = getattr(owner, attr)
            wrapper = self._wrap(path, original, hook)
            if isinstance(owner, type):
                aliases = [a for a, v in vars(owner).items() if v is original]
                for alias in aliases:
                    self._replace(owner, alias, wrapper)
                continue
            for mod in modules:
                for alias, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, alias, wrapper)

    def _replace(self, owner, attr: str, value) -> None:
        self.restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self.restore):
            setattr(owner, attr, value)
        self.restore.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "iteration": np.asarray(self.iteration, dtype=np.int64),
            "outermost": np.asarray(self.outermost, dtype=bool),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, iterations: list[int]) -> dict[int, dict[str, float]]:
        """Per-iteration layer metrics: inclusive and self times, counts."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                               minlength=len(dur))
        own = dur - children
        layer_of = [n.split(".", 1)[0] for n in self.names]
        out = {}
        for it in iterations:
            sel = a["iteration"] == it
            names = a["name"][sel]
            nn = len(self.names)
            incl = np.bincount(names, weights=dur[sel] * a["outermost"][sel], minlength=nn)
            selft = np.bincount(names, weights=own[sel], minlength=nn)
            calls = np.bincount(names, minlength=nn)

            def total(values, span_names):
                return float(sum(values[self.name_ids[s]] for s in span_names if s in self.name_ids))

            m = {k: total(incl, v) for k, v in SPAN_TIMES.items()}
            m.update({k: total(selft, v) for k, v in SELF_TIMES.items()})
            m.update({k: total(calls, v) for k, v in SPAN_COUNTS.items()})
            for layer in MODULES:
                if layer == "cli":
                    continue
                m[f"{layer}.self_s"] = float(sum(selft[i] for i in range(nn) if layer_of[i] == layer))
            for key in ("formats.bytes_parsed", "tropgeom.points_evaluated", "clodum.validate_elems",
                        "clodum.op_elems", "wlattice.matmul_peak_mb"):
                m[key] = float(self.counts.get(it, {}).get(key, 0.0))
            m["trace.spans"] = float(sel.sum())
            out[it] = m
        return out
