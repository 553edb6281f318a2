"""Command-line front end: fitting, solving, geometry.

Subcommands: ``fit`` (max-affine regression on a CSV dataset), ``solve``
(optimal solutions of tropical linear systems in tropmat files), ``eval``
(evaluate a polynomial file at points), ``polytope`` (Newton polytopes,
joins, Minkowski sums).  Reports are plain structured text with a stable key
order, and plot data files are numeric columns consumable by any plotting
tool; given the same inputs and seed the outputs are byte-identical.

Every input file is read by ``tropalg.formats``: tropmat and troppoly files,
CSV tables and slope files.  This module turns a table into a
:class:`Dataset`, assembles the reports, and writes the output files all or
nothing (:func:`_emit`).  The diagnostics of a fit or solve come back in its
result and reach the reports (``warnings:`` and ``note:`` lines).  A command
raises no Python warning and leaves the process's warning filters as they
are; it runs under numpy's floating-point error state of its own thread set
to ignore, so an overflow of extreme data reaches a report as ``inf`` or
``nan``.  Nothing is printed on stderr when a command exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .clodum import CarrierError, Clodum, TropicalError
from .formats import (
    _naming,
    _read_csv,
    _read_slopes,
    _row,
    _term_lines,
    format_polynomial,
    read_polynomial,
    read_tropmat,
    read_tropvec,
)
from .regression import (
    AutoSlopes,
    FitProblem,
    FitReport,
    GivenSlopes,
    _coordinate_slopes,
    _rms,
    _sweep_fits,
    fit_max_affine,
    least_squares_line,
)
from .solver import solve
from .tropgeom import (
    Polytope,
    _check_tol,
    convex_hull_2d,
    newton_polytope,
    polytope_join,
    polytope_minkowski_sum,
)
from .wlattice import _exponent

__all__ = ["Dataset", "ingest_csv", "run_fit", "run_solve", "run_eval", "run_polytope", "main"]

USAGE_ERROR = 2


@dataclass(frozen=True, eq=False)
class Dataset:
    """A rectangular numeric table with one designated target column."""

    columns: list[str]
    values: np.ndarray
    target_index: int
    provenance: str

    @cached_property
    def features(self) -> np.ndarray:
        # computed once: a fit reads it several times
        keep = [i for i in range(self.values.shape[1]) if i != self.target_index]
        return self.values[:, keep]

    @property
    def feature_names(self) -> list[str]:
        return [c for i, c in enumerate(self.columns) if i != self.target_index]

    @property
    def target(self) -> np.ndarray:
        return self.values[:, self.target_index]

    @property
    def num_samples(self) -> int:
        return self.values.shape[0]


def ingest_csv(path, has_header: bool = True, target: str | None = None) -> Dataset:
    """Read a numeric CSV dataset; the last column is the target by default.

    The table is read by ``formats._read_csv``: cells are finite reals or
    ``inf``/``-inf`` literals, and the first defect in file order is reported
    with the file name and line.  A dataset also needs a feature column and a
    target column, and ``target`` must name a column.
    """
    path = str(path)
    columns, values = _read_csv(path, has_header)
    width = values.shape[1]
    if width < 2:
        raise TropicalError(f"{path}: need at least one feature column and one target column")
    if target is None:
        target_index = width - 1
    else:
        if target not in columns:
            raise TropicalError(f"{path}: no column named {target!r} (have {columns})")
        target_index = columns.index(target)
    return Dataset(columns, values, target_index, path)


# ---------------------------------------------------------------------------
# report helpers


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.ndarray):
        return _row(value.tolist())
    return str(value)


def _lines(*columns) -> str:
    """One line per row of the columns of strings, its entries space-separated."""
    return "\n".join(map(" ".join, zip(*columns))) + "\n"


def _table_text(*columns) -> str:
    """Numeric table text: the ``repr`` of each entry, one line per row."""
    return _lines(*(map(repr, column) for column in np.column_stack(columns).T.tolist()))


def _report_lines(title: str, pairs) -> str:
    lines = [f"tropalg {title} report"]
    for key, value in pairs:
        lines.append(f"{key}: {_fmt(value)}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: str | None, *outputs) -> None:
    """Write ``text`` to ``out`` (when set) and each further ``(path,
    content)`` output, all or nothing, then print ``text``.

    Every content is text, built before this call.  Each output is written to
    a new temporary file beside its path (beside the file a symbolic link
    names), and the temporaries replace their paths only once all are
    written; on any error they are removed, and an ``OSError`` names the
    output path.  A path that exists but is not a regular file is written
    in place: a directory fails there, before any path is replaced, as a
    direct write would, and a device or pipe takes the text as it comes.
    """
    temps = []  # (temporary, path it replaces)
    try:
        for path, content in [(out, text), *outputs] if out else outputs:
            try:
                if os.path.isfile(path) or not os.path.exists(path):
                    # beside the file a link names; "x" makes a new file, with
                    # the permissions a direct write gives
                    final = os.path.realpath(path) if os.path.islink(path) else path
                    target, mode = f"{final}.{os.urandom(4).hex()}.tmp", "x"
                else:
                    target, mode = path, "w"
                with open(target, mode, encoding="utf-8") as fh:
                    if mode == "x":
                        temps.append((target, final))
                    fh.write(content)
            except OSError as exc:
                raise type(exc)(exc.errno, exc.strerror, path) from None
        for target, final in temps:
            os.replace(target, final)
    except BaseException:
        for target, _ in temps:
            with contextlib.suppress(OSError):
                os.remove(target)
        raise
    sys.stdout.write(text)


# ---------------------------------------------------------------------------
# fit


# the named slope tables of --slopes: (feature width, its wording)
_NAMED_SLOPES = {"line": (1, "one feature column"), "plane": (2, "two feature columns")}


def _slope_policy(arg: str | None, width: int, seed: int) -> GivenSlopes | AutoSlopes:
    """The slope policy of ``--slopes``, or without it of the feature width:
    ``line``/``plane`` are the given rows of the tropical line and plane,
    ``auto:K`` estimates K slopes, and anything else names a slope file,
    whose rows must have one entry per feature."""
    if arg is None:
        if width > 2:
            raise TropicalError("datasets with more than two features need an explicit --slopes")
        arg = "line" if width == 1 else "plane"
    if arg in _NAMED_SLOPES:
        n, columns = _NAMED_SLOPES[arg]
        if width != n:
            raise TropicalError(f"--slopes {arg} needs exactly {columns}")
        return GivenSlopes(_coordinate_slopes(n))
    if arg.startswith("auto:"):
        try:
            count = int(arg.split(":", 1)[1])
        except ValueError:
            raise TropicalError(f"bad slope count in {arg!r}") from None
        return AutoSlopes(count, seed)
    slopes = _read_slopes(arg)
    if slopes.shape[1] != width:
        raise TropicalError(f"{arg}: slope vectors and samples disagree on dimension "
                            f"({slopes.shape[1]} against {width})")
    return GivenSlopes(slopes)


def _axis(values: np.ndarray, grid: int) -> np.ndarray:
    """``grid`` evenly spaced points from the least to the greatest value.

    ``np.linspace`` of the bounds scaled by 2^-e into (-1, 1)
    (``wlattice._exponent``), scaled back by 2^e: exact for every value
    that stays normal, so the axis is that of the unscaled bounds wherever
    their range is finite, and a range wider than the largest float still
    gets its axis.
    """
    e = _exponent(values)
    lo, hi = np.ldexp([values.min(), values.max()], -e)
    return np.ldexp(np.linspace(lo, hi, grid), e)


def _model_grid(report: FitReport, data: Dataset, grid: int) -> str:
    x = data.features
    n = x.shape[1]
    if n > 2:
        return f"# grid emission supports 1 or 2 features; dataset has {n}\n"
    axes = [_axis(column, grid) for column in x.T]
    vals = report.model.evaluate(np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")]))
    # the _table_text of the grid points, with one repr per axis value
    # instead of one per grid point
    cells = itertools.product(*(map(repr, axis.tolist()) for axis in axes))
    return _lines(map(" ".join, cells), map(repr, vals.tolist()))


def _residual_table(report: FitReport, data: Dataset) -> str:
    f = data.target
    return _table_text(data.features, f, f - report.residuals, report.residuals)


def run_fit(args) -> int:
    if args.grid is not None and args.grid < 1:
        raise TropicalError(f"--grid needs at least 1 point per axis, got {args.grid}")
    if args.sweep_k and args.slopes is not None:
        raise TropicalError("--sweep-k and --slopes cannot be combined: a sweep fits auto:K for each K")
    if args.sweep_k and args.grid is not None:
        raise TropicalError("--sweep-k and --grid cannot be combined: a sweep writes no model grid")
    data = ingest_csv(args.data, has_header=not args.no_header, target=args.target)
    clodum = Clodum.parse(args.clodum)
    pairs = [
        ("dataset", data.provenance),
        ("samples", data.num_samples),
        ("features", " ".join(data.feature_names)),
        ("target", data.columns[data.target_index]),
        ("clodum", clodum.spec_string()),
        ("method", args.method),
        ("seed", args.seed),
    ]
    policy = (AutoSlopes(args.sweep_k[0], args.seed) if args.sweep_k
              else _slope_policy(args.slopes, data.features.shape[1], args.seed))
    with _naming(data.provenance):
        problem = FitProblem(data.features, data.target, policy, clodum)

    if args.sweep_k:
        lo, hi = args.sweep_k
        pairs.append(("sweep", f"{lo}:{hi}"))
        counts = range(lo, hi + 1)
        warned = {}  # each distinct warning of the sweep's fits, in order
        for k, rep in zip(counts, _sweep_fits(problem, args.method, counts)):
            pairs.append((f"sweep[{k}]", f"rms={rep.rms_error!r} linf={rep.linf_error!r}"))
            warned.update(dict.fromkeys(rep.warnings))
        if warned:
            pairs.append(("warnings", "; ".join(warned)))
        _emit(_report_lines("fit", pairs), args.out and args.out + ".report.txt")
        return 0

    try:
        report = fit_max_affine(problem, args.method)
    except CarrierError as exc:
        raise CarrierError(f"{data.provenance}: {exc}") from None
    pairs.append(("slope_source", report.slope_source))
    pairs.append(("terms", report.model.rank))
    for k, line in enumerate(_term_lines(report.model)):
        pairs.append((f"term[{k}]", line))
    pairs.append(("rms_error", report.rms_error))
    pairs.append(("linf_error", report.linf_error))
    if data.features.shape[1] == 1:
        a_ls, b_ls = least_squares_line(data.features[:, 0], data.target)
        res = data.target - (a_ls * data.features[:, 0] + b_ls)
        pairs.append(("lse_baseline", f"a={a_ls!r} b={b_ls!r} rms={_rms(res)!r}"))
    pairs.append(("warnings", "; ".join(report.warnings) if report.warnings else "none"))

    # every text is built before any output is written
    report_text = _report_lines("fit", pairs)
    model_text = format_polynomial(report.model)
    grid_text = _model_grid(report, data, 101 if args.grid is None else args.grid)
    residual_text = _residual_table(report, data)
    out = args.out or str(Path(args.data).with_suffix("")) + f".{args.method}"
    _emit(report_text, out + ".report.txt",
          (out + ".model.txt", model_text),
          (out + ".grid.txt", grid_text),
          (out + ".residuals.txt", residual_text))
    return 0


# ---------------------------------------------------------------------------
# solve


def run_solve(args) -> int:
    _check_tol(args.tol, "--tol")
    A = read_tropmat(args.matrix)
    b = read_tropvec(args.rhs)
    result = solve(A, b, method=args.method)
    residual_tol = args.tol or 0.0
    exact = result.exact or bool(np.max(np.abs(result.residual_gle)) <= residual_tol)
    pairs = [
        ("matrix", f"{args.matrix} ({A.shape[0]}x{A.shape[1]})"),
        ("rhs", args.rhs),
        ("clodum", A.clodum.spec_string()),
        ("method", args.method),
        ("x_hat", result.x_hat.values),
        ("residual_gle", result.residual_gle),
        ("exact", "true" if exact else "false"),
        ("mu", result.mu),
    ]
    if result.x_tilde is not None:
        pairs.append(("x_tilde", result.x_tilde.values))
        pairs.append(("residual_mmae", result.residual_mmae))
    for note in result.notes:
        pairs.append(("note", note))
    _emit(_report_lines("solve", pairs), args.out)
    return 0


# ---------------------------------------------------------------------------
# eval


def run_eval(args) -> int:
    if args.at is not None and args.data is not None:
        raise TropicalError("--at and --data cannot be combined: eval takes one point or one dataset")
    poly = read_polynomial(args.poly)
    if args.at is not None:
        try:
            pts = np.array([[float(t) for t in args.at.split(",")]])
        except ValueError:
            raise TropicalError(f"--at needs comma-separated numbers, got {args.at!r}") from None
    else:
        if not args.data:
            raise TropicalError("eval needs --at or a dataset")
        dim = poly.dimension
        if args.target is not None:
            pts = ingest_csv(args.data, has_header=not args.no_header, target=args.target).features
            if pts.shape[1] != dim:
                raise TropicalError(
                    f"polynomial has dimension {dim} but dataset provides {pts.shape[1]} features"
                )
        else:
            # the points, or the points and then a target column; the copy is
            # C-ordered, as the features of a dataset are
            values = _read_csv(args.data, not args.no_header)[1]
            if values.shape[1] not in (dim, dim + 1):
                raise TropicalError(
                    f"{args.data}: {values.shape[1]} columns, but a polynomial of dimension {dim} "
                    f"takes {dim} (points) or {dim + 1} (points, then a target)"
                )
            pts = np.ascontiguousarray(values[:, :dim])
    _emit(_table_text(pts, np.atleast_1d(poly.evaluate(pts))), args.out)
    return 0


# ---------------------------------------------------------------------------
# polytope


def _describe_polytope(label: str, poly: Polytope, pairs: list, tol: float | None) -> None:
    hull = poly.hull_vertices
    if hull is not None and tol is not None and poly.dimension == 2:
        hull = convex_hull_2d(poly.generators, tol)
    if hull is not None:
        pairs.append((f"{label}.vertices", hull.shape[0]))
        for i, v in enumerate(hull):
            pairs.append((f"{label}.vertex[{i}]", v))
    else:
        pairs.append((f"{label}.notice", f"dimension {poly.dimension} > 2: listing generators, no hull"))
        for i, g in enumerate(poly.generators):
            pairs.append((f"{label}.generator[{i}]", g))


def run_polytope(args) -> int:
    _check_tol(args.tol, "--tol")
    polys = [read_polynomial(p) for p in args.polys]
    pairs = []
    newtons = []
    for idx, poly in enumerate(polys):
        np_poly = newton_polytope(poly)
        newtons.append(np_poly)
        pairs.append((f"polynomial[{idx}]", args.polys[idx]))
        _describe_polytope(f"newton[{idx}]", np_poly, pairs, args.tol)
    if len(newtons) >= 2:
        _describe_polytope("join", polytope_join(newtons[0], newtons[1]), pairs, args.tol)
        _describe_polytope("minkowski_sum", polytope_minkowski_sum(newtons[0], newtons[1]),
                           pairs, args.tol)
    _emit(_report_lines("polytope", pairs), args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _sweep_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected <min>:<max>, got {text!r}") from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"bad sweep range {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tropalg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a max-affine model to a CSV dataset")
    p_fit.add_argument("data", help="CSV dataset; last column is the target unless --target")
    p_fit.add_argument("--clodum", default="max-plus")
    p_fit.add_argument("--method", choices=("gle", "mmae"), default="gle")
    p_fit.add_argument("--slopes", default=None,
                       help="'auto:K', a slope file, 'line', or 'plane' (default by feature count)")
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--target", default=None)
    p_fit.add_argument("--no-header", action="store_true")
    p_fit.add_argument("--out", default=None, help="output prefix for report/model/plot files")
    p_fit.add_argument("--grid", type=int, default=None, help="points per axis of the model grid (default 101)")
    p_fit.add_argument("--sweep-k", type=_sweep_range, default=None, metavar="MIN:MAX")

    p_solve = sub.add_parser("solve", help="solve A (*) x = b from tropmat files")
    p_solve.add_argument("matrix")
    p_solve.add_argument("rhs")
    p_solve.add_argument("--method", choices=("gle", "mmae"), default="gle")
    p_solve.add_argument("--tol", type=float, default=None, help="residual tolerance for the exact flag")
    p_solve.add_argument("--out", default=None)

    p_eval = sub.add_parser("eval", help="evaluate a polynomial file at points")
    p_eval.add_argument("poly")
    p_eval.add_argument("--data", default=None, help="CSV of points, optionally with a target column last")
    p_eval.add_argument("--at", default=None, help="comma-separated coordinates of one point")
    p_eval.add_argument("--target", default=None)
    p_eval.add_argument("--no-header", action="store_true")
    p_eval.add_argument("--out", default=None)

    p_poly = sub.add_parser("polytope", help="Newton polytopes, joins and Minkowski sums")
    p_poly.add_argument("polys", nargs="+", help="polynomial files")
    p_poly.add_argument("--tol", type=float, default=None)
    p_poly.add_argument("--out", default=None)

    return parser


# built once per process, at import, and reused by every ``main`` call
_PARSER = build_parser()


def _glue_at(argv) -> list[str]:
    """argv with each ``--at V`` whose V starts with one dash written
    ``--at=V``: argparse reads such a V as an option unless it is one bare
    negative number, as in ``--at -0.5,0.25``."""
    out = []
    for arg in argv:
        if out and out[-1] == "--at" and arg.startswith("-") and not arg.startswith("--"):
            out[-1] = f"--at={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = _PARSER.parse_args(_glue_at(sys.argv[1:] if argv is None else argv))
    # looked up at each call, not bound into the parser at import, so a
    # wrapper later set on this module (a tracer, a test double) is what runs
    run = {"fit": run_fit, "solve": run_solve, "eval": run_eval, "polytope": run_polytope}[args.command]
    try:
        # numpy's error state is per thread, unlike the warning filters
        with np.errstate(all="ignore"):
            return run(args)
    except TropicalError as exc:
        print(f"tropalg: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (OSError, MemoryError) as exc:
        # numpy's MemoryError names the allocation it refused, Python's says nothing
        print(f"tropalg: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
