"""One property of every ``tropalg`` run, drawn from the parser's grammar.

argv is drawn from what the parser accepts, bad values included (negative
seeds and tolerances, NaN, counts the data cannot meet), and the input files
are valid ones, or valid ones mutated: truncated, a byte replaced, or a token
inserted (NaN, infinities, -0.0, huge and tiny exponents, a form feed, a
quote, a BOM, a line end, a comma, a byte that is not UTF-8).  Every run must

* exit with status 0, 1 or 2;
* on a non-zero exit, print nothing on stdout and exactly one
  ``tropalg: error:`` line on stderr, and leave the directory as it was;
* on exit 0, print nothing on stderr and leave no ``*.tmp`` file;
* raise no Python warning either way.
"""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tropalg.cli import main


def _table(header, rows):
    return (header + "\n" + "".join(",".join(map(repr, r)) + "\n" for r in rows)).encode()


_rng = np.random.default_rng(5)
_x1 = np.linspace(-2, 2, 10)
_x2 = _rng.uniform(-1, 1, (14, 2))
_xu = np.linspace(0.05, 0.95, 8)
_FILES = {
    "line.csv": _table("x,y", np.column_stack([_x1, np.maximum(_x1 - 0.5, -_x1)]).tolist()),
    "plane.csv": _table("x,y,f", np.column_stack([_x2, np.abs(_x2).sum(axis=1)]).tolist()),
    "unit.csv": _table("x,f", np.column_stack([_xu, np.maximum(_xu, 0.3)]).tolist()),
    "slopes.txt": b"1\n0\n",
    "A.txt": b"tropmat 3 2 max-plus\n0 -inf\n1 -inf\n2.5 -inf\n",
    "B.txt": b"tropmat 2 2 max-times\n0 1\n2 0.5\n",
    "b.txt": b"tropmat 3 1 max-plus\n0\n1\n2\n",
    "c.txt": b"tropmat 2 1 max-times\n1\n4\n",
    "p.txt": b"troppoly max max-plus\n1.0 | -2.0\n0.0 | 3.0\n",
    "q.txt": b"troppoly max max-plus\n0 0 | 0\n1 0 | 0\n2 0 | 0\n1 0.1 | 0\n1 1 | 0\n",
    "r.txt": b"troppoly min max-min\n1 0 | 0.5\n0 1 | 0.25\n0 0 | 1\n",
}
_INSERTS = [b"nan", b"inf", b"-inf", b"-0.0", b"1e308", b"-1e308", b"1e-320", b"9e999", b"\f", b'"',
            "\ufeff".encode(), b"\r\n", b"\r", b"\n", b",", b" ", b"|", b"x", b"\xff"]


def _mutate(draw, data: bytes) -> bytes:
    """``data`` truncated, with a byte replaced or a token inserted, or with
    a number given an exponent that makes it huge or tiny."""
    at = draw(st.integers(0, len(data)))
    kind = draw(st.sampled_from(["truncate", "replace", "insert", "insert", "exponent", "exponent"]))
    ends = [m.end() for m in re.finditer(rb"\d+(?![\d.e])", data)]  # the ends of numbers
    if kind == "exponent" and ends:
        at = draw(st.sampled_from(ends))
        return data[:at] + draw(st.sampled_from([b"e300", b"e307", b"e-300", b"e-320"])) + data[at:]
    if kind == "truncate":
        return data[:at]
    if kind == "replace" and at < len(data):
        return data[:at] + bytes([draw(st.integers(0, 255))]) + data[at + 1:]
    return data[:at] + draw(st.sampled_from(_INSERTS)) + data[at:]


def _opt(name, values):
    """``--name=value`` for a value drawn from ``values``, or nothing."""
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [f"--{name}={v}"]))


def _flag(name):
    return st.sampled_from([[], [f"--{name}"]])


_TOLS = ["-1", "-0.0", "0", "1e-9", "0.5", "nan", "inf"]
_OUT = ["{dir}/run", "{dir}/missing/run"]


def _argv(command, *parts):
    return st.tuples(*parts).map(lambda ps: [command, *(a for p in ps for a in p)])


_FIT = _argv(
    "fit",
    st.sampled_from(["line.csv", "plane.csv", "unit.csv"]).map(lambda n: [f"{{dir}}/{n}"]),
    _opt("clodum", ["max-plus", "max-min", "max-times", "max-softmin:θ=0.5", "nope"]),
    _opt("method", ["gle", "mmae"]),
    st.one_of(_opt("slopes", ["line", "plane", "auto:1", "auto:3", "auto:0", "auto:x", "auto:99",
                              "{dir}/slopes.txt", "{dir}/none.txt"]),
              _opt("sweep-k", ["1:2", "2:4", "1:99"])),
    _opt("seed", ["-1", "-5", "0", "3", str(2**70)]),
    _opt("target", ["x", "y", "f", "nope"]),
    _flag("no-header"),
    _opt("grid", ["-1", "0", "1", "3"]),
    _opt("out", _OUT),
)
_SOLVE = _argv(
    "solve",
    st.sampled_from([["{dir}/A.txt", "{dir}/b.txt"], ["{dir}/B.txt", "{dir}/c.txt"], ["{dir}/b.txt", "{dir}/b.txt"],
                     ["{dir}/A.txt", "{dir}/c.txt"], ["{dir}/A.txt", "{dir}/A.txt"]]),
    _opt("method", ["gle", "mmae"]),
    _opt("tol", _TOLS),
    _opt("out", _OUT),
)
_EVAL = _argv(
    "eval",
    st.sampled_from(["p.txt", "q.txt", "r.txt"]).map(lambda n: [f"{{dir}}/{n}"]),
    st.one_of(_opt("at", ["1", "-1,2", "0.5,0.5", "a", "nan", "1e400"]),
              _opt("data", ["{dir}/line.csv", "{dir}/plane.csv", "{dir}/unit.csv"])),
    _opt("target", ["x", "f", "nope"]),
    _flag("no-header"),
    _opt("out", _OUT),
)
_POLYTOPE = _argv(
    "polytope",
    st.lists(st.sampled_from(["p.txt", "q.txt", "r.txt"]), min_size=1, max_size=2)
    .map(lambda ns: [f"{{dir}}/{n}" for n in ns]),
    _opt("tol", _TOLS),
    _opt("out", _OUT),
)


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@st.composite
def _runs(draw):
    """argv, and the files with one of those it names mutated, or none."""
    argv = draw(st.one_of(_FIT, _SOLVE, _EVAL, _POLYTOPE))
    files = dict(_FILES)
    named = sorted({m for a in argv for m in re.findall(r"\{dir\}/([\w.]+)", a)} & set(files))
    name = draw(st.sampled_from([None, *named]))
    if name is not None:
        files[name] = _mutate(draw, files[name])
    return argv, files


@settings(max_examples=150, deadline=None)
@given(run=_runs())
def test_every_run_exits_cleanly(run):
    argv, files = run
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, data in files.items():
            (root / name).write_bytes(data)
        (root / "run.report.txt").write_bytes(b"old\n")  # an output a run may replace
        before = _tree(root)
        argv = [a.replace("{dir}", tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            rc = main(argv)
        assert [str(w.message) for w in caught] == []
        out, err = out.getvalue(), err.getvalue()
        assert rc in (0, 1, 2)
        if rc == 0:
            assert err == ""
            assert not list(root.rglob("*.tmp"))
        else:
            assert out == ""
            assert err.startswith("tropalg: error: ") and err.count("\n") == 1 and err.endswith("\n")
            assert _tree(root) == before
        if rc == 0 and argv[0] == "polytope":
            # a hull lists each of its vertices once
            for block in ("newton[0]", "newton[1]", "join", "minkowski_sum"):
                vertices = [ln.split(": ", 1)[1] for ln in out.splitlines() if ln.startswith(f"{block}.vertex[")]
                assert len(vertices) == len(set(vertices)), block
