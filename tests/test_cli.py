"""Command-line interface: ingestion, subcommands, determinism, round-trips."""

import contextlib
import csv
import io
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import eval_text_per_row, grid_text_per_row, ingest_csv_per_cell, residual_text_per_row
import tropalg.cli
import tropalg.formats
from tropalg import (
    MAX_PLUS,
    TropicalMatrix,
    fit_plane,
    parse_tropmat,
    read_polynomial,
    read_tropmat,
    read_tropvec,
    write_polynomial,
    write_tropmat,
)
from tropalg.cli import Dataset, _model_grid, _residual_table, _table_text, ingest_csv, main
from tropalg.clodum import CarrierError, TropicalError
from tropalg.regression import AutoSlopes, FitProblem, fit_max_affine

INF = float("inf")


@pytest.fixture()
def line_csv(tmp_path):
    path = tmp_path / "line.csv"
    x = np.linspace(-1, 12, 40)
    f = np.maximum(x - 2, 3)
    rows = "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, f))
    path.write_text("x,y\n" + rows + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# ingestion


def test_ingest_basic(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,b,t\n1,2,3\n4,5,6\n7,8,9\n1,1,1\n2,2,2\n", encoding="utf-8")
    ds = ingest_csv(p)
    assert ds.features.shape == (5, 2)
    assert ds.target.tolist() == [3, 6, 9, 1, 2]
    assert ds.columns == ["a", "b", "t"]


def test_ingest_inf_literal(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y\n-inf,0\n1,2\n", encoding="utf-8")
    ds = ingest_csv(p)
    assert ds.features[0, 0] == -INF


def test_ingest_ragged_row_names_line(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y\n1,2\n3\n", encoding="utf-8")
    with pytest.raises(TropicalError, match=":3"):
        ingest_csv(p)


def test_ingest_non_numeric_and_nan(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y\n1,apple\n", encoding="utf-8")
    with pytest.raises(TropicalError, match="non-numeric"):
        ingest_csv(p)
    p.write_text("x,y\n1,nan\n", encoding="utf-8")
    with pytest.raises(TropicalError, match="NaN"):
        ingest_csv(p)


def test_ingest_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("", encoding="utf-8")
    with pytest.raises(TropicalError, match="no data"):
        ingest_csv(p)


def test_ingest_target_selection(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("x,y,z\n1,2,3\n", encoding="utf-8")
    ds = ingest_csv(p, target="y")
    assert ds.target.tolist() == [2.0]
    assert ds.features.tolist() == [[1.0, 3.0]]
    with pytest.raises(TropicalError, match="no column"):
        ingest_csv(p, target="w")


def test_ingest_no_header(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("1,2\n3,4\n", encoding="utf-8")
    ds = ingest_csv(p, has_header=False)
    assert ds.columns == ["col1", "col2"]
    assert ds.num_samples == 2


def _ingest_outcome(read, path, **kw):
    try:
        ds = read(path, **kw)
    except TropicalError as exc:
        return "error", str(exc)
    return ds.columns, ds.values.dtype, ds.values.shape, ds.values.tobytes(), ds.target_index


_CELLS = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["inf", "-inf", "nan", "-NaN", "1_0", "1__0", "", " 2 ", '"3"', '" -0.0 "',
                     '"4,5"', "x", "1e400", "5e-324", "0x10", "Infinity"]),
)
_ROW = st.lists(_CELLS, min_size=1, max_size=4).map(",".join)
_DEFECT = st.sampled_from(["1,apple", "nan,1", "1,2,3,4,5", "7", "1,,2", '"a b",1'])


@st.composite
def _csv_text(draw):
    lines = draw(st.lists(st.one_of(_ROW, st.sampled_from(["", " , ", "1,2", "3,4"])), max_size=8))
    for _ in range(draw(st.integers(0, 2))):  # up to two defects, on different lines
        lines.insert(draw(st.integers(0, len(lines))), draw(_DEFECT))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=300, deadline=None)
@given(text=_csv_text(), has_header=st.booleans(), target=st.sampled_from([None, "1", "x"]))
def test_ingest_matches_per_cell_reader(text, has_header, target):
    # whole-array conversion returns the same dataset, or raises the same
    # first-in-file-order message, as parsing each cell as its row is read
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text, encoding="utf-8")
        kw = {"has_header": has_header, "target": target}
        assert _ingest_outcome(ingest_csv, path, **kw) == _ingest_outcome(ingest_csv_per_cell, path, **kw)


@pytest.mark.parametrize("tail", [
    b"2," + b"9" * (csv.field_size_limit() + 1) + b"\n",  # over the csv field limit
    b"3,4\n" * 5000 + b"5,\xff\n",  # not UTF-8, in a later chunk of the decoder
])
def test_ingest_bad_cell_wins_over_unreadable_line(tmp_path, tail):
    # the csv module or the decoder refuses a later line only after line 2
    # has been read, so line 2's defect is the first in file order
    p = tmp_path / "d.csv"
    p.write_bytes(b"x,y\n1,apple\n" + tail)
    with pytest.raises(TropicalError, match=r":2: non-numeric cell 'apple'"):
        ingest_csv_per_cell(p)
    with pytest.raises(TropicalError, match=r":2: non-numeric cell 'apple'"):
        ingest_csv(p)


def test_fit_reports_first_csv_defect(tmp_path, capsys):
    p = tmp_path / "d.csv"
    p.write_text("x,y\n1,2\n3,oops\n5,6\n7,8,9\n", encoding="utf-8")
    assert main(["fit", str(p), "--out", str(tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"tropalg: error: {p}:3: non-numeric cell 'oops'\n"
    assert not list(tmp_path.glob("run*"))


@pytest.mark.parametrize("text, message", [
    ('x,y\n"1\n",3\n4,oops\n', ":4: non-numeric cell 'oops'"),
    ('x,"y\n"\n1,2\n3,4\n1,2,3\n', ":5: ragged row has 3 cells, expected 2"),
], ids=["after-multiline-cell", "after-multiline-header"])
def test_csv_messages_name_physical_lines(tmp_path, text, message):
    # a quoted cell spanning two lines is one record but two lines
    p = tmp_path / "d.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(TropicalError, match=f"^{re.escape(str(p) + message)}$"):
        ingest_csv(p)


@pytest.mark.parametrize("text", ['x,y\n1,2\n"3"x,4\n', 'x,y\n1,2\n3,"4" \n'], ids=["letter", "space"])
def test_csv_character_after_closing_quote_is_refused(tmp_path, capsys, text):
    # the cell is not read as the quoted text joined to what follows it, '3x'
    message = "',' expected after '\"'"
    p = tmp_path / "d.csv"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(csv.Error, match=f"^{re.escape(message)}$"):
        ingest_csv_per_cell(p)
    rc = main(["fit", str(p), "--out", str(tmp_path / "run")])
    assert _one_line_usage_error(rc, capsys) == f"tropalg: error: {p}:3: {message}\n"
    assert not list(tmp_path.glob("run*"))


@pytest.mark.parametrize("body, message", [
    (b"x,y\n1,2\n3,\xff\n", ": not UTF-8 text (invalid start byte)"),
    (b"x,y\n1,2\n3," + b"9" * (csv.field_size_limit() + 1) + b"\n",
     f":3: field larger than field limit ({csv.field_size_limit()})"),
], ids=["not-utf8", "over-field-limit"])
def test_fit_unreadable_csv_is_usage_error(tmp_path, capsys, body, message):
    p = tmp_path / "d.csv"
    p.write_bytes(body)
    rc = main(["fit", str(p), "--out", str(tmp_path / "run")])
    assert _one_line_usage_error(rc, capsys) == f"tropalg: error: {p}{message}\n"
    assert not list(tmp_path.glob("run*"))


def _reference_outcome(path, **kw):
    """The per-cell reader's outcome, with a csv-module error named by the
    physical line the csv module stopped on, as ``ingest_csv`` names it."""
    try:
        return _ingest_outcome(ingest_csv_per_cell, path, **kw)
    except csv.Error as exc:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            with contextlib.suppress(csv.Error):
                for _ in reader:
                    pass
        return "error", f"{path}:{reader.line_num}: {exc}"


_NUMBER = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-10**9, 10**9).map(str),
    st.sampled_from(["inf", "-inf", "0.0", "-0.0"]),
)
_SPACED_NUMBER = st.tuples(st.sampled_from(["", " ", "  ", "\t"]), _NUMBER,
                           st.sampled_from(["", " ", "\t "])).map("".join)
_STREAM_DEFECTS = [None, "1_0", "arabic-digit", "bom", "ideographic-space", "nul", "lone-cr", "quoted",
                   "over-limit"]


@st.composite
def _numeric_csv(draw):
    """Mostly regular numeric CSV text, with at most one defect that the C
    tokenizer refuses or must not be trusted with, and often all-blank
    records first, which the csv module skips."""
    width = draw(st.integers(1, 4))
    lines = [[f"c{j}" for j in range(width)]] if draw(st.booleans()) else []
    lines += draw(st.lists(st.lists(_SPACED_NUMBER, min_size=width, max_size=width), max_size=10))
    eols = [draw(st.sampled_from(["\n", "\r\n"]))] * len(lines)
    defect = draw(st.sampled_from(_STREAM_DEFECTS))
    if lines and defect not in (None, "bom", "lone-cr"):
        row = lines[draw(st.integers(0, len(lines) - 1))]
        j = draw(st.integers(0, width - 1))
        row[j] = {
            "1_0": "1_0",
            "arabic-digit": "\u0661",
            "ideographic-space": f"\u3000{row[j]}\u3000",
            "nul": f"{row[j]}\x00",
            "quoted": f'"{row[j]}"',
            "over-limit": "9" * (csv.field_size_limit() + 1),
        }[defect]
    if lines and defect == "lone-cr":
        eols[draw(st.integers(0, len(lines) - 1))] = "\r"
    text = "".join(",".join(cells) + eol for cells, eol in zip(lines, eols))
    if draw(st.booleans()):
        blank = ",".join([" "] * width)
        text = draw(st.sampled_from(["\n", f"{blank}\n", f"{blank}\r\n\n"])) + text
    if defect == "bom":
        text = "\ufeff" + text
    return text + draw(st.sampled_from(["", "\n", "\r\n\r\n"]))


@settings(max_examples=200, deadline=None)
@given(text=_numeric_csv(), has_header=st.booleans(), target=st.sampled_from([None, "c0"]))
def test_ingest_streamed_path_matches_per_cell_reader(text, has_header, target):
    # the same columns and value bytes, or the same message, whichever path
    # the file takes
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        kw = {"has_header": has_header, "target": target}
        assert _ingest_outcome(ingest_csv, path, **kw) == _reference_outcome(path, **kw)


@settings(max_examples=200, deadline=None)
@given(text=_numeric_csv(), blank=st.lists(st.sampled_from(["", "\n", "\r\n", "\r", " ", "\t", "\f"]),
                                           max_size=8).map("".join),
       has_header=st.booleans())
def test_ingest_after_blank_lines_matches_per_cell_reader(text, blank, has_header):
    # a run of blank lines and white space before the data rows, which
    # numpy's tokenizer skips when they hold no data, gives the per-cell
    # reader's values or message, and no warning
    header = io.StringIO(text, newline="").readline() if has_header else ""
    text = header + blank + text[len(header):]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            got = _ingest_outcome(ingest_csv, path, has_header=has_header)
        assert got == _reference_outcome(path, has_header=has_header)


@pytest.mark.parametrize("text, has_header, streamed", [
    ("x,y\n1,2\n3,4\n", True, True),
    ("x,y\r\n1,2\r\n3,4\r\n\r\n\r\n", True, True),
    (" x , y \n 1 ,\t2 \n\u30003,4\u3000\n", True, True),
    ("x,y\n-inf,inf\n-0.0,5e-324\n1e400,-7\n", True, True),
    ("x,y\r1,2\r3,4\r", True, True),
    ("\n\n1,2\n\n3,4\n\n", False, True),
    ("x\n1\n", True, True),  # one column: streamed, then refused for its width
    ("x,y\n1_0,2\n", True, False),
    ("x,y\n\u0661,2\n", True, False),
    ("x,y\n\"1\",2\n", True, False),
    ('"x",y\n1,2\n', True, False),
    ("x\x00,y\n1,2\n", True, False),
    (" , \nx,y\n1,2\n", True, False),
    ("\nx,y\n1,2\n", True, False),
    (" , \n1,2\n3,4\n", True, False),
    (" , \n1,2\n3,4\n", False, False),
    ("\n1\n2\n", True, False),
    ("\ufeff1,2\n", False, False),
    ("x,y\n1,nan\n", True, False),
    ("x,y\n", True, False),
    ("x,y,z\n1,2\n", True, False),
    ("x,y\n1,2\n3\n", True, False),
    ("x,y\n1,2\n3,\n", True, False),
    ("x,y\n1,2\n3,4\n" + "5," + "9" * (csv.field_size_limit() + 1) + "\n", True, False),
], ids=lambda v: repr(v)[:40])
def test_csv_stream_or_csv_module(monkeypatch, tmp_path, text, has_header, streamed):
    calls = []
    csv_module_reader = tropalg.formats._read_csv_cells
    monkeypatch.setattr(tropalg.formats, "_read_csv_cells",
                        lambda *a: calls.append(a) or csv_module_reader(*a))
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    got = _ingest_outcome(ingest_csv, path, has_header=has_header)
    assert len(calls) == (0 if streamed else 1)
    assert got == _reference_outcome(path, has_header=has_header)


def test_ingest_nan_above_undecodable_bytes_wins(tmp_path):
    # the tokenizer reads a NaN without complaint, then meets the bytes that
    # do not decode; the csv-module reader reports the NaN first
    p = tmp_path / "d.csv"
    p.write_bytes(b"x,y\n1,nan\n" + b"3,4\n" * 5000 + b"5,\xff\n")
    with pytest.raises(TropicalError, match=r":2: NaN is not a valid cell value$"):
        ingest_csv(p)


def test_ingest_long_line_of_short_cells(tmp_path):
    # the line-length pass sends a line over the field size limit to the csv
    # module, which reads it, since none of its cells is over the limit
    row = ",".join(["1.5"] * (csv.field_size_limit() // 4 + 1))
    path = tmp_path / "d.csv"
    path.write_text(f"{row}\n{row}\n", encoding="utf-8")
    ds = ingest_csv(path, has_header=False)
    assert ds.values.shape == (2, csv.field_size_limit() // 4 + 1)
    assert ds.values.tobytes() == ingest_csv_per_cell(path, has_header=False).values.tobytes()


def test_long_line_scan_matches_a_split(tmp_path):
    # the block scan measures lines across block edges as a split would,
    # for limits far below the line lengths and above them
    rng = np.random.default_rng(3)
    path = tmp_path / "f"
    for _ in range(2000):
        data = bytes(rng.choice(list(b"ab\n\rxyz"), size=rng.integers(0, 60)).tolist())
        limit = int(rng.integers(1, 13))
        path.write_bytes(data)
        lines = data.replace(b"\r", b"\n").split(b"\n")
        assert tropalg.formats._has_long_line(str(path), limit) == any(len(ln) > limit for ln in lines)

def test_ingest_peak_memory_is_a_small_multiple_of_the_values(tmp_path):
    # the csv-module reader holds every cell as a string, over ten times the
    # values' bytes; the tokenizer fills the value array from the stream
    rng = np.random.default_rng(23)
    vals = rng.normal(0, 10, (100_000, 3))
    path = tmp_path / "d.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("a,b,f\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in vals.tolist())
    tracemalloc.start()
    try:
        ds = ingest_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ds.values.tobytes() == vals.tobytes()
    assert peak <= 2 * vals.nbytes


def test_dataset_features_are_computed_once(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,t,b\n1,2,3\n4,5,6\n", encoding="utf-8")
    ds = ingest_csv(p, target="t")
    assert ds.features is ds.features
    assert ds.features.tolist() == [[1.0, 3.0], [4.0, 6.0]]


# ---------------------------------------------------------------------------
# numeric text tables


def test_table_text_matches_per_row_writers():
    special = np.array([-0.0, 0.0, INF, -INF, 1e-300, 5e-324, -5e-324, 3.0, -17.0, 1e16, 0.1])
    rng = np.random.default_rng(79)
    cols = [rng.permutation(special) for _ in range(5)]
    x1, x2, f, res, v = cols
    assert _table_text(x1, v) == grid_text_per_row(x1[:, None], v)
    pts = np.column_stack([x1, x2])
    assert _table_text(pts, v) == grid_text_per_row(pts, v)
    assert _table_text(pts, v) == eval_text_per_row(pts, v)
    assert _table_text(x1[:, None], v) == eval_text_per_row(x1[:, None], v)
    with np.errstate(invalid="ignore"):
        pred = f - res
    assert _table_text(pts, f, pred, res) == residual_text_per_row(pts, f, res)


@pytest.mark.parametrize("dims", [1, 2])
def test_fit_and_eval_tables_match_per_row_writers(tmp_path, capsys, dims):
    rng = np.random.default_rng(83 + dims)
    x = rng.uniform(-2, 2, (60, dims))
    x[:4, 0] = [-0.0, 1e-300, 5e-324, 1.0]
    f = np.round(np.abs(x).sum(axis=1) * 4)  # integer targets
    f[0] = -0.0
    p = tmp_path / "d.csv"
    p.write_text("\n".join(",".join(map(repr, row)) for row in np.column_stack([x, f]).tolist()) + "\n",
                 encoding="utf-8")
    data = ingest_csv(p, has_header=False)
    report = fit_max_affine(FitProblem(data.features, data.target, AutoSlopes(3, 1), MAX_PLUS), "mmae")
    gx = [np.linspace(x[:, j].min(), x[:, j].max(), 5) for j in range(dims)]
    grid = np.column_stack([g.ravel() for g in np.meshgrid(*gx, indexing="ij")])
    assert _model_grid(report, data, 5) == grid_text_per_row(grid, report.model.evaluate(grid))
    assert _residual_table(report, data) == residual_text_per_row(x, f, report.residuals)
    model = tmp_path / "m.txt"
    write_polynomial(model, report.model)
    assert main(["eval", str(model), "--data", str(p), "--no-header"]) == 0
    assert capsys.readouterr().out == eval_text_per_row(x, report.model.evaluate(x))


@pytest.mark.parametrize("grid", [1, 2, 101])
@pytest.mark.parametrize("columns", ["spread", "constant", "signed-zero", "tiny"])
def test_2d_grid_matches_per_row_writer(grid, columns):
    rng = np.random.default_rng(113)
    xy = rng.uniform(-2, 2, (30, 2))
    if columns == "constant":
        xy[:, 1] = 0.75  # min == max: every grid row repeats one value
    elif columns == "signed-zero":
        xy[:, 0] = np.abs(xy[:, 0])
        xy[0, 0] = -0.0  # a -0.0 minimum
        xy[:, 1] = -0.0  # linspace(-0.0, -0.0, g) mixes 0.0 and -0.0
    elif columns == "tiny":
        xy[:, 0] = rng.choice([0.0, 1e-300], 30)
        xy[:, 1] = rng.choice([-0.0, 1e-300, -1e-300], 30)
    f = np.max(xy @ [[1.0, -0.5], [-1.0, 2.0]], axis=1) + 1.0
    data = Dataset(["x", "y", "f"], np.column_stack([xy, f]), 2, "mem")
    report = fit_plane(xy, f)
    axes = [np.linspace(xy[:, j].min(), xy[:, j].max(), grid) for j in range(2)]
    pts = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    assert _model_grid(report, data, grid) == grid_text_per_row(pts, report.model.evaluate(pts))


def test_2d_grid_formats_each_axis_value_once(monkeypatch):
    # one repr per axis value and one per model value, not one per coordinate
    rng = np.random.default_rng(127)
    xy = rng.uniform(-2, 2, (30, 2))
    f = xy.sum(axis=1)
    data = Dataset(["x", "y", "f"], np.column_stack([xy, f]), 2, "mem")
    report = fit_plane(xy, f)
    calls = []
    monkeypatch.setattr(tropalg.cli, "repr", lambda v: calls.append(v) or repr(v), raising=False)
    _model_grid(report, data, 101)
    assert len(calls) == 101 + 101 + 101**2


# ---------------------------------------------------------------------------
# fit command


def test_fit_line_command(line_csv, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["fit", str(line_csv), "--method", "mmae", "--slopes", "line",
               "--out", str(out)])
    assert rc == 0
    report = capsys.readouterr().out
    assert "linf_error: 0.0" in report
    assert "term[0]: 1.0 | -2.0" in report
    assert (out.parent / "run.report.txt").exists()
    assert (out.parent / "run.model.txt").exists()
    assert (out.parent / "run.grid.txt").exists()
    assert (out.parent / "run.residuals.txt").exists()


def test_fit_lse_baseline_of_data_beyond_1e154(tmp_path, capsys):
    # the baseline's sums of squares overflow unless x is scaled first
    p = tmp_path / "big.csv"
    p.write_text("x,f\n1e300,1\n-1e300,2\n0,3\n")
    assert main(["fit", str(p), "--out", str(tmp_path / "run")]) == 0
    assert "lse_baseline: a=-4.999999999999999e-301 b=2.0 rms=0.7071067811865476\n" in capsys.readouterr().out


def test_fit_mmae_maxmin_is_usage_error(line_csv, capsys):
    rc = main(["fit", str(line_csv), "--method", "mmae", "--clodum", "max-min",
               "--slopes", "line"])
    assert rc == 2
    assert "max-plus" in capsys.readouterr().err


def test_fit_auto_slopes(line_csv, tmp_path, capsys):
    out = tmp_path / "auto"
    rc = main(["fit", str(line_csv), "--slopes", "auto:2", "--method", "mmae",
               "--out", str(out)])
    assert rc == 0
    assert "slope_source: jenks" in capsys.readouterr().out


def test_fit_slope_file(line_csv, tmp_path, capsys):
    slopes = tmp_path / "slopes.txt"
    slopes.write_text("1\n0\n", encoding="utf-8")
    rc = main(["fit", str(line_csv), "--slopes", str(slopes), "--method", "gle",
               "--out", str(tmp_path / "sf")])
    assert rc == 0
    assert "slope_source: given" in capsys.readouterr().out


def test_fit_reports_are_deterministic(line_csv, tmp_path, capsys):
    argv = ["fit", str(line_csv), "--slopes", "auto:3", "--seed", "7",
            "--out", str(tmp_path / "rep")]
    assert main(argv) == 0
    first = (tmp_path / "rep.report.txt").read_bytes()
    assert main(argv) == 0
    second = (tmp_path / "rep.report.txt").read_bytes()
    assert first == second


def test_fit_model_round_trip_bit_exact(line_csv, tmp_path, capsys):
    out = tmp_path / "rt"
    assert main(["fit", str(line_csv), "--slopes", "auto:2", "--method", "mmae",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    model = read_polynomial(str(out) + ".model.txt")
    # residuals file carries the original predictions; re-evaluating the
    # re-ingested model must reproduce them bit-exactly
    rows = (tmp_path / "rt.residuals.txt").read_text().strip().splitlines()
    xs = np.array([[float(r.split()[0])] for r in rows])
    preds = np.array([float(r.split()[2]) for r in rows])
    again = model.evaluate(xs)
    assert np.array_equal(preds, again)


def test_fit_sweep(line_csv, capsys):
    rc = main(["fit", str(line_csv), "--sweep-k", "1:3"])
    assert rc == 0
    out = capsys.readouterr().out
    for k in (1, 2, 3):
        assert f"sweep[{k}]:" in out


def _sweep_line(data, k):
    rep = fit_max_affine(FitProblem(data.features, data.target, AutoSlopes(k, 0), MAX_PLUS), "gle")
    return f"sweep[{k}]: rms={rep.rms_error!r} linf={rep.linf_error!r}"


def test_fit_sweep_lines_equal_separate_fits(tmp_path, capsys):
    # the sweep runs one natural-breaks DP for its largest k; every line is
    # the one a separate auto:k fit gives
    x = np.sort(np.random.default_rng(4).uniform(-3, 3, 60))
    f = np.logaddexp(x, -2 * x) + 0.01 * np.sin(7 * x)
    path = tmp_path / "curve.csv"
    path.write_text("x,y\n" + "".join(f"{float(a)!r},{float(b)!r}\n" for a, b in zip(x, f)),
                    encoding="utf-8")
    assert main(["fit", str(path), "--sweep-k", "1:8"]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("sweep[")]
    data = ingest_csv(path)
    assert lines == [_sweep_line(data, k) for k in range(1, 9)]


def test_fit_sweep_past_the_derivative_count_fails_like_the_fit(tmp_path, capsys):
    # a repeated abscissa leaves 8 derivative samples for 10 samples
    path = tmp_path / "dup.csv"
    path.write_text("x,y\n0,1\n0,2\n" + "".join(f"{i},{i * i}\n" for i in range(1, 9)),
                    encoding="utf-8")
    message = "tropalg: error: only 8 derivative samples for 9 clusters\n"
    assert main(["fit", str(path), "--sweep-k", "6:9"]) == 2
    assert capsys.readouterr() == ("", message)
    assert main(["fit", str(path), "--slopes", "auto:9", "--out", str(tmp_path / "d")]) == 2
    assert capsys.readouterr() == ("", message)


def _write_table(path, table):
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in np.asarray(table, float).tolist()),
                    encoding="utf-8")
    return path


def _sweep_datasets():
    """Small datasets for the sweep, each with a defect that a sweep can reach."""
    rng = np.random.default_rng(11)
    x1 = np.sort(rng.uniform(-3, 3, 24))
    dup = np.repeat(np.arange(8.0), [1, 3, 1, 2, 1, 1, 3, 1])  # 8 distinct of 13
    plane = rng.uniform(-1, 1, (36, 2))
    t = np.arange(14.0)
    return {
        "1d": np.column_stack([x1, np.abs(x1) + 0.01 * np.sin(9 * x1)]),
        "1d-duplicate-abscissae": np.column_stack([dup, dup**2 + 0.1 * np.arange(13)]),
        "1d-too-few": np.column_stack([[0.0, 1.0, 3.0, 4.0], [1.0, 0.0, 2.0, 5.0]]),
        "2d": np.column_stack([plane, np.logaddexp(plane[:, 0], -plane.sum(axis=1))]),
        # a line of 14 samples: the neighbourhoods on it are rank-deficient
        "2d-rank-deficient": np.vstack([np.column_stack([t, 2 * t, t**2]),
                                        np.column_stack([20 + rng.uniform(size=(10, 2)), rng.uniform(size=10)])]),
        "2d-collinear": np.column_stack([t, 2 * t, t**2]),
        "2d-too-few": np.column_stack([plane[:7], plane[:7, 0] ** 2]),
    }


def _expected_sweep(data, counts, clodum, method, seed):
    """The sweep lines and standard error of separate fits: every line, or
    no line and the first error."""
    lines = []
    for k in counts:
        try:
            problem = FitProblem(data.features, data.target, AutoSlopes(k, seed), clodum)
        except TropicalError as exc:
            # the CLI names its dataset in the errors of the problem, which it
            # builds at the first k; a later k > m follows a k - 1 >= m whose
            # fit has already failed
            return [], f"tropalg: error: {data.provenance}: {exc}\n"
        try:
            rep = fit_max_affine(problem, method)
        except TropicalError as exc:
            return [], f"tropalg: error: {exc}\n"
        lines.append(f"sweep[{k}]: rms={rep.rms_error!r} linf={rep.linf_error!r}")
    return lines, ""


@pytest.mark.parametrize("name", list(_sweep_datasets()))
def test_fit_sweep_equals_separate_fits_or_their_first_error(name, tmp_path, capsys):
    path = _write_table(tmp_path / "d.csv", _sweep_datasets()[name])
    data = ingest_csv(path, has_header=False)
    m = data.num_samples
    rng = np.random.default_rng(len(name))
    ranges = [(1, 4), (m + 1, m + 3)]  # and lo > m
    ranges += [tuple(sorted(rng.integers(1, m + 4, 2))) for _ in range(4)]
    cases = [(lo, hi, clodum, method, int(rng.integers(0, 5)))
             for lo, hi in ranges
             for clodum, method in [("max-plus", "gle"), ("max-plus", "mmae"), ("max-min", "gle")]]
    for lo, hi, clodum, method, seed in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # skipped neighbourhoods
            lines, message = _expected_sweep(data, range(lo, hi + 1), tropalg.Clodum.parse(clodum), method, seed)
            rc = main(["fit", str(path), "--no-header", "--sweep-k", f"{lo}:{hi}", "--clodum", clodum,
                       "--method", method, "--seed", str(seed)])
        out, err = capsys.readouterr()
        got = [ln for ln in out.splitlines() if ln.startswith("sweep[")]
        assert (rc, got, err) == (2 if message else 0, lines, message), (lo, hi, clodum, method)


def test_fit_sweep_2d_takes_the_gradients_once(monkeypatch, tmp_path, capsys):
    calls = []
    gradients = tropalg.regression._gradients
    monkeypatch.setattr(tropalg.regression, "_gradients", lambda *a: calls.append(1) or gradients(*a))
    path = _write_table(tmp_path / "d.csv", _sweep_datasets()["2d"])
    assert main(["fit", str(path), "--no-header", "--sweep-k", "1:8"]) == 0
    assert sum(ln.startswith("sweep[") for ln in capsys.readouterr().out.splitlines()) == 8
    assert len(calls) == 1


@pytest.mark.parametrize("slopes", ["line", "plane", "auto:2", "slopes.txt"])
def test_fit_sweep_takes_no_slopes(slopes, line_csv, tmp_path, capsys):
    (tmp_path / "slopes.txt").write_text("1\n0\n", encoding="utf-8")
    if slopes == "slopes.txt":
        slopes = str(tmp_path / slopes)
    rc = main(["fit", str(line_csv), "--sweep-k", "1:2", "--slopes", slopes])
    assert _one_line_usage_error(rc, capsys) == (
        "tropalg: error: --sweep-k and --slopes cannot be combined: a sweep fits auto:K for each K\n")


_FIT_PARTS = ("report", "model", "grid", "residuals")


def _fit_outputs(argv, out, capsys):
    """Exit status, stdout, stderr and the bytes of the four files of one fit."""
    paths = [Path(f"{out}.{part}.txt") for part in _FIT_PARTS]
    for path in paths:
        path.unlink(missing_ok=True)
    rc = main(argv + ["--out", str(out)])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err, [p.read_bytes() if p.exists() else None for p in paths]


@pytest.mark.parametrize("dims, name, rows", [(1, "line", "1\n0\n"), (2, "plane", "1 0\n0 1\n0 0\n")])
@pytest.mark.parametrize("clodum, method", [("max-plus", "gle"), ("max-plus", "mmae"), ("max-times", "gle"),
                                            ("max-min", "gle"), ("max-softmin:θ=0.5", "gle")])
def test_fit_line_and_plane_are_their_slope_tables(dims, name, rows, clodum, method, tmp_path, capsys):
    # --slopes line/plane, the default slopes and a slope file of the same
    # rows are one given-slopes fit, on every clodum
    rng = np.random.default_rng(17 + dims)
    table = rng.uniform(0.05, 0.95, (25, dims + 1))  # inside every carrier
    path = _write_table(tmp_path / "d.csv", table)
    (tmp_path / "rows.txt").write_text(rows, encoding="utf-8")
    base = ["fit", str(path), "--no-header", "--clodum", clodum, "--method", method]
    runs = [_fit_outputs(base + extra, tmp_path / "run", capsys)
            for extra in (["--slopes", name], [], ["--slopes", str(tmp_path / "rows.txt")])]
    rc, out, err, files = runs[0]
    assert (rc, err) == (0, "") and None not in files
    assert "slope_source: given" in out
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("clodum", ["max-plus", "max-min"])
def test_fit_infinite_cell_is_one_error_under_every_slopes_value(clodum, tmp_path, capsys):
    (tmp_path / "rows.txt").write_text("1\n0\n", encoding="utf-8")
    path = tmp_path / "inf.csv"
    path.write_text("x,y\n0.25,0.5\ninf,0.75\n0.5,0.25\n", encoding="utf-8")
    for slopes in (["--slopes", "line"], [], ["--slopes", str(tmp_path / "rows.txt")], ["--slopes", "auto:1"]):
        rc = main(["fit", str(path), "--clodum", clodum, "--out", str(tmp_path / "run")] + slopes)
        assert _one_line_usage_error(rc, capsys) == (
            f"tropalg: error: {path}: samples must be finite: sample 1 (x = inf), f = 0.75\n"), slopes
    assert list(tmp_path.glob("run.*")) == []


@pytest.mark.parametrize("extra", [[], ["--slopes", "auto:2"], ["--sweep-k", "1:2"]])
def test_fit_sample_error_starts_with_the_dataset_path(extra, tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x,y,f\n0.5,0.25,1\n0.75,0.5,2\n0.25,1,inf\n1,0.5,3\n", encoding="utf-8")
    rc = main(["fit", str(path), "--out", str(tmp_path / "run")] + extra)
    assert _one_line_usage_error(rc, capsys) == (
        f"tropalg: error: {path}: samples must be finite: sample 2 (x = 0.25 1.0), f = inf\n")
    assert list(tmp_path.glob("run.*")) == []


def test_fit_sweep_writes_its_report_under_out_only(line_csv, tmp_path, capsys):
    argv = ["fit", str(line_csv), "--sweep-k", "1:3"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["line.csv"]
    assert main(argv + ["--out", str(tmp_path / "sw")]) == 0
    assert capsys.readouterr().out == printed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["line.csv", "sw.report.txt"]
    assert (tmp_path / "sw.report.txt").read_text(encoding="utf-8") == printed


def test_fit_sweep_takes_no_grid(tmp_path, capsys):
    # checked before the dataset is read: the file does not exist
    rc = main(["fit", str(tmp_path / "missing.csv"), "--sweep-k", "1:2", "--grid", "5"])
    assert _one_line_usage_error(rc, capsys) == (
        "tropalg: error: --sweep-k and --grid cannot be combined: a sweep writes no model grid\n")


def test_fit_grid_override(line_csv, tmp_path):
    out = tmp_path / "g"
    assert main(["fit", str(line_csv), "--slopes", "line", "--grid", "11",
                 "--out", str(out)]) == 0
    grid_rows = (tmp_path / "g.grid.txt").read_text().strip().splitlines()
    assert len(grid_rows) == 11


def _one_line_usage_error(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("tropalg: error:")
    assert err.count("\n") == 1
    return err


def test_fit_non_numeric_slope_file_is_usage_error(line_csv, tmp_path, capsys):
    slopes = tmp_path / "slopes.txt"
    slopes.write_text("1\nsteep\n", encoding="utf-8")
    rc = main(["fit", str(line_csv), "--slopes", str(slopes), "--out", str(tmp_path / "sf")])
    _one_line_usage_error(rc, capsys)


def test_fit_non_utf8_slope_file_is_usage_error(line_csv, tmp_path, capsys):
    slopes = tmp_path / "slopes.txt"
    slopes.write_bytes(b"1\n\xff\n")
    rc = main(["fit", str(line_csv), "--slopes", str(slopes), "--out", str(tmp_path / "sf")])
    assert _one_line_usage_error(rc, capsys) == f"tropalg: error: {slopes}: not UTF-8 text (invalid start byte)\n"


def test_fit_ragged_slope_file_is_usage_error(tmp_path, capsys):
    data = tmp_path / "plane.csv"
    data.write_text("x,y,z\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n", encoding="utf-8")
    slopes = tmp_path / "slopes.txt"
    slopes.write_text("1 0\n1\n", encoding="utf-8")
    rc = main(["fit", str(data), "--slopes", str(slopes), "--out", str(tmp_path / "sf")])
    _one_line_usage_error(rc, capsys)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf", "1e400"])
def test_fit_non_finite_slope_file_names_its_line(line_csv, tmp_path, capsys, entry):
    slopes = tmp_path / "slopes.txt"
    slopes.write_text(f"1\n\n{entry}\n", encoding="utf-8")
    rc = main(["fit", str(line_csv), "--slopes", str(slopes), "--out", str(tmp_path / "sf")])
    assert _one_line_usage_error(rc, capsys) == f"tropalg: error: {slopes}:3: non-finite slope entry in {entry!r}\n"
    assert list(tmp_path.glob("sf.*")) == []


@pytest.mark.parametrize("table, rows, got, want", [
    ("x,f\n0,1\n1,2\n2,4\n", "1 0\n0 1\n", 2, 1),
    ("x,y,f\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n", "1 0 2\n", 3, 2),
], ids=["wider", "widest"])
def test_fit_slope_file_of_another_width_names_it(tmp_path, capsys, table, rows, got, want):
    data = tmp_path / "data.csv"
    data.write_text(table, encoding="utf-8")
    slopes = tmp_path / "slopes.txt"
    slopes.write_text(rows, encoding="utf-8")
    rc = main(["fit", str(data), "--slopes", str(slopes), "--out", str(tmp_path / "sf")])
    assert _one_line_usage_error(rc, capsys) == (
        f"tropalg: error: {slopes}: slope vectors and samples disagree on dimension ({got} against {want})\n")


def test_fit_negative_grid_rejected_before_output(line_csv, tmp_path, capsys):
    out = tmp_path / "g"
    rc = main(["fit", str(line_csv), "--slopes", "line", "--grid", "-1", "--out", str(out)])
    _one_line_usage_error(rc, capsys)
    assert list(tmp_path.glob("g.*")) == []


def test_fit_non_numeric_theta_is_usage_error(line_csv, tmp_path, capsys):
    rc = main(["fit", str(line_csv), "--clodum", "max-softmin:θ=abc", "--out", str(tmp_path / "t")])
    _one_line_usage_error(rc, capsys)


def test_fit_overflowing_derivative_is_usage_error(tmp_path, capsys):
    data = tmp_path / "ov.csv"
    data.write_text("x,y\n0,0\n1e-300,1e10\n1,1\n2,3\n3,6\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["fit", str(data), "--slopes", "auto:2", "--out", str(tmp_path / "ov")])
    assert "samples 0 and 1" in _one_line_usage_error(rc, capsys)


@pytest.mark.parametrize("scale, target, named", [
    (1.0, 1.7e308, "gradient at sample"),  # the local fits overflow
])
def test_fit_overflowing_nd_samples_is_usage_error(tmp_path, capsys, scale, target, named):
    x = np.random.default_rng(0).uniform(-1, 1, (30, 2)) * scale
    f = x[:, 0] * 0.0 if target is None else np.where(np.arange(30) % 2, target, -target)
    data = tmp_path / "samples.csv"
    rows = "\n".join(f"{float(a)!r},{float(b)!r},{float(c)!r}" for (a, b), c in zip(x, f))
    data.write_text("x,y,f\n" + rows + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["fit", str(data), "--slopes", "auto:3", "--out", str(tmp_path / "ov2")])
    assert named in _one_line_usage_error(rc, capsys)
    assert list(tmp_path.glob("ov2.*")) == []


@pytest.mark.parametrize("scale, f_scale", [(2.0**600, 2.0**600), (1.5e308, 1.0)],
                         ids=["2**600", "1.5e308"])
def test_fit_widely_spread_nd_samples(tmp_path, capsys, scale, f_scale):
    # neighbour distances beyond ~1.3e154 overflow when squared, so do the
    # squared residuals of f * 2^600, and at 1.5e308 the grid's range
    # overflows; each fits, with finite errors, and writes every file
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (30, 2))
    f = np.abs(x[:, 0]) + np.abs(x[:, 1])
    data = tmp_path / "wide.csv"
    rows = "\n".join(f"{float(a)!r},{float(b)!r},{float(c)!r}"
                     for (a, b), c in zip(x * scale, f * f_scale))
    data.write_text("x,y,f\n" + rows + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["fit", str(data), "--slopes", "auto:3", "--out", str(tmp_path / "w")])
    assert rc == 0
    report = capsys.readouterr().out
    assert "slope_source: kmeans" in report
    errors = re.findall(r"^(?:rms|linf)_error: (.*)$", report, re.MULTILINE)
    assert len(errors) == 2 and np.isfinite([float(e) for e in errors]).all()
    grid = np.loadtxt(tmp_path / "w.grid.txt")
    assert len(grid) == 101 * 101 and np.isfinite(grid).all()
    assert grid[0, :2].tolist() == [x[:, 0].min() * scale, x[:, 1].min() * scale]
    assert grid[-1, :2].tolist() == [x[:, 0].max() * scale, x[:, 1].max() * scale]


@pytest.mark.parametrize("features, argv", [
    (1, ["--slopes", "auto:2"]),
    (2, ["--slopes", "auto:2"]),
    (2, ["--sweep-k", "1:2"]),
], ids=["1-D", "2-D", "sweep"])
@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_fit_negative_seed_is_usage_error(tmp_path, capsys, features, argv, seed):
    x = np.random.default_rng(11).uniform(-1, 1, (12, features))
    data = _write_table(tmp_path / "d.csv", np.column_stack([x, np.abs(x).sum(axis=1)]))
    rc = main(["fit", str(data), "--no-header", *argv, f"--seed={seed}", "--out", str(tmp_path / "run")])
    assert _one_line_usage_error(rc, capsys) == (
        f"tropalg: error: the seed must be a non-negative integer, got {seed}\n")
    assert not list(tmp_path.glob("run*"))


# ---------------------------------------------------------------------------
# solve command


def _write_system(tmp_path):
    A = TropicalMatrix([[0, -INF], [-INF, 0], [1, 1]], MAX_PLUS)
    b = TropicalMatrix(np.zeros((3, 1)), MAX_PLUS)
    write_tropmat(tmp_path / "A.txt", A)
    write_tropmat(tmp_path / "b.txt", b)


def test_solve_identity_system(tmp_path, capsys):
    E = TropicalMatrix.identity(2, MAX_PLUS)
    write_tropmat(tmp_path / "E.txt", E)
    write_tropmat(tmp_path / "b.txt", TropicalMatrix([[1.0], [2.0]], MAX_PLUS))
    rc = main(["solve", str(tmp_path / "E.txt"), str(tmp_path / "b.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "x_hat: 1.0 2.0" in out
    assert "exact: true" in out


def test_solve_mmae_example(tmp_path, capsys):
    _write_system(tmp_path)
    rc = main(["solve", str(tmp_path / "A.txt"), str(tmp_path / "b.txt"), "--method", "mmae"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "mu: 0.5" in out
    assert "x_tilde: -0.5 -0.5" in out


def test_solve_report_deterministic(tmp_path, capsys):
    _write_system(tmp_path)
    argv = ["solve", str(tmp_path / "A.txt"), str(tmp_path / "b.txt"), "--method", "mmae",
            "--out", str(tmp_path / "report.txt")]
    assert main(argv) == 0
    first = (tmp_path / "report.txt").read_bytes()
    assert main(argv) == 0
    assert first == (tmp_path / "report.txt").read_bytes()
    capsys.readouterr()


def test_solve_dimension_mismatch_exit_2(tmp_path, capsys):
    _write_system(tmp_path)
    write_tropmat(tmp_path / "b2.txt", TropicalMatrix(np.zeros((2, 1)), MAX_PLUS))
    rc = main(["solve", str(tmp_path / "A.txt"), str(tmp_path / "b2.txt")])
    assert rc == 2


def test_solve_non_numeric_theta_header_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "M.txt"
    bad.write_text("tropmat 1 1 max-softmin:theta=zz\n0\n", encoding="utf-8")
    rc = main(["solve", str(bad), str(bad)])
    _one_line_usage_error(rc, capsys)


@pytest.mark.parametrize("which", ["A.txt", "b.txt"])
def test_solve_non_utf8_file_is_usage_error(tmp_path, capsys, which):
    _write_system(tmp_path)
    bad = tmp_path / which
    bad.write_bytes(bad.read_bytes().replace(b"0.0", b"0.\xff", 1))
    rc = main(["solve", str(tmp_path / "A.txt"), str(tmp_path / "b.txt")])
    assert _one_line_usage_error(rc, capsys) == f"tropalg: error: {bad}: not UTF-8 text (invalid start byte)\n"


def test_solve_mmae_refused_off_maxplus(tmp_path, capsys):
    write_tropmat(tmp_path / "M.txt", TropicalMatrix([[0.5]], __import__("tropalg").MAX_MIN))
    write_tropmat(tmp_path / "c.txt", TropicalMatrix([[0.5]], __import__("tropalg").MAX_MIN))
    rc = main(["solve", str(tmp_path / "M.txt"), str(tmp_path / "c.txt"), "--method", "mmae"])
    assert rc == 2
    assert "max-plus" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval and polytope commands


def test_eval_at_point(tmp_path, capsys):
    poly = tmp_path / "p.txt"
    poly.write_text("troppoly max max-plus\n1.0 | -2.0\n0.0 | 3.0\n", encoding="utf-8")
    rc = main(["eval", str(poly), "--at", "10"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "10.0 8.0"


def test_eval_at_negative_first_coordinate_takes_the_equals_form(tmp_path, capsys):
    poly = tmp_path / "p.txt"
    poly.write_text("troppoly max max-plus\n1.0 0.0 | -2.0\n0.0 1.0 | 3.0\n", encoding="utf-8")
    rc = main(["eval", str(poly), "--at=-0.5,0.25"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "-0.5 0.25 3.25"


@pytest.mark.parametrize("at", ["-0.5,0.25", "-1", "-inf,2", "-x"])
def test_eval_at_with_a_space_equals_the_equals_form(tmp_path, capsys, at):
    # a value after a space that starts with a dash is the point, not an
    # option: the same exit, output and one-line error as --at=<value>
    poly = tmp_path / "p.txt"
    poly.write_text("troppoly max max-plus\n1.0 0.0 | -2.0\n0.0 1.0 | 3.0\n", encoding="utf-8")
    runs = []
    for argv in (["--at", at], [f"--at={at}"]):
        rc = main(["eval", str(poly), *argv])
        runs.append((rc, *capsys.readouterr()))
    assert runs[0] == runs[1]
    if at == "-0.5,0.25":
        assert runs[0] == (0, "-0.5 0.25 3.25\n", "")
    else:
        assert runs[0][0] == 2 and runs[0][1] == "" and runs[0][2].count("\n") == 1


def test_eval_takes_at_or_data_not_both(tmp_path, capsys, line_csv):
    poly = tmp_path / "p.txt"
    poly.write_text(_LINE_POLY, encoding="utf-8")
    rc = main(["eval", str(poly), "--at", "1", "--data", str(line_csv)])
    assert _one_line_usage_error(rc, capsys) == (
        "tropalg: error: --at and --data cannot be combined: eval takes one point or one dataset\n")


def test_eval_non_numeric_point_is_usage_error(tmp_path, capsys):
    poly = tmp_path / "p.txt"
    poly.write_text("troppoly max max-plus\n1.0 0.0 | -2.0\n", encoding="utf-8")
    rc = main(["eval", str(poly), "--at", "1,x"])
    _one_line_usage_error(rc, capsys)


@pytest.mark.parametrize("which", ["poly", "data"])
def test_eval_non_utf8_file_is_usage_error(tmp_path, capsys, which):
    files = {"poly": tmp_path / "p.txt", "data": tmp_path / "d.csv"}
    files["poly"].write_bytes(b"troppoly max max-plus\n1 | 0\n")
    files["data"].write_bytes(b"x,y\n1,2\n")
    files[which].write_bytes(files[which].read_bytes() + b"\xc3\n")
    rc = main(["eval", str(files["poly"]), "--data", str(files["data"])])
    err = _one_line_usage_error(rc, capsys)
    assert err.startswith(f"tropalg: error: {files[which]}: not UTF-8 text")


def test_eval_over_dataset(tmp_path, capsys, line_csv):
    poly = tmp_path / "p.txt"
    poly.write_text("troppoly max max-plus\n1.0 | -2.0\n0.0 | 3.0\n", encoding="utf-8")
    rc = main(["eval", str(poly), "--data", str(line_csv)])
    assert rc == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 40


def _eval_data(tmp_path, capsys, poly_text, table, *extra):
    poly = tmp_path / "p.txt"
    poly.write_text(poly_text, encoding="utf-8")
    path = _write_table(tmp_path / "pts.csv", table)
    rc = main(["eval", str(poly), "--data", str(path), "--no-header", *extra])
    return rc, capsys.readouterr()


_LINE_POLY = "troppoly max max-plus\n1.0 | -2.0\n0.0 | 3.0\n"
_PLANE_POLY = "troppoly max max-plus\n1.0 0.0 | -2.0\n0.5 1.5 | 0.25\n0.0 0.0 | 1.0\n"


def test_eval_data_one_column_is_points_only(tmp_path, capsys):
    x = np.linspace(-2, 9, 7)[:, None]
    rc, (out, err) = _eval_data(tmp_path, capsys, _LINE_POLY, x)
    assert (rc, err) == (0, "")
    assert out == _table_text(x, np.maximum(x[:, 0] - 2, 3.0))


def test_eval_data_as_wide_as_the_polynomial_is_points_only(tmp_path, capsys):
    pts = np.random.default_rng(2).uniform(-3, 3, (9, 2))
    rc, (out, err) = _eval_data(tmp_path, capsys, _PLANE_POLY, pts)
    assert (rc, err) == (0, "")
    assert out == _table_text(pts, read_polynomial(tmp_path / "p.txt").evaluate(pts))


def test_eval_data_one_column_wider_drops_the_target(tmp_path, capsys):
    # the last column is the target, read as a dataset's features are
    table = np.random.default_rng(3).uniform(-3, 3, (9, 3))
    rc, (out, err) = _eval_data(tmp_path, capsys, _PLANE_POLY, table)
    assert (rc, err) == (0, "")
    pts = ingest_csv(tmp_path / "pts.csv", has_header=False).features
    assert out == _table_text(pts, read_polynomial(tmp_path / "p.txt").evaluate(pts))
    assert _eval_data(tmp_path, capsys, _PLANE_POLY, table, "--target", "col3")[1].out == out


@pytest.mark.parametrize("width", [1, 4])
def test_eval_data_of_another_width_is_usage_error(width, tmp_path, capsys):
    rc, (out, err) = _eval_data(tmp_path, capsys, _PLANE_POLY, np.ones((3, width)))
    assert (rc, out) == (2, "")
    assert err == (f"tropalg: error: {tmp_path / 'pts.csv'}: {width} columns, but a polynomial of "
                   "dimension 2 takes 2 (points) or 3 (points, then a target)\n")


def test_polytope_command_reference(tmp_path, capsys):
    p1 = tmp_path / "p1.txt"
    p1.write_text("troppoly max max-plus\n1 1 | 0\n3 1 | 0\n1 2 | 0\n", encoding="utf-8")
    p2 = tmp_path / "p2.txt"
    p2.write_text("troppoly max max-plus\n0 0 | 0\n-1 0 | 0\n0 1 | 0\n-1 1 | 0\n", encoding="utf-8")
    rc = main(["polytope", str(p1), str(p2)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "newton[0].vertices: 3" in out
    assert "newton[1].vertices: 4" in out
    assert "join.vertices:" in out
    assert "minkowski_sum.vertices:" in out


def test_polytope_high_dimension_notice(tmp_path, capsys):
    p = tmp_path / "p3.txt"
    p.write_text("troppoly max max-plus\n1 0 0 | 0\n0 1 0 | 0\n", encoding="utf-8")
    rc = main(["polytope", str(p)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "notice" in out
    assert "generator[1]" in out


def test_polytope_command_matches_library_on_random_files(tmp_path, capsys):
    rng = np.random.default_rng(61)
    from tropalg import (
        TropicalPolynomial,
        newton_polytope,
        polytope_join,
        polytope_minkowski_sum,
        write_polynomial,
    )

    for trial in range(5):
        polys = []
        for name in ("a.txt", "b.txt"):
            k = int(rng.integers(2, 6))
            poly = TropicalPolynomial(rng.integers(-4, 5, (k, 2)).astype(float),
                                      rng.integers(-3, 4, k).astype(float))
            write_polynomial(tmp_path / name, poly)
            polys.append(poly)
        assert main(["polytope", str(tmp_path / "a.txt"), str(tmp_path / "b.txt")]) == 0
        out = capsys.readouterr().out

        def printed(label):
            rows = [ln.split(": ")[1] for ln in out.splitlines()
                    if ln.startswith(f"{label}.vertex[")]
            return np.array([[float(t) for t in r.split()] for r in rows])

        n1, n2 = newton_polytope(polys[0]), newton_polytope(polys[1])
        np.testing.assert_array_equal(printed("join"), polytope_join(n1, n2).hull_vertices)
        np.testing.assert_array_equal(
            printed("minkowski_sum"), polytope_minkowski_sum(n1, n2).hull_vertices
        )


def test_polytope_non_utf8_file_is_usage_error(tmp_path, capsys):
    good, bad = tmp_path / "p.txt", tmp_path / "q.txt"
    good.write_bytes(b"troppoly max max-plus\n1 0 | 0\n0 1 | 0\n")
    bad.write_bytes(b"troppoly max max-plus\n1 0 | \xff0\n")
    rc = main(["polytope", str(good), str(bad)])
    assert _one_line_usage_error(rc, capsys) == f"tropalg: error: {bad}: not UTF-8 text (invalid start byte)\n"


def test_polytope_tol_drops_nearly_collinear_vertices(tmp_path, capsys):
    # the term 1.25 -1e-9 lies just outside the edge from 0 0 to 2.5 0
    p = tmp_path / "p.txt"
    p.write_text("troppoly max max-plus\n0 0 | 0\n2.5 0 | 0\n1.25 -1e-09 | 0\n1.25 1 | 0\n",
                 encoding="utf-8")
    assert main(["polytope", str(p)]) == 0
    assert "newton[0].vertices: 4" in capsys.readouterr().out.splitlines()
    assert main(["polytope", str(p), "--tol", "1e-6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == ["newton[0].vertices: 3", "newton[0].vertex[0]: 0.0 0.0",
                         "newton[0].vertex[1]: 2.5 0.0", "newton[0].vertex[2]: 1.25 1.0"]


@pytest.mark.parametrize("tol", ["-1", "nan", "-1e-300"])
@pytest.mark.parametrize("command", ["solve", "polytope"])
def test_negative_or_nan_tolerance_is_usage_error(tmp_path, capsys, command, tol):
    _write_system(tmp_path)
    p = tmp_path / "p.txt"
    p.write_text("troppoly max max-plus\n0 0 | 0\n1 0 | 0\n2 0 | 0\n1 0.1 | 0\n1 1 | 0\n", encoding="utf-8")
    args = {"solve": [str(tmp_path / "A.txt"), str(tmp_path / "b.txt")], "polytope": [str(p)]}[command]
    rc = main([command, *args, f"--tol={tol}"])
    assert _one_line_usage_error(rc, capsys) == (
        f"tropalg: error: --tol must be a non-negative number, got {float(tol)!r}\n")


def test_single_term_polytope(tmp_path, capsys):
    p = tmp_path / "p1.txt"
    p.write_text("troppoly max max-plus\n2 5 | 1\n", encoding="utf-8")
    rc = main(["polytope", str(p)])
    assert rc == 0
    assert "newton[0].vertices: 1" in capsys.readouterr().out


def test_missing_file_nonzero_exit(capsys):
    rc = main(["solve", "/nonexistent/A.txt", "/nonexistent/b.txt"])
    assert rc != 0


# ---------------------------------------------------------------------------
# end-to-end experiment flows


def test_fit_convex_benchmark_end_to_end(tmp_path, capsys):
    # 100 clean samples of max(-6x-6, x/2, x^5/5 + x/2), six auto slopes
    x = np.linspace(-2, 2, 100)
    f = np.maximum.reduce([-6 * x - 6, x / 2, x**5 / 5 + x / 2])
    data = tmp_path / "bench.csv"
    data.write_text(
        "x,f\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, f)) + "\n",
        encoding="utf-8",
    )
    rc = main(["fit", str(data), "--method", "mmae", "--slopes", "auto:6",
               "--out", str(tmp_path / "bench")])
    assert rc == 0
    out = capsys.readouterr().out
    linf = float([ln for ln in out.splitlines() if ln.startswith("linf_error:")][0].split()[1])
    assert linf == pytest.approx(0.0966, abs=0.025)


def test_fit_half_circle_with_slope_file(tmp_path, capsys):
    x = np.array([-5.5, -2.0, 1.5, 4.0, 6.5])
    y = 10.0 - np.sqrt(49.0 - x**2)
    data = tmp_path / "halfcircle.csv"
    data.write_text(
        "x,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n",
        encoding="utf-8",
    )
    slopes = tmp_path / "slopes.txt"
    slopes.write_text("".join(f"{k}\n" for k in range(-3, 4)), encoding="utf-8")
    rc = main(["fit", str(data), "--slopes", str(slopes), "--method", "gle",
               "--out", str(tmp_path / "hc")])
    assert rc == 0
    out = capsys.readouterr().out
    linf = float([ln for ln in out.splitlines() if ln.startswith("linf_error:")][0].split()[1])
    assert linf == pytest.approx(0.12, abs=0.02)


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # scipy.optimize (polytope comparison in dimension >= 3) loads on first
    # use; importing the CLI, a 2-D auto:K fit and a sweep load no scipy module
    import tropalg

    src = str(Path(tropalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    data = _duplicated_points_csv(tmp_path)
    code = ("import contextlib, io, sys, tropalg.cli\n"
            "def loaded(): return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "print(loaded())\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [tropalg.cli.main(['fit', sys.argv[1], '--slopes', 'auto:4', '--out', sys.argv[2]]),\n"
            "             tropalg.cli.main(['fit', sys.argv[1], '--sweep-k', '1:3'])]\n"
            "print(codes, loaded())\n")
    out = subprocess.run([sys.executable, "-c", code, str(data), str(tmp_path / "run")], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.splitlines() == ["[]", "[0, 0] []"]


def test_package_exports_each_modules_public_names():
    # tropalg.__all__ is the six modules' own __all__, each name once, and
    # each package name is the module's object
    import tropalg

    modules = [tropalg.clodum, tropalg.wlattice, tropalg.solver, tropalg.tropgeom, tropalg.regression,
               tropalg.formats]
    names = tropalg.__all__
    assert len(names) == len(set(names))
    assert set(names) == set().union(*(m.__all__ for m in modules))
    for m in modules:
        for name in m.__all__:
            assert getattr(tropalg, name) is getattr(m, name), name


# ---------------------------------------------------------------------------
# one parser per process, no state across calls


def test_main_does_not_build_a_parser(monkeypatch, line_csv, tmp_path, capsys):
    def build_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(tropalg.cli, "build_parser", build_parser)
    assert main(["fit", str(line_csv), "--out", str(tmp_path / "run")]) == 0
    assert "slope_source" in capsys.readouterr().out


@pytest.mark.parametrize("command, argv", [
    ("fit", ["fit", "d.csv"]),
    ("solve", ["solve", "A.txt", "b.txt"]),
    ("eval", ["eval", "p.txt", "--at", "1"]),
    ("polytope", ["polytope", "p.txt"]),
])
def test_main_runs_the_handler_the_module_holds_now(monkeypatch, command, argv):
    # a wrapper set on the module after import (a tracer, a test double) runs
    seen = []
    monkeypatch.setattr(tropalg.cli, f"run_{command}", lambda args: seen.append(args.command) or 0)
    assert main(argv) == 0
    assert seen == [command]

def test_consecutive_main_calls_share_no_state(line_csv, tmp_path, capsys):
    out = tmp_path / "run"

    def plain_fit():
        assert main(["fit", str(line_csv), "--out", str(out)]) == 0
        files = [Path(f"{out}.{s}.txt").read_bytes() for s in ("report", "model", "grid", "residuals")]
        return capsys.readouterr().out, files

    first = plain_fit()
    assert "method: gle" in first[0]
    assert main(["fit", str(line_csv), "--sweep-k", "1:3", "--method", "mmae", "--seed", "4"]) == 0
    assert "sweep: 1:3" in capsys.readouterr().out
    assert plain_fit() == first
    _write_system(tmp_path)
    assert main(["solve", str(tmp_path / "A.txt"), str(tmp_path / "b.txt"), "--method", "mmae",
                 "--tol", "0.5", "--out", str(tmp_path / "solve.txt")]) == 0
    assert "mu: 0.5" in capsys.readouterr().out
    assert plain_fit() == first


def test_fit_formatting_error_leaves_no_output(monkeypatch, line_csv, tmp_path, capsys):
    def residual_table(report, data):
        raise TropicalError("cannot format the residuals")

    monkeypatch.setattr(tropalg.cli, "_residual_table", residual_table)
    rc = main(["fit", str(line_csv), "--out", str(tmp_path / "run")])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (2, "", "tropalg: error: cannot format the residuals\n")
    assert not list(tmp_path.glob("run*"))


_SLOPE_TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0.0", "1_0", "\u0661", "x", ""]),
)


@settings(max_examples=60, deadline=None)
@given(dims=st.sampled_from([1, 2]),
       rows=st.lists(st.lists(_SLOPE_TOKENS, max_size=3).map(" ".join), max_size=4))
def test_fit_random_slope_files_exit_0_or_2(dims, rows):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "d.csv"
        x = np.linspace(-1, 2, 12)
        table = np.column_stack([x, np.abs(x)]) if dims == 1 else np.column_stack([x, x[::-1], x**2])
        data.write_text("\n".join(",".join(map(repr, r)) for r in table.tolist()) + "\n",
                        encoding="utf-8")
        slopes = Path(tmp) / "slopes.txt"
        slopes.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            rc = main(["fit", str(data), "--no-header", "--slopes", str(slopes),
                       "--method", "mmae", "--out", str(Path(tmp) / "run")])
        assert rc in (0, 2)
        assert (rc == 2) == err.getvalue().startswith("tropalg: error:")


# ---------------------------------------------------------------------------
# read errors name their file


@pytest.mark.parametrize("argv, bad, text, message", [
    (["solve", "{bad}", "{b}"], "A.txt", "tropmat 1 2 max-plus\n0 x\n",
     "bad tropmat entry: could not convert string to float: 'x'"),
    (["solve", "{A}", "{bad}"], "b.txt", "tropmat 2 1 max-plus\n0\nx\n",
     "bad tropmat entry: could not convert string to float: 'x'"),
    (["solve", "{bad}", "{b}"], "A.txt", "tropmat 1 2 max-plus\n0 nan\n",
     "NaN is not an element of the max-plus carrier: row 0, column 1"),
    (["solve", "{A}", "{bad}"], "b.txt", "tropmat 2 2 max-plus\n0 1\n2 3\n",
     "expected a vector-shaped tropmat, got 2x2"),
    (["eval", "{bad}", "--at", "1"], "p.txt", "troppoly max max-plus\nfoo\n",
     "term line missing '|' separator: 'foo'"),
    (["polytope", "{p}", "{bad}"], "q.txt", "troppoly max max-min\n1 | 2\n",
     "max-min carrier is [0, 1]; got a value outside it: line 2, intercept 2.0"),
    (["polytope", "{p}", "{bad}"], "q.txt", "troppoly max max-min\n| -1\n| nan\n",
     "NaN is not an element of the max-min carrier: line 3, intercept nan"),
], ids=["tropmat-matrix", "tropmat-rhs", "tropmat-carrier", "tropvec-shape", "troppoly-eval",
        "troppoly-polytope", "troppoly-nan"])
def test_read_errors_name_the_file(argv, bad, text, message, tmp_path, capsys):
    files = {"A": tmp_path / "A.txt", "b": tmp_path / "b.txt", "p": tmp_path / "p.txt"}
    write_tropmat(files["A"], TropicalMatrix([[0.0, 1.0]], MAX_PLUS))
    write_tropmat(files["b"], TropicalMatrix([[2.0]], MAX_PLUS))
    files["p"].write_text(_LINE_POLY, encoding="utf-8")
    (tmp_path / bad).write_text(text, encoding="utf-8")
    rc = main([a.format(bad=tmp_path / bad, **files) for a in argv])
    assert _one_line_usage_error(rc, capsys) == f"tropalg: error: {tmp_path / bad}: {message}\n"


def test_read_errors_keep_their_type(tmp_path):
    path = tmp_path / "M.txt"
    path.write_text("tropmat 1 1 max-min\n2\n", encoding="utf-8")
    with pytest.raises(CarrierError, match=f"^{re.escape(str(path))}: max-min carrier"):
        read_tropvec(path)
    path.write_bytes(b"tropmat 1 1 max-plus\n\xff\n")
    with pytest.raises(TropicalError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
        read_tropmat(path)


# ---------------------------------------------------------------------------
# outputs are all or nothing


def test_fit_blocked_output_leaves_no_file(line_csv, tmp_path, capsys):
    (tmp_path / "run.grid.txt").mkdir()
    rc = main(["fit", str(line_csv), "--out", str(tmp_path / "run")])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err == f"tropalg: error: [Errno 21] Is a directory: '{tmp_path / 'run.grid.txt'}'\n"
    assert sorted(p.name for p in tmp_path.glob("run*")) == ["run.grid.txt"]


def test_fit_grid_past_memory_is_one_line_and_leaves_no_file(tmp_path, capsys):
    # 10^7 points per axis ask numpy for 728 TiB, more than any address
    # space, so the allocation fails at once; every text is built before
    # any file is written
    data = tmp_path / "plane.csv"
    data.write_text("x,y,f\n0,0,1\n1,0,2\n0,1,3\n1,1,4\n", encoding="utf-8")
    rc = main(["fit", str(data), "--slopes", "plane", "--grid", "10000000", "--out", str(tmp_path / "run")])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err.startswith("tropalg: error: Unable to allocate") and err.count("\n") == 1
    assert list(tmp_path.glob("run*")) == []


def test_fit_outputs_replace_old_files_and_leave_no_temporaries(line_csv, tmp_path, capsys):
    target = tmp_path / "target.model.txt"
    target.write_text("old\n", encoding="utf-8")
    (tmp_path / "run.model.txt").symlink_to(target)
    (tmp_path / "run.report.txt").write_text("old\n", encoding="utf-8")
    assert main(["fit", str(line_csv), "--out", str(tmp_path / "run")]) == 0
    out = capsys.readouterr().out
    assert (tmp_path / "run.report.txt").read_text(encoding="utf-8") == out
    assert (tmp_path / "run.model.txt").is_symlink()  # written through the link
    assert target.read_text(encoding="utf-8").startswith("troppoly max max-plus\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "line.csv", "run.grid.txt", "run.model.txt", "run.report.txt", "run.residuals.txt",
        "target.model.txt"]


@pytest.mark.parametrize("command", ["solve", "eval", "polytope"])
def test_single_output_commands_write_all_or_nothing(command, tmp_path, capsys):
    _write_system(tmp_path)
    (tmp_path / "p.txt").write_text(_LINE_POLY, encoding="utf-8")
    args = {"solve": [str(tmp_path / "A.txt"), str(tmp_path / "b.txt")],
            "eval": [str(tmp_path / "p.txt"), "--at", "1"],
            "polytope": [str(tmp_path / "p.txt")]}[command]
    missing = tmp_path / "no" / "out.txt"
    rc = main([command, *args, "--out", str(missing)])
    out, err = capsys.readouterr()
    assert (rc, out) == (1, "")
    assert err == f"tropalg: error: [Errno 2] No such file or directory: '{missing}'\n"
    assert main([command, *args, "--out", str(tmp_path / "out.txt")]) == 0
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == capsys.readouterr().out
    assert not list(tmp_path.glob("*.tmp"))
    # a device is written in place, never replaced by a regular file
    assert main([command, *args, "--out", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


# ---------------------------------------------------------------------------
# warnings reach the reports, not stderr


def _duplicated_points_csv(tmp_path):
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, (60, 2))
    x[:12] = x[0]
    f = np.abs(x[:, 0]) + np.abs(x[:, 1])
    path = tmp_path / "dup.csv"
    path.write_text("x,y,f\n" + "".join(f"{a!r},{b!r},{c!r}\n" for a, b, c in np.column_stack([x, f]).tolist()),
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("argv, line", [
    (["--slopes", "auto:3"], "warnings: skipped 13 samples with rank-deficient neighbourhoods"),
    (["--sweep-k", "1:3"], "warnings: skipped 13 samples with rank-deficient neighbourhoods"),
])
def test_fit_skipped_neighbourhoods_reach_the_report(argv, line, tmp_path, capsys):
    data = _duplicated_points_csv(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a Python warning would fail the run
        rc = main(["fit", str(data), *argv, "--out", str(tmp_path / "run")])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert line in out.splitlines()


def test_solve_dead_columns_reach_the_report(tmp_path, capsys):
    write_tropmat(tmp_path / "A.txt", TropicalMatrix([[1.0, -INF], [3.0, -INF]], MAX_PLUS))
    write_tropmat(tmp_path / "b.txt", TropicalMatrix([[1.0], [2.0]], MAX_PLUS))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["solve", str(tmp_path / "A.txt"), str(tmp_path / "b.txt")])
    out, err = capsys.readouterr()
    assert (rc, err) == (0, "")
    assert "note: columns [1] of A are entirely bottom; solution components set to top" in out.splitlines()


def test_a_command_leaves_the_warnings_of_other_threads_alone(monkeypatch, tmp_path, capsys):
    # a solve is held inside run_solve in a second thread while the main
    # thread sets its own showwarning hook and warns: the warning reaches
    # that hook, and the hook is still in place once the command returns
    write_tropmat(tmp_path / "A.txt", TropicalMatrix([[1.0, -INF], [3.0, -INF]], MAX_PLUS))
    write_tropmat(tmp_path / "b.txt", TropicalMatrix([[1.0], [2.0]], MAX_PLUS))
    inside, warned = threading.Event(), threading.Event()
    run_solve = tropalg.cli.run_solve

    def held(args):
        inside.set()
        assert warned.wait(30)
        return run_solve(args)

    monkeypatch.setattr(tropalg.cli, "run_solve", held)
    codes, shown = [], []

    def hook(message, *rest):
        shown.append(str(message))

    thread = threading.Thread(target=lambda: codes.append(main(["solve", str(tmp_path / "A.txt"),
                                                                str(tmp_path / "b.txt")])))
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        thread.start()
        try:
            assert inside.wait(30)
            warnings.showwarning = hook
            warnings.warn("a warning of the main thread")
        finally:
            warned.set()
            thread.join(30)
        assert not thread.is_alive()
        assert warnings.showwarning is hook
    assert codes == [0]
    assert shown == ["a warning of the main thread"]
    out, err = capsys.readouterr()
    assert err == ""
    assert "note: columns [1] of A are entirely bottom; solution components set to top" in out.splitlines()


def _no_catch_warnings(*args, **kwargs):
    raise AssertionError("warnings.catch_warnings was entered")


def test_readers_and_commands_never_swap_the_warning_filters(monkeypatch, tmp_path, capsys):
    # every reader, on regular and blank-led bodies, and every command case
    # runs with warnings.catch_warnings refused
    files = {
        "A.txt": "tropmat 3 2 max-plus\n1 -inf\n\n \t\n3 -inf\n0 -inf\n",
        "T.txt": "tropmat 2 2 max-times\n0 1\n0 2\n",
        "b.txt": "tropmat 3 1 max-plus\n1\n2\n0\n",
        "c.txt": "tropmat 2 1 max-times\n1\n4\n",
        "empty.txt": "tropmat 2 2 max-plus\n\n  \n",
        "none.txt": "tropmat 0 3 max-plus\n",
        "p.txt": _LINE_POLY,
        "q.txt": _PLANE_POLY,
        "line.csv": "x,y\n\n\r\n" + "".join(f"{v!r},{abs(v)!r}\n" for v in np.linspace(-2, 2, 12).tolist()),
        "head.csv": "x,y\n\n",
        "slopes.txt": "1\n0\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8", newline="")
    plane = _duplicated_points_csv(tmp_path)
    path = {name: str(tmp_path / name) for name in files}
    # undone before the test ends: pytest enters catch_warnings around each phase
    with monkeypatch.context() as patch:
        patch.setattr(warnings, "catch_warnings", _no_catch_warnings)

        assert read_tropmat(path["A.txt"]).shape == (3, 2)
        assert parse_tropmat(files["A.txt"]).shape == (3, 2)
        assert read_tropvec(path["b.txt"]).values.tolist() == [1.0, 2.0, 0.0]
        assert read_tropmat(path["none.txt"]).shape == (0, 3)
        for read, arg in ((read_tropmat, path["empty.txt"]), (parse_tropmat, files["empty.txt"])):
            with pytest.raises(TropicalError, match="promises 4 entries, found 0"):
                read(arg)
        assert read_polynomial(path["q.txt"]).rank == 3
        assert ingest_csv(path["line.csv"]).num_samples == 12
        with pytest.raises(TropicalError, match="no data rows"):
            ingest_csv(path["head.csv"])
        assert tropalg.formats._read_slopes(path["slopes.txt"]).tolist() == [[1.0], [0.0]]

        out = str(tmp_path / "run")
        for argv in (
            ["fit", path["line.csv"], "--out", out],
            ["fit", path["line.csv"], "--slopes", "auto:3", "--method", "mmae", "--out", out],
            ["fit", path["line.csv"], "--slopes", path["slopes.txt"], "--out", out],
            ["fit", path["line.csv"], "--sweep-k", "1:3"],
            ["fit", str(plane), "--slopes", "auto:3", "--out", out],
            ["fit", str(plane), "--sweep-k", "1:3", "--seed", "2"],
            ["fit", str(plane), "--out", out],
            ["solve", path["A.txt"], path["b.txt"]],
            ["solve", path["A.txt"], path["b.txt"], "--method", "mmae", "--tol", "0.5"],
            ["solve", path["T.txt"], path["c.txt"], "--method", "mmae"],
            ["eval", path["p.txt"], "--at", "1.5"],
            ["eval", path["p.txt"], "--data", path["line.csv"]],
            ["polytope", path["p.txt"], path["p.txt"]],
            ["polytope", path["q.txt"], path["q.txt"], "--tol", "1e-6"],
        ):
            assert main(argv) == 0, argv
            assert capsys.readouterr().err == "", argv
        for argv in (
            ["fit", path["head.csv"]],
            ["fit", path["line.csv"], "--slopes", "auto:2", "--seed", "-1"],
            ["solve", path["empty.txt"], path["b.txt"]],
            ["solve", path["A.txt"], path["b.txt"], "--tol", "nan"],
            ["polytope", path["q.txt"], "--tol", "-1"],
        ):
            _one_line_usage_error(main(argv), capsys)


# ---------------------------------------------------------------------------
# fit errors in command-line terms


def test_fit_auto_slopes_off_max_plus_names_what_works(line_csv, capsys):
    rc = main(["fit", str(line_csv), "--clodum", "max-min", "--slopes", "auto:2"])
    assert _one_line_usage_error(rc, capsys) == (
        "tropalg: error: estimated slopes are general vectors and need max-plus, not max-min; "
        "other cloda take given one-hot or zero slope rows, such as --slopes line or plane, "
        "or a slope file of such rows\n")


def test_fit_carrier_error_names_the_dataset_and_sample(tmp_path, capsys):
    data = tmp_path / "neg.csv"
    data.write_text("x,f\n0.5,0.5\n-2,0.3\n0.2,1.5\n", encoding="utf-8")
    rc = main(["fit", str(data), "--clodum", "max-min", "--slopes", "line"])
    assert _one_line_usage_error(rc, capsys) == (
        f"tropalg: error: {data}: max-min carrier is [0, 1]; got a value outside it: "
        "sample 1 (x = -2.0), f = 0.3\n")


def test_fit_grid_of_more_than_two_features_is_a_note(tmp_path, capsys):
    x = np.random.default_rng(5).uniform(-1, 1, (40, 3))
    data = _write_table(tmp_path / "d.csv", np.column_stack([x, np.abs(x).sum(axis=1)]))
    assert main(["fit", str(data), "--no-header", "--slopes", "auto:3", "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run.grid.txt").read_text(encoding="utf-8") == (
        "# grid emission supports 1 or 2 features; dataset has 3\n")


@pytest.mark.parametrize("features, argv, message", [
    (3, [], "tropalg: error: datasets with more than two features need an explicit --slopes"),
    (2, ["--slopes", "line"], "tropalg: error: --slopes line needs exactly one feature column"),
    (1, ["--slopes", "plane"], "tropalg: error: --slopes plane needs exactly two feature columns"),
    (1, ["--slopes", "auto:two"], "tropalg: error: bad slope count in 'auto:two'"),
    (1, ["--sweep-k", "3"], "error: argument --sweep-k: expected <min>:<max>, got '3'"),
    (1, ["--sweep-k", "1:x"], "error: argument --sweep-k: expected <min>:<max>, got '1:x'"),
    (1, ["--sweep-k", "0:3"], "error: argument --sweep-k: bad sweep range '0:3'"),
    (1, ["--sweep-k", "4:3"], "error: argument --sweep-k: bad sweep range '4:3'"),
], ids=["many-features", "line-width", "plane-width", "auto-count", "sweep-one-number",
        "sweep-not-a-number", "sweep-from-zero", "sweep-reversed"])
def test_fit_usage_errors_exit_2(tmp_path, capsys, features, argv, message):
    x = np.linspace(-1, 1, 12)[:, None] * np.arange(1, features + 1)
    data = _write_table(tmp_path / "d.csv", np.column_stack([x, np.abs(x).sum(axis=1)]))
    try:
        rc = main(["fit", str(data), "--no-header", *argv, "--out", str(tmp_path / "run")])
    except SystemExit as exc:  # argparse refuses the argument
        rc = exc.code
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1].endswith(message)
    assert not list(tmp_path.glob("run*"))
