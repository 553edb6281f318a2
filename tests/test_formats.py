"""Round-trips of the plain-text matrix and polynomial formats."""

import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import format_tropmat_per_element, parse_tropmat_per_token, report_value_per_element
from tropalg import (
    MAX_PLUS,
    CarrierError,
    TropicalError,
    TropicalMatrix,
    TropicalPolynomial,
    format_polynomial,
    format_tropmat,
    max_softmin,
    parse_polynomial,
    parse_tropmat,
    read_tropmat,
    write_tropmat,
)
from tropalg import formats
from tropalg.cli import _fmt

INF = float("inf")


def test_tropmat_round_trip_bit_exact():
    rng = np.random.default_rng(3)
    vals = rng.normal(0, 10, (4, 3))
    vals[0, 0] = -INF
    vals[2, 1] = INF
    A = TropicalMatrix(vals, MAX_PLUS)
    text = format_tropmat(A)
    assert text.splitlines()[0] == "tropmat 4 3 max-plus"
    B = parse_tropmat(text)
    assert np.array_equal(A.values, B.values)
    assert B.clodum == MAX_PLUS


def test_tropmat_inf_literals():
    text = "tropmat 1 3 max-plus\n-inf 0.5 inf\n"
    M = parse_tropmat(text)
    assert M.values.tolist() == [[-INF, 0.5, INF]]


def test_tropmat_header_and_count_errors():
    with pytest.raises(TropicalError):
        parse_tropmat("nope 1 1 max-plus\n0\n")
    with pytest.raises(TropicalError):
        parse_tropmat("tropmat 2 2 max-plus\n0 1 2\n")


@pytest.mark.parametrize("text", [
    "tropmat -2 -2 max-plus\n1 2 3 4\n",  # m*n > 0 despite both signs
    "tropmat -1 2 max-plus\n1 2\n",
])
def test_tropmat_negative_dimensions(tmp_path, text):
    dims = " ".join(text.split()[1:3])
    with pytest.raises(TropicalError, match=f"^bad tropmat dimensions: {dims}$"):
        parse_tropmat(text)
    path = tmp_path / "M.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(TropicalError, match=f"^{re.escape(str(path))}: bad tropmat dimensions: {dims}$"):
        read_tropmat(path)


def _tropmat_outcome(read, arg):
    try:
        M = read(arg)
    except Exception as exc:  # both readers must fail the same way
        return type(exc), str(exc)
    return M.values.shape, M.values.tobytes(), M.clodum


def _named(outcome, path):
    """The outcome of reading the same text from ``path``: an error names the file."""
    if isinstance(outcome[0], type):
        return outcome[0], f"{path}: {outcome[1]}"
    return outcome


_ENTRY = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["inf", "-inf", "Infinity", "-Infinity", "INF", "nan", "-nan", "1e500", "-1e500",
                     "5e-324", "-0.0", "+1.5", ".5", "1."]),
)
_DEFECT = st.sampled_from(["1_0", "\u0661", "#", "#1", '"2"', "1-2", "x"])  # only float() takes the first two
_SEP = st.sampled_from([" ", "  ", "\t", "\f", "\x1c", "\u3000", "\n", "\r\n", " \n\n "])


@st.composite
def _tropmat_text(draw):
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    count = m * n + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    entries = draw(st.lists(_ENTRY, min_size=max(count, 0), max_size=max(count, 0)))
    if entries and draw(st.integers(0, 2)) == 0:
        entries[draw(st.integers(0, len(entries) - 1))] = draw(_DEFECT)
    dims = draw(st.sampled_from([f"{m} {n}"] * 8 + [f"-{m} -{n}", f"{m}.0 {n}"]))
    spec = draw(st.sampled_from(["max-plus"] * 3 + ["max-times", "max-min", "max-softmin:theta=0.5", "min-plus"]))
    head = f"tropmat {dims} {spec}"
    layout = draw(st.sampled_from(["rows", "rows", "one line", "fixed width", "random"]))
    if layout == "random":  # ragged wrapping, mixed separators, header may share a line
        body = "".join(draw(_SEP) + e for e in entries)
        return head + body + draw(st.sampled_from(["", "\n"]))
    width = {"rows": max(n, 1), "one line": max(len(entries), 1),
             "fixed width": draw(st.integers(1, 3))}[layout]
    sep = draw(st.sampled_from([" ", "\t", "\f", "\x1c", "\u3000"]))
    lines = [sep.join(entries[i:i + width]) for i in range(0, len(entries), width)]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join([head, *lines]) + end


@settings(max_examples=400, deadline=None)
@given(text=_tropmat_text())
def test_tropmat_readers_match_per_token_parser(text):
    # the streamed C-tokenizer path and its per-token fallback give the bytes,
    # clodum, exception type and message of splitting the whole text
    expected = _tropmat_outcome(parse_tropmat_per_token, text)
    assert _tropmat_outcome(parse_tropmat, text) == expected
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "M.txt"
        path.write_bytes(text.encode("utf-8"))
        assert _tropmat_outcome(read_tropmat, path) == _named(expected, path)


@pytest.mark.parametrize("text, streamed", [
    ("tropmat 2 2 max-plus\n1 2\n3 4\n", True),
    ("tropmat 2 2 max-plus\r\n1 2 3 4", True),  # one line
    ("tropmat 2 3 max-plus\n\n1 2\n3 4\n  \n5 6\n", True),  # blank lines, rows of 2
    ("tropmat 2 2 max-plus\n1 2 3\n4\n", False),  # ragged wrapping
    ("tropmat 2 2 max-plus 1 2\n3 4\n", False),  # header shares a line
    ("tropmat 2 2 max-plus\n1 2\n3 1_0\n", False),
    ("tropmat 2 2 max-plus\n1 2\n3 \u0664\n", False),
    ("tropmat 2 2\nmax-plus\n1 2\n3 4\n", False),
])
def test_tropmat_stream_or_per_token(monkeypatch, text, streamed):
    calls = []
    per_token = formats._parse_tropmat_tokens
    monkeypatch.setattr(formats, "_parse_tropmat_tokens", lambda t: calls.append(t) or per_token(t))
    M = parse_tropmat(text)
    assert calls == ([] if streamed else [text])
    assert M.values.tobytes() == parse_tropmat_per_token(text).values.tobytes()


def test_read_tropmat_peak_memory_is_a_small_multiple_of_the_matrix(tmp_path):
    # the whole-file string and its token list of the per-token parse take
    # over ten times the matrix's bytes; streaming keeps no text around
    rng = np.random.default_rng(17)
    vals = rng.normal(0, 10, (300, 300))
    vals[rng.random(vals.shape) < 0.05] = -INF
    path = tmp_path / "M.txt"
    write_tropmat(path, TropicalMatrix(vals, MAX_PLUS))
    tracemalloc.start()
    try:
        M = read_tropmat(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(M.values, vals)
    assert peak < 3 * vals.nbytes


@pytest.mark.parametrize("text, shape", [
    ("tropmat 0 3 max-plus\n", (0, 3)),
    ("tropmat 2 2 max-plus\n", None),  # no entries after a streamable header
])
def test_tropmat_empty_body_raises_no_warning(tmp_path, text, shape):
    path = tmp_path / "M.txt"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for read, arg in ((parse_tropmat, text), (read_tropmat, path)):
            if shape is None:
                with pytest.raises(TropicalError, match="promises 4 entries, found 0"):
                    read(arg)
            else:
                assert read(arg).shape == shape


def test_tropmat_and_report_writers_match_per_element_writers():
    special = np.array([-0.0, 0.0, INF, -INF, 1e-300, 5e-324, -5e-324, 3.0, -17.0, 1e16, 0.1, 2.5])
    rng = np.random.default_rng(29)
    for shape in [(3, 4), (1, 12), (12, 1)]:
        A = TropicalMatrix(rng.permutation(special).reshape(shape), MAX_PLUS)
        assert format_tropmat(A) == format_tropmat_per_element(A)
    for vec in [special, special[:1], rng.permutation(special), np.arange(4.0)]:
        assert _fmt(vec) == report_value_per_element(vec)
    assert _fmt(special[2]) == report_value_per_element(special[2])


def test_tropmat_softmin_spec_string():
    A = TropicalMatrix([[0.0]], max_softmin(0.25))
    B = parse_tropmat(format_tropmat(A))
    assert B.clodum == max_softmin(0.25)


def test_polynomial_round_trip_bit_exact():
    rng = np.random.default_rng(5)
    p = TropicalPolynomial(rng.normal(0, 3, (4, 2)), rng.normal(0, 3, 4))
    q = parse_polynomial(format_polynomial(p))
    assert np.array_equal(p.slopes, q.slopes)
    assert np.array_equal(p.intercepts, q.intercepts)
    assert q.clodum == p.clodum and q.orientation == p.orientation
    pts = rng.normal(0, 2, (20, 2))
    assert np.array_equal(p.evaluate(pts), q.evaluate(pts))


def test_polynomial_format_shape():
    p = TropicalPolynomial(np.array([[1.0, 2.0]]), np.array([-INF]))
    text = format_polynomial(p)
    head, term = text.strip().splitlines()
    assert head == "troppoly max max-plus"
    assert term == "1.0 2.0 | -inf"


_POLY_TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-5, 5).map(str),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "5e-324", "-0.0", "1_0", "\u0661", "x", "|", "||", ""]),
)
_POLY_HEADS = st.sampled_from([
    "troppoly max max-plus", "troppoly min max-plus", "troppoly max max-min", "troppoly min max-times",
    "troppoly max max-softmin:0.5", "troppoly max max-softmin:x", "troppoly sideways max-plus",
    "troppoly max", "troppoly", "troppoly max max-plus extra", "tropmat 1 1 max-plus", "",
])


@settings(max_examples=300, deadline=None)
@given(head=_POLY_HEADS, terms=st.lists(st.lists(_POLY_TOKENS, max_size=4).map(" ".join), max_size=5))
def test_parse_polynomial_raises_only_tropical_error(head, terms):
    try:
        poly = parse_polynomial("\n".join([head, *terms]) + "\n")
    except TropicalError:
        return
    assert poly.slopes.shape == (len(poly.intercepts), poly.dimension)


def test_parse_polynomial_of_no_variables_off_max_plus():
    # a term with an empty slope row is a constant term over every clodum
    poly = parse_polynomial("troppoly max max-min\n| 0.5\n| 0.0\n")
    assert (poly.rank, poly.dimension) == (2, 0)
    assert poly.evaluate(np.zeros((3, 0))).tolist() == [0.5, 0.5, 0.5]


def test_polynomial_parse_errors():
    with pytest.raises(TropicalError):
        parse_polynomial("troppoly max max-plus\n1 2 3\n")  # missing separator
    with pytest.raises(TropicalError):
        parse_polynomial("troppoly max max-plus\n1 | 0\n1 2 | 0\n")  # ragged dims
    with pytest.raises(TropicalError):
        parse_polynomial("troppoly max max-plus\n")  # no terms
    # a carrier error names the first bad term by its line, blank lines counted
    with pytest.raises(CarrierError, match=r"^NaN is not .* max-min carrier: line 4, intercept nan$"):
        parse_polynomial("troppoly max max-min\n| 0.5\n\n| nan\n| 2\n")


@pytest.mark.parametrize("space", ["\x0c", "\x0b", "\x1c", "\x85", "\u2028"])
@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
def test_polynomial_lines_end_at_line_ends_only(space, end):
    # other characters str.splitlines splits at are white space inside a line
    text = f"troppoly max max-min{end}1 | 0.5{space}{end}1 | 2{end}"
    with pytest.raises(CarrierError, match=r": line 3, intercept 2\.0$"):
        parse_polynomial(text)


@pytest.mark.parametrize("text, where", [
    ("tropmat 1 2 max-plus\n0 nan\n", "row 0, column 1"),  # streamed
    ("tropmat 1 2 max-plus 0 nan\n", "row 0, column 1"),  # per token
    ("tropmat 2 3 max-min\n0 1 0.5\n1 -2 3\n", "row 1, column 1"),
])
def test_tropmat_carrier_error_names_row_and_column(text, where, tmp_path):
    with pytest.raises(CarrierError, match=f": {where}$"):
        parse_tropmat(text)
    path = tmp_path / "M.txt"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(CarrierError, match=f"^{re.escape(str(path))}: .*: {where}$"):
        read_tropmat(path)
