"""Plain-text files: every input file the package reads, and the writers of
rows of numbers and of polynomial terms.

Matrix files start with ``tropmat <m> <n> <clodum-string>`` followed by the
entries in row-major order, whitespace-separated, with ``inf``/``-inf``
literals.  Vectors are single-column matrices.  Polynomial files start with
``troppoly <orientation> <clodum-string>`` followed by one term per line:
the slope coefficients, a ``|`` separator, then the intercept.  Floats are
written with ``repr`` so re-reading reproduces them bit-exactly.  One row
writer (:func:`_row`) spells the rows of matrix files and of the command
line's tables and report vectors, and one term writer (:func:`_term_lines`)
the terms of polynomial files and of fit reports.

This module also reads the command line's other input files: numeric CSV
tables (:func:`_read_csv`) and slope files (:func:`_read_slopes`).  The
command line opens no input file itself.

A matrix or CSV document is read from an open stream.  When its layout is
regular (for a matrix: the first line is exactly the header, with positive
dimensions), numpy's C tokenizer (``np.loadtxt``, in :func:`_loadtxt`)
parses the values straight from the stream, so no whole-file string or token
list is built.  It converts each field with ``PyOS_string_to_double``, the
correctly rounded routine behind ``float()``, so the values are
bit-identical to the slow parse.  Any other layout, and any entry that
tokenizer refuses (``1_0``, non-ASCII digits, a wrong count), rewinds the
stream to the slow parser: the whole text split into tokens for a matrix,
the csv module for a table, each cell converted with ``float()``.  The slow
parsers are the only source of error messages.

Every error raised while reading a file names it: undecodable bytes, and the
parse, shape and carrier errors of a tropmat or troppoly file, which start
with ``<path>: `` and keep their type.  A carrier error also names where the
value lies, the first NaN or without one the first value outside the
carrier: the row and column of a tropmat entry, the line of a troppoly
intercept.  :func:`parse_tropmat` and :func:`parse_polynomial` read text and
name no file.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from contextlib import contextmanager, suppress

import numpy as np

from .clodum import CarrierError, Clodum, TropicalError
from .tropgeom import TropicalPolynomial
from .wlattice import TropicalMatrix, TropicalVector

__all__ = [
    "format_tropmat",
    "parse_tropmat",
    "write_tropmat",
    "read_tropmat",
    "read_tropvec",
    "format_polynomial",
    "parse_polynomial",
    "write_polynomial",
    "read_polynomial",
]


# ---------------------------------------------------------------------------
# numbers


def _row(values) -> str:
    """A row of Python floats: the ``repr`` of each, space-separated."""
    return " ".join(map(repr, values))


def _term_lines(poly: TropicalPolynomial) -> list[str]:
    """One ``a_1 ... a_n | b`` line per term of ``poly``."""
    return [f"{_row(slope)} | {intercept!r}"
            for slope, intercept in zip(poly.slopes.tolist(), poly.intercepts.tolist())]


# ---------------------------------------------------------------------------
# reading


@contextmanager
def _open_text(path, newline=None):
    """Open ``path`` as UTF-8 text; bytes that do not decode raise a
    :class:`TropicalError` naming the file."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise TropicalError(f"{path}: not UTF-8 text ({exc.reason})") from None


@contextmanager
def _naming(path):
    """Start the message of a :class:`TropicalError` raised inside with the
    file name, keeping its type."""
    try:
        yield
    except TropicalError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _loadtxt(fh, delimiter=None, ndmin=1):
    """The rest of the stream as a float array read by numpy's C tokenizer,
    or None when no line is left or the tokenizer refuses the rest
    (undecodable bytes included).

    The tokenizer skips empty lines, and without a delimiter also lines of
    white space, and warns when that leaves no data.  So the leading lines
    of that kind are skipped here instead (without a delimiter, also a blank
    line with a carriage return inside, which the tokenizer refuses and which
    holds no value for the per-token parser either), and the first other
    line is handed back to it before the rest: it always meets a line with
    data and never warns.
    """
    with suppress(ValueError):  # UnicodeDecodeError included
        for line in fh:
            if line.strip() if delimiter is None else line.strip("\r\n"):
                return np.loadtxt(itertools.chain([line], fh), delimiter=delimiter, dtype=float,
                                  comments=None, ndmin=ndmin)
    return None


# -- tropmat


def _parse_tropmat_tokens(text: str) -> tuple[np.ndarray, Clodum]:
    """The m×n entries and clodum of a tropmat text, split into tokens."""
    tokens = text.split()
    if len(tokens) < 4 or tokens[0] != "tropmat":
        raise TropicalError("not a tropmat document: expected header 'tropmat <m> <n> <clodum>'")
    try:
        m, n = int(tokens[1]), int(tokens[2])
    except ValueError as exc:
        raise TropicalError(f"bad tropmat dimensions: {tokens[1]} {tokens[2]}") from exc
    if m < 0 or n < 0:
        raise TropicalError(f"bad tropmat dimensions: {tokens[1]} {tokens[2]}")
    clodum = Clodum.parse(tokens[3])
    entries = tokens[4:]
    if len(entries) != m * n:
        raise TropicalError(f"tropmat promises {m * n} entries, found {len(entries)}")
    try:
        values = np.array([float(t) for t in entries]).reshape(m, n)
    except ValueError as exc:
        raise TropicalError(f"bad tropmat entry: {exc}") from exc
    return values, clodum


def _stream_tropmat_entries(fh):
    """The m×n entries and clodum of a regular tropmat stream, or None when
    the stream needs the per-token parser (module docstring)."""
    head = fh.readline().split()
    if len(head) != 4 or head[0] != "tropmat":
        return None
    try:
        m, n = int(head[1]), int(head[2])
    except ValueError:
        return None
    if m <= 0 or n <= 0:
        return None
    values = _loadtxt(fh)
    if values is None or values.size != m * n:
        return None
    return values.reshape(m, n), Clodum.parse(head[3])


def _read_tropmat(fh) -> TropicalMatrix:
    streamed = _stream_tropmat_entries(fh)
    if streamed is None:
        fh.seek(0)
        streamed = _parse_tropmat_tokens(fh.read())
    values, clodum = streamed
    try:
        return TropicalMatrix(values, clodum)
    except CarrierError as exc:
        i, j = clodum._first_outside(values)
        raise CarrierError(f"{exc}: row {i}, column {j}") from None


def format_tropmat(matrix: TropicalMatrix) -> str:
    m, n = matrix.shape
    lines = [f"tropmat {m} {n} {matrix.clodum.spec_string()}", *map(_row, matrix.values.tolist())]
    return "\n".join(lines) + "\n"


def parse_tropmat(text: str) -> TropicalMatrix:
    return _read_tropmat(io.StringIO(text))


def write_tropmat(path, matrix: TropicalMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_tropmat(matrix))


def read_tropmat(path) -> TropicalMatrix:
    with _open_text(path) as fh, _naming(path):
        return _read_tropmat(fh)


def read_tropvec(path) -> TropicalVector:
    """Read a tropmat file holding a single row or column as a vector."""
    mat = read_tropmat(path)
    m, n = mat.shape
    if 1 not in (m, n):
        raise TropicalError(f"{path}: expected a vector-shaped tropmat, got {m}x{n}")
    return TropicalVector(mat.values.reshape(-1), mat.clodum)


# -- troppoly


def format_polynomial(poly: TropicalPolynomial) -> str:
    lines = [f"troppoly {poly.orientation} {poly.clodum.spec_string()}", *_term_lines(poly)]
    return "\n".join(lines) + "\n"


def parse_polynomial(text: str) -> TropicalPolynomial:
    # lines end at \n, \r\n or \r only, as in a file read as text
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    numbered = [(i, ln.strip()) for i, ln in enumerate(text.split("\n"), 1) if ln.strip()]
    lines = [ln for _, ln in numbered]
    if not lines or not lines[0].startswith("troppoly"):
        raise TropicalError("not a polynomial document: expected header 'troppoly <orientation> <clodum>'")
    head = lines[0].split()
    if len(head) != 3:
        raise TropicalError(f"bad polynomial header: {lines[0]!r}")
    orientation = head[1]
    clodum = Clodum.parse(head[2])
    slopes, intercepts = [], []
    for ln in lines[1:]:
        if "|" not in ln:
            raise TropicalError(f"term line missing '|' separator: {ln!r}")
        left, right = ln.split("|", 1)
        try:
            slopes.append([float(t) for t in left.split()])
            intercepts.append(float(right))
        except ValueError as exc:
            raise TropicalError(f"bad term line {ln!r}: {exc}") from exc
    if not slopes:
        raise TropicalError("polynomial document has no terms")
    widths = {len(s) for s in slopes}
    if len(widths) != 1:
        raise TropicalError("term lines disagree on dimension")
    try:
        return TropicalPolynomial(np.array(slopes), np.array(intercepts), clodum, orientation)
    except CarrierError as exc:
        # the first term whose intercept is NaN, or without one the first
        # outside the carrier, by its line number in the text, blank lines
        # included
        k = clodum._first_outside(intercepts)[0]
        raise CarrierError(f"{exc}: line {numbered[k + 1][0]}, intercept {intercepts[k]!r}") from None


def write_polynomial(path, poly: TropicalPolynomial) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_polynomial(poly))


def read_polynomial(path) -> TropicalPolynomial:
    with _open_text(path) as fh, _naming(path):
        return parse_polynomial(fh.read())


# -- CSV tables


def _parse_cell(token: str, path: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise TropicalError(f"{path}:{lineno}: non-numeric cell {token!r}") from None
    if np.isnan(value):
        raise TropicalError(f"{path}:{lineno}: NaN is not a valid cell value")
    return value


def _has_long_line(path: str, limit: int) -> bool:
    """Whether a line of the file holds more than ``limit`` bytes.

    The file is read in blocks of ``limit`` bytes, so a line that lies inside
    one block is shorter than the limit; only the lines that cross a block
    edge are measured.
    """
    last = -1  # offset of the last line break seen
    offset = 0
    with open(path, "rb") as fh:
        while block := fh.read(max(limit, 1)):
            first = min((i for i in (block.find(b"\n"), block.find(b"\r")) if i >= 0), default=len(block))
            if offset + first - last - 1 > limit:
                return True
            if first < len(block):
                last = offset + max(block.rfind(b"\n"), block.rfind(b"\r"))
            offset += len(block)
    return False


def _stream_csv(fh, path: str, has_header: bool):
    """The header cells (or None) and the values of a regular CSV stream, or
    None when the file needs the csv-module reader.

    A regular file has no line longer than the csv module's field size limit,
    a header with no quote or NUL and a non-blank cell, and data that numpy's
    C tokenizer reads as one or more rows of header width, with no NaN.
    Without a quote the csv module splits a line at each comma, so the cells
    are those it would give.  A decode error in a later chunk also falls
    back, so that the csv-module reader can report an earlier defect first.
    """
    limit = csv.field_size_limit()
    if os.fstat(fh.fileno()).st_size > limit and _has_long_line(path, limit):
        return None
    columns = None
    if has_header:
        # with newline="", readline ends the header where the csv module
        # does; a decode error here is the one the csv module would meet first
        header = fh.readline()
        if '"' in header or "\x00" in header:
            return None
        columns = [c.strip() for c in header.split(",")]
        if all(c == "" for c in columns):
            return None
    values = _loadtxt(fh, ",", ndmin=2)
    if values is None or len(values) == 0 or (columns is not None and len(columns) != values.shape[1]):
        return None
    if np.isnan(values).any():
        return None
    return columns, values


def _read_csv_cells(fh, path: str, has_header: bool):
    """The header cells (or None) and the values of a CSV stream, read record
    by record with the csv module, each cell parsed as its row is read, so
    the first defect in file order raises; every reader error message comes
    from here.  The reader is strict, so a character after a quoted cell's
    closing quote, other than a comma or a line end, is refused rather than
    joined to the cell, and every message shows only text the file holds."""
    rows: list[list[float]] = []
    columns: list[str] | None = None
    reader = csv.reader(fh, strict=True)
    try:
        for record in reader:
            cells = [c.strip() for c in record]
            if not cells or all(c == "" for c in cells):
                continue
            if columns is None and has_header:
                columns = cells
                continue
            lineno = reader.line_num  # the record's last physical line
            row = [_parse_cell(c, path, lineno) for c in cells]
            if rows and len(row) != len(rows[0]):
                raise TropicalError(f"{path}:{lineno}: ragged row has {len(row)} cells, expected {len(rows[0])}")
            rows.append(row)
    except csv.Error as exc:
        raise TropicalError(f"{path}:{reader.line_num}: {exc}") from None
    if not rows:
        raise TropicalError(f"{path}: no data rows")
    return columns, np.array(rows)


def _read_csv(path: str, has_header: bool) -> tuple[list[str], np.ndarray]:
    """The column names (``col1``, ... without a header) and the values of a
    numeric CSV file of any width.

    Cells must parse as finite reals or ``inf``/``-inf`` literals; ragged or
    malformed rows are reported with their line number, and so are lines the
    csv module refuses (such as a cell over its field size limit).  When a
    file has several defects, the first in file order is reported.
    """
    with _open_text(path, newline="") as fh:
        streamed = _stream_csv(fh, path, has_header)
        if streamed is None:
            fh.seek(0)
            streamed = _read_csv_cells(fh, path, has_header)
    columns, values = streamed
    width = values.shape[1]
    if columns is None:
        columns = [f"col{i + 1}" for i in range(width)]
    if len(columns) != width:
        raise TropicalError(f"{path}: header has {len(columns)} names for {width} columns")
    return columns, values


# -- slope files


def _read_slopes(path) -> np.ndarray:
    """The rows of a slope file: one slope vector of finite entries per
    non-blank line."""
    rows = []
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            tokens = line.split()
            if not tokens:
                continue
            try:
                rows.append([float(t) for t in tokens])
            except ValueError:
                raise TropicalError(f"{path}:{lineno}: non-numeric slope entry in {line.strip()!r}") from None
            if not np.isfinite(rows[-1]).all():
                raise TropicalError(f"{path}:{lineno}: non-finite slope entry in {line.strip()!r}")
            if len(rows[-1]) != len(rows[0]):
                raise TropicalError(
                    f"{path}:{lineno}: ragged slope row has {len(rows[-1])} entries, expected {len(rows[0])}"
                )
    if not rows:
        raise TropicalError(f"{path}: slope file is empty")
    return np.array(rows)
