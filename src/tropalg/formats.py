"""Plain-text round-trip formats for matrices, vectors and polynomials.

Matrix files start with ``tropmat <m> <n> <clodum-string>`` followed by the
entries in row-major order, whitespace-separated, with ``inf``/``-inf``
literals.  Vectors are single-column matrices.  Polynomial files start with
``troppoly <orientation> <clodum-string>`` followed by one term per line:
the slope coefficients, a ``|`` separator, then the intercept.  Floats are
written with ``repr`` so re-reading reproduces them bit-exactly.

A matrix document is read from an open stream.  When its first line is
exactly the header, with positive dimensions, and every following non-blank
line holds the same number of entries, numpy's C tokenizer
(``np.loadtxt``) parses the entries straight from the stream, so no
whole-file string or token list is built.  It converts each field with
``PyOS_string_to_double``, the correctly rounded routine behind ``float()``,
so the values are bit-identical to the per-token parse.  Any other layout,
and any entry that tokenizer refuses (``1_0``, non-ASCII digits, a wrong
count), rewinds the stream and splits the whole text into tokens, each
converted with ``float()``; that parser is the only source of error
messages.  Undecodable bytes in any file read here raise
:class:`TropicalError` naming the file.
"""

from __future__ import annotations

import io
import warnings
from contextlib import contextmanager

import numpy as np

from .clodum import Clodum, TropicalError
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


def _fmt(value: float) -> str:
    return repr(float(value))


def format_tropmat(matrix: TropicalMatrix) -> str:
    m, n = matrix.shape
    lines = [f"tropmat {m} {n} {matrix.clodum.spec_string()}"]
    lines.extend(" ".join(map(repr, row)) for row in matrix.values.tolist())
    return "\n".join(lines) + "\n"


@contextmanager
def _open_text(path, newline=None):
    """Open ``path`` as UTF-8 text; bytes that do not decode raise a
    :class:`TropicalError` naming the file."""
    with open(path, "r", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise TropicalError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _parse_tropmat_tokens(text: str) -> TropicalMatrix:
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
    return TropicalMatrix(values, clodum)


def _stream_tropmat_entries(fh):
    """The m×n entries and clodum string of a regular tropmat stream, or
    None when the stream needs the per-token parser (module docstring)."""
    head = fh.readline().split()
    if len(head) != 4 or head[0] != "tropmat":
        return None
    try:
        m, n = int(head[1]), int(head[2])
    except ValueError:
        return None
    if m <= 0 or n <= 0:
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            values = np.loadtxt(fh, dtype=float, comments=None, ndmin=1)
    except ValueError:
        return None
    if values.size != m * n:
        return None
    return values.reshape(m, n), head[3]


def _read_tropmat(fh) -> TropicalMatrix:
    streamed = _stream_tropmat_entries(fh)
    if streamed is None:
        fh.seek(0)
        return _parse_tropmat_tokens(fh.read())
    values, spec = streamed
    return TropicalMatrix(values, Clodum.parse(spec))


def parse_tropmat(text: str) -> TropicalMatrix:
    return _read_tropmat(io.StringIO(text))


def write_tropmat(path, matrix: TropicalMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_tropmat(matrix))


def read_tropmat(path) -> TropicalMatrix:
    with _open_text(path) as fh:
        return _read_tropmat(fh)


def read_tropvec(path) -> TropicalVector:
    """Read a tropmat file holding a single row or column as a vector."""
    mat = read_tropmat(path)
    m, n = mat.shape
    if 1 not in (m, n):
        raise TropicalError(f"expected a vector-shaped tropmat, got {m}x{n}")
    return TropicalVector(mat.values.reshape(-1), mat.clodum)


def format_polynomial(poly: TropicalPolynomial) -> str:
    lines = [f"troppoly {poly.orientation} {poly.clodum.spec_string()}"]
    for slope, intercept in zip(poly.slopes, poly.intercepts):
        coeffs = " ".join(_fmt(a) for a in slope)
        lines.append(f"{coeffs} | {_fmt(intercept)}")
    return "\n".join(lines) + "\n"


def parse_polynomial(text: str) -> TropicalPolynomial:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
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
    return TropicalPolynomial(np.array(slopes), np.array(intercepts), clodum, orientation)


def write_polynomial(path, poly: TropicalPolynomial) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_polynomial(poly))


def read_polynomial(path) -> TropicalPolynomial:
    with _open_text(path) as fh:
        return parse_polynomial(fh.read())
