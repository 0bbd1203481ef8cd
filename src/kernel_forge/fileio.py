"""CSV and JSON formats for points, matrices, values, and reports.

Conventions: UTF-8, comma separator, `.` decimal point.  Point files
carry a header row naming the domain tag; raw matrices have no header.
Complex numbers are written as `re+imj` literals in matrix CSV, as
`re,im` column pairs in value CSV and as [re, im] pairs in JSON.  JSON
reports are schema-versioned under "kernel-forge/1" and serialized with
sorted keys so identical runs produce identical bytes.

Every value is converted at most once: arrays become Python floats
through one `tolist()`, a CSV cell is exactly `repr(float)`, and a
report is exactly the bytes of `json.dumps(sort_keys=True, indent=2,
allow_nan=False)` of the converted record.  A matrix equal to its
transpose bit for bit (a Gram matrix, its inverse, a Hermitian matrix's
real part) converts only the distinct values of its upper triangle and
mirrors their text (`_mirrored_reprs`), so the Brownian Gram min(s, t)
on n points costs n `repr` calls, not n^2.  This holds for CSV and for
JSON alike: `matrix_json` keeps the array, and a finite float64 one that
is bit-symmetric is written from that text, which is json's own for a
finite float; `json_value` turns it into the plain flat list of its
entries, as written for any other matrix.  `_render` writes a report
without json's pure-Python indenting encoder: it walks dicts, lists and
tuples itself, converting any other value with `json_value` as it meets
it, and each list of plain scalars (a grid, a matrix's entries off the
route above) is one type scan and one call of json's C encoder, whose
item separator carries the newline and the indent; the list is never
copied.  NaN and +-inf are not JSON: a report or header holding one
raises ValueError (`allow_nan=False`), with json's message naming the
value, instead of writing `NaN` or `Infinity`.  Readers parse a whole
matrix with `float()` first and take the per-cell route only for complex
or parenthesised cells.  Malformed input raises `ValueError` naming the
file and the line; it is never truncated.
"""

from __future__ import annotations

import functools
import json
from json.encoder import encode_basestring_ascii
from typing import Optional

import numpy as np

from .kernels import IntervalSet, SampleSet

SCHEMA = "kernel-forge/1"

_SCALAR_TAGS = ("real-line", "unit-interval")


def _data_lines(path: str):
    """(line number, stripped text) of every line that is neither blank nor a comment."""
    with open(path, "r", encoding="utf-8") as fh:
        return [
            (n, line.strip())
            for n, line in enumerate(fh, 1)
            if line.strip() and not line.startswith("#")
        ]


def _bad_cell(path: str, lineno: int, text: str) -> ValueError:
    return ValueError(f"{path}: line {lineno}: not a number in {text!r}")


def _cells(path: str, lineno: int, text: str) -> list:
    """The floats of one CSV row."""
    try:
        return [float(c) for c in text.split(",")]
    except ValueError:
        raise _bad_cell(path, lineno, text) from None


def _number(cell: str):
    """One matrix cell, parentheses allowed: a float, else a complex."""
    cell = cell.strip().strip("()")
    try:
        return float(cell)
    except ValueError:
        return complex(cell)


def _floats(a: np.ndarray) -> list:
    """Nested lists of Python floats; ints and bools become floats as float() makes them."""
    return a.astype(np.float64, copy=False).tolist()


def read_points(path: str) -> SampleSet:
    """Read a point set: header row = domain tag, one point per row.

    real-line / unit-interval: one column.  complex-disk: two columns
    (re, im).  complex-vector(d): 2d columns.  interval-set: an even
    number of columns per row, consecutive pairs forming disjoint
    intervals.  Trailing empty cells are ignored; a row with the wrong
    number of columns is an error.
    """
    lines = _data_lines(path)
    if not lines:
        raise ValueError(f"{path}: empty point file")
    tag = lines[0][1].strip(",")
    # values per point; None: any even count of pairs
    if tag in _SCALAR_TAGS:
        width = 1
    elif tag == "complex-disk":
        width = 2
    elif tag.startswith("complex-vector") or tag == "interval-set":
        width = None
    else:
        raise ValueError(f"{path}: unknown domain tag {tag!r}")
    points = []
    for n, text in lines[1:]:
        cols = _cells(path, n, text.rstrip(", \t"))
        if (len(cols) % 2 if width is None else len(cols) != width):
            need = "even" if width is None else width
            raise ValueError(
                f"{path}: line {n}: {tag} value count must be {need}, got {len(cols)} values"
            )
        if width == 1:
            points.append(cols[0])
        elif width == 2:
            points.append(complex(*cols))
        elif tag == "interval-set":
            points.append(IntervalSet(tuple(zip(cols[0::2], cols[1::2]))))
        else:
            points.append(np.array([complex(a, b) for a, b in zip(cols[0::2], cols[1::2])]))
    return SampleSet(points=points, domain=tag)


def write_points(path: str, sample: SampleSet) -> None:
    tag = sample.domain or "real-line"
    lines = [tag]
    for p in sample.points:
        if isinstance(p, IntervalSet):
            flat = [v for pair in p.intervals for v in pair]
            lines.append(",".join(repr(float(v)) for v in flat))
        else:
            arr = np.asarray(p)
            if arr.ndim == 0:
                val = complex(arr)
                if tag in _SCALAR_TAGS:
                    lines.append(repr(float(val.real)))
                else:
                    lines.append(f"{val.real!r},{val.imag!r}")
            else:
                parts = []
                for v in arr.ravel():
                    c = complex(v)
                    parts.extend((repr(c.real), repr(c.imag)))
                lines.append(",".join(parts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_values(path: str) -> np.ndarray:
    """Sample values: one column of reals, or re,im pairs for complex.

    A NaN or infinite value raises ValueError naming its file and line.
    """
    lines = _data_lines(path)
    parsed = [_cells(path, n, text) for n, text in lines]
    widths = {len(p) for p in parsed}
    table = np.array(parsed) if len(widths) == 1 else None
    if table is None or not np.isfinite(table).all():
        for (n, text), row in zip(lines, parsed):  # name the first bad line
            if not np.isfinite(row).all():
                raise ValueError(f"{path}: line {n}: NaN or infinite value in {text!r}")
    if widths == {1}:
        return table.ravel()
    if widths == {2}:
        return table.view(np.complex128).ravel()  # (re, im) pairs, bits kept
    raise ValueError(f"{path}: value rows must have one column or re,im pairs")


def format_values(arr: np.ndarray) -> str:
    """Sample values as CSV text: one real per line, or re,im per line."""
    a = np.atleast_1d(arr)
    if np.iscomplexobj(a):
        lines = map("{!r},{!r}".format, _floats(a.real), _floats(a.imag))
    else:
        lines = map(repr, _floats(a))
    return "\n".join(lines) + "\n"


def format_ints(arr: np.ndarray) -> str:
    """Integers as CSV text, one per line."""
    return "\n".join(map(str, np.asarray(arr, dtype=np.int64).tolist())) + "\n"


def read_matrix(path: str) -> np.ndarray:
    """Raw matrix CSV (no header); complex entries as re+imj literals."""
    lines = _data_lines(path)
    try:
        data = [list(map(float, text.split(","))) for _, text in lines]
        dtype = float
    except ValueError:
        # complex or parenthesised cells: one cell at a time; numpy makes
        # the array complex if any cell is
        data, dtype = [], None
        for n, text in lines:
            try:
                data.append([_number(c) for c in text.split(",")])
            except ValueError:
                raise _bad_cell(path, n, text) from None
    for (n, _), row in zip(lines, data):
        if len(row) != len(data[0]):
            raise ValueError(
                f"{path}: line {n}: {len(row)} cells, but line {lines[0][0]} has {len(data[0])}"
            )
    return np.array(data, dtype=dtype)


def _mirrored_reprs(a: np.ndarray) -> Optional[np.ndarray]:
    """The n x n object array of the `repr` text of each entry of a square
    float64 array equal to its transpose bit for bit, or None for any other
    array.  Only the distinct values of the upper triangle are converted;
    their text is mirrored.  Bits, not values, are compared, so a mirrored
    0.0/-0.0 pair gives None.
    """
    n = len(a)
    if a.shape != (n, n):
        return None
    bits = a.view(np.uint64)
    if not np.array_equal(bits, bits.T):
        return None
    upper = np.triu_indices(n)
    values, inverse = np.unique(bits[upper], return_inverse=True)
    table = np.array(list(map(repr, values.view(np.float64).tolist())), dtype=object)
    text = np.empty((n, n), dtype=object)
    text[upper] = text.T[upper] = table[inverse]
    return text


def _reprs(a: np.ndarray) -> list:
    """Rows of the `repr` text of each entry of a real 2-D array: from
    `_mirrored_reprs` when it applies, else one conversion per entry."""
    a = a.astype(np.float64, copy=False)
    text = _mirrored_reprs(a)
    if text is not None:
        return text.tolist()
    return [map(repr, row) for row in a.tolist()]


def _complex_cell(re: str, im: str) -> str:
    """`"{!r}{:+}j".format(x, y)` from `repr(x)` and `repr(y)`: `format(y, "+")`
    is `repr(y)` with one leading sign, and repr writes a negative NaN as `nan`."""
    return f"{re}{im}j" if im[0] == "-" else f"{re}+{im}j"


def format_matrix(arr: np.ndarray) -> str:
    """Matrix as headerless CSV text; complex entries as re+imj literals.

    A cell is exactly `repr(float)`, or `"{!r}{:+}j"` for complex.  A
    matrix equal to its transpose bit for bit converts each distinct value
    of its upper triangle once (`_reprs`).  A complex matrix's real and
    imaginary parts go through `_reprs` one at a time, so a Hermitian
    matrix's real part takes that route and its imaginary part does not.
    """
    a = np.atleast_2d(arr)
    if np.iscomplexobj(a):
        parts = zip(_reprs(a.real), _reprs(a.imag))
        lines = [",".join(map(_complex_cell, re, im)) for re, im in parts]
    else:
        lines = map(",".join, _reprs(a))
    return "\n".join(lines) + "\n"


def write_matrix(path: str, arr: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_matrix(arr))


def read_chain(path: str):
    """Chain file: one level per row, comma-separated real points."""
    lines = _data_lines(path)
    if lines and lines[0][1].strip(",") in _SCALAR_TAGS:
        lines = lines[1:]
    levels = [_cells(path, n, text) for n, text in lines]
    if not levels:
        raise ValueError(f"{path}: empty chain file")
    return levels


# exact types whose JSON form is the value itself
_PLAIN = frozenset((float, int, bool, str, type(None)))
# float dtypes whose tolist() yields Python floats (not longdouble, whose
# tolist() keeps numpy scalars)
_TOLIST_TYPES = (np.float64, np.float32, np.float16)
# exact types that `_render` writes without converting them first
_WALKED = _PLAIN | {dict, list, tuple}


class _Entries:
    """`matrix_json`'s entries: a matrix whose JSON form is the flat list of
    its entries, kept as the array until it is written."""

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix


def json_value(v):
    """Recursively convert numerics for JSON: complex -> [re, im]."""
    if isinstance(v, dict):
        return {k: json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [x if type(x) in _PLAIN else json_value(x) for x in v]
    if isinstance(v, IntervalSet):
        return [list(pair) for pair in v.intervals]
    if isinstance(v, _Entries):
        return json_value(v.matrix.ravel())
    if isinstance(v, np.ndarray):
        if v.dtype.kind in "biu" or v.dtype.type in _TOLIST_TYPES:
            return v.tolist()
        return [json_value(x) for x in v.tolist()]
    if isinstance(v, (np.bool_, bool)):
        return bool(v)
    if isinstance(v, (np.integer, int)):
        return int(v)
    if isinstance(v, (np.floating, float)):
        return float(v)
    if isinstance(v, (np.complexfloating, complex)):
        c = complex(v)
        return [c.real, c.imag]
    return v


def matrix_json(arr: np.ndarray, points=None) -> dict:
    """A matrix's report record: n, its flat entries and, when given, its
    points.  The entries stay the array until `_render` writes them;
    `json_value` of the record is the plain one."""
    arr = np.asarray(arr)
    doc = {"n": int(arr.shape[0]), "entries": _Entries(arr)}
    if points is not None:
        doc["points"] = [json_value(p) for p in points]
    return doc


def _record(command: str, config: dict, seed=None) -> dict:
    doc = {"schema": SCHEMA, "command": command, "config": json_value(config)}
    if seed is not None:
        doc["seed"] = int(seed)
    return doc


_encode = json.JSONEncoder(allow_nan=False).encode


def _scalar(v) -> str:
    """One value's JSON text; a NaN or +-inf raises json's error, value named."""
    try:
        return _encode(v)
    except ValueError:
        if isinstance(v, float):  # Python 3.11's C encoder leaves the value out
            raise ValueError(f"Out of range float values are not JSON compliant: {v!r}") from None
        raise


@functools.cache
def _leaf_encoder(pad: str):
    """C encoder of a list of plain scalars whose items start lines indented by pad."""
    return json.JSONEncoder(separators=(",\n" + pad, ": "), allow_nan=False).encode


def _key(k) -> str:
    """A dict key as json writes it: a str as is, a float, int, bool or None as its JSON text."""
    if not isinstance(k, str):
        if not (k is None or isinstance(k, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
        k = _scalar(k)
    return encode_basestring_ascii(k)


def _render(v, pad: str, out: list) -> None:
    """Append to out the `indent=2` JSON text of json_value(v), which starts
    on a line indented by pad; dicts, lists and tuples are walked as they
    are, so each list's item types are scanned once and it is never copied.
    A finite float64 matrix of `matrix_json` that `_mirrored_reprs` takes
    is written from that text, which is json's for a finite float."""
    if type(v) is _Entries:
        a = v.matrix
        if a.dtype == np.float64 and a.size and np.isfinite(a).all():
            text = _mirrored_reprs(a)
            if text is not None:
                inner = pad + "  "
                out.append(f"[\n{inner}" + (",\n" + inner).join(text.ravel().tolist()) + f"\n{pad}]")
                return
    if type(v) not in _WALKED:
        v = json_value(v)  # an array, a numpy or complex scalar, an IntervalSet
    kind = type(v)
    if kind is not dict and kind is not list and kind is not tuple:
        out.append(_scalar(v))
    elif not v:
        out.append("{}" if kind is dict else "[]")
    elif kind is dict:
        inner, sep = pad + "  ", "{\n"
        for k, x in sorted(v.items()):
            out.append(f"{sep}{inner}{_key(k)}: ")
            _render(x, inner, out)
            sep = ",\n"
        out.append(f"\n{pad}}}")
    elif _PLAIN.issuperset(map(type, v)):
        inner = pad + "  "
        try:
            text = _leaf_encoder(inner)(v)
        except ValueError:
            for x in v:
                _scalar(x)  # raises json's error for the first bad item
            raise
        out.append(f"[\n{inner}{text[1:-1]}\n{pad}]")
    else:
        inner, sep = pad + "  ", "[\n"
        for x in v:
            out.append(sep + inner)
            _render(x, inner, out)
            sep = ",\n"
        out.append(f"\n{pad}]")


def render_report(command: str, config: dict, payload: dict, seed=None) -> str:
    """Schema-versioned JSON report: `json.dumps(doc, sort_keys=True, indent=2,
    allow_nan=False)` byte for byte, leaf lists C-encoded."""
    doc = _record(command, config, seed)
    doc.update(payload)
    out = []
    _render(doc, "", out)
    out.append("\n")
    return "".join(out)


def config_header(command: str, config: dict) -> str:
    """One-line `# {...}` JSON header of a CSV body: schema, command, config."""
    return "# " + json.dumps(_record(command, config), sort_keys=True, allow_nan=False) + "\n"
