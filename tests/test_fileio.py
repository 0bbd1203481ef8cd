"""File formats: tagged point CSV, bare matrix CSV, JSON reports."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_forge as kf
from kernel_forge import cli, fileio


def test_points_roundtrip_real(tmp_path):
    p = tmp_path / "pts.csv"
    sample = kf.SampleSet(points=[0.5, 1.25, 3.0], domain="real-line")
    fileio.write_points(str(p), sample)
    back = fileio.read_points(str(p))
    assert back.domain == "real-line"
    assert back.points == [0.5, 1.25, 3.0]


def test_points_roundtrip_disk(tmp_path):
    p = tmp_path / "pts.csv"
    sample = kf.SampleSet(points=[0.1 + 0.2j, -0.3j], domain="complex-disk")
    fileio.write_points(str(p), sample)
    back = fileio.read_points(str(p))
    assert back.points == [0.1 + 0.2j, -0.3j]


def test_points_roundtrip_interval_set(tmp_path):
    p = tmp_path / "sets.csv"
    a = kf.IntervalSet(((0.0, 0.25), (0.5, 0.75)))
    fileio.write_points(str(p), kf.SampleSet(points=[a], domain="interval-set"))
    back = fileio.read_points(str(p))
    assert back.points[0].intervals == a.intervals


def test_points_roundtrip_complex_vectors(tmp_path):
    p = tmp_path / "vecs.csv"
    pts = [np.array([0.1 + 0.2j, 0.3]), np.array([0.0, -0.25j])]
    fileio.write_points(str(p), kf.SampleSet(points=pts, domain="complex-vector(2)"))
    back = fileio.read_points(str(p))
    np.testing.assert_array_equal(back.points[0], pts[0])
    np.testing.assert_array_equal(back.points[1], pts[1])


def test_points_unknown_tag(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("klein-bottle\n1.0\n")
    with pytest.raises(ValueError):
        fileio.read_points(str(p))


def test_matrix_roundtrip_real(tmp_path):
    p = tmp_path / "m.csv"
    m = np.array([[1.0, 0.5], [0.5, 2.0]])
    fileio.write_matrix(str(p), m)
    np.testing.assert_array_equal(fileio.read_matrix(str(p)), m)


def test_matrix_roundtrip_complex(tmp_path):
    p = tmp_path / "m.csv"
    m = np.array([[1.0 + 0j, 0.5 - 0.25j], [0.5 + 0.25j, 2.0 + 0j]])
    fileio.write_matrix(str(p), m)
    np.testing.assert_array_equal(fileio.read_matrix(str(p)), m)


def test_matrix_text_is_headerless():
    text = fileio.format_matrix(np.eye(2))
    assert text == "1.0,0.0\n0.0,1.0\n"


def test_values_roundtrip(tmp_path):
    p = tmp_path / "v.csv"
    p.write_text("1.5\n-0.25\n")
    np.testing.assert_array_equal(fileio.read_values(str(p)), [1.5, -0.25])
    p.write_text("1.0,2.0\n0.0,-1.0\n")
    np.testing.assert_array_equal(fileio.read_values(str(p)), [1 + 2j, -1j])


@pytest.mark.parametrize("row", ["nan", "inf", "-inf", "1.0,nan", "inf,0.0"])
def test_values_reject_a_non_finite_value(tmp_path, row):
    p = tmp_path / "v.csv"
    width = row.count(",") + 1
    p.write_text(",".join(["1.5"] * width) + "\n" + row + "\n")
    with pytest.raises(ValueError, match=f"v.csv: line 2: NaN or infinite value in {row!r}"):
        fileio.read_values(str(p))


def test_chain_file(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("# comment\n1.0\n1.0,2.0\n1.0,2.0,3.0\n")
    assert fileio.read_chain(str(p)) == [[1.0], [1.0, 2.0], [1.0, 2.0, 3.0]]


def test_render_report_shape():
    text = fileio.render_report("demo", {"alpha": 1}, {"value": 0.5 + 0.25j}, seed=3)
    doc = json.loads(text)
    assert doc["schema"] == "kernel-forge/1"
    assert doc["command"] == "demo"
    assert doc["seed"] == 3
    assert doc["value"] == [0.5, 0.25]
    # keys are sorted so reruns are byte-identical
    assert text == fileio.render_report("demo", {"alpha": 1}, {"value": 0.5 + 0.25j}, seed=3)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_reports_refuse_non_finite_values(bad):
    # NaN and Infinity are not JSON: the writers raise rather than emit them
    with pytest.raises(ValueError):
        fileio.render_report("demo", {}, {"value": bad})
    with pytest.raises(ValueError):
        fileio.render_report("demo", {}, {"values": np.array([0.5, complex(0.0, bad)])})
    with pytest.raises(ValueError):
        fileio.config_header("demo", {"tol": bad})


def test_json_value_handles_numpy():
    out = fileio.json_value({"a": np.float64(1.5), "b": np.arange(3), "c": np.int64(2)})
    assert out == {"a": 1.5, "b": [0, 1, 2], "c": 2}


# ---------------------------------------------------------------------------
# malformed input names the file and the line; it is never truncated


def _write(tmp_path, text):
    p = tmp_path / "in.csv"
    p.write_text(text)
    return str(p)


def test_points_extra_column_is_rejected(tmp_path):
    path = _write(tmp_path, "real-line\n0.5\n1.0,2.0\n")
    with pytest.raises(ValueError, match=r"in\.csv: line 3: .*got 2 values"):
        fileio.read_points(path)
    assert cli.run(["gram", "--kernel", "brownian-min", "--points", path]) == 2


def test_points_short_disk_row_is_rejected(tmp_path):
    path = _write(tmp_path, "complex-disk\n0.1,0.2\n\n# note\n0.3\n")
    with pytest.raises(ValueError, match=r"in\.csv: line 5: .*got 1 values"):
        fileio.read_points(path)


def test_points_non_number_is_rejected(tmp_path):
    path = _write(tmp_path, "interval-set\n0.0,0.25\n0.5,x\n")
    with pytest.raises(ValueError, match=r"in\.csv: line 3: not a number"):
        fileio.read_points(path)


def test_points_trailing_empty_cells_are_accepted(tmp_path):
    path = _write(tmp_path, "real-line,\n0.5,\n1.5,,\n2.5, ,\n")
    assert fileio.read_points(path).points == [0.5, 1.5, 2.5]
    path = _write(tmp_path, "complex-disk,,\n0.1,0.2,\n")
    assert fileio.read_points(path).points == [0.1 + 0.2j]


def test_matrix_ragged_rows_are_rejected(tmp_path):
    for text in ("1.0,2.0\n3.0,4.0\n5.0\n", "1.0,2.0j\n3.0\n"):
        path = _write(tmp_path, text)
        with pytest.raises(ValueError, match=r"in\.csv: line \d: 1 cells, but line 1 has 2"):
            fileio.read_matrix(path)
        assert cli.run(["inv", "--matrix", path]) == 2


# ---------------------------------------------------------------------------
# the one-pass writers and readers against the per-cell loops they replaced


def ref_format_matrix(arr):
    lines = []
    for row in np.atleast_2d(arr):
        cells = []
        for v in row:
            if np.iscomplexobj(arr):
                c = complex(v)
                cells.append(f"{c.real!r}{c.imag:+}j".replace("+-", "-"))
            else:
                cells.append(repr(float(v)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def ref_format_values(arr):
    lines = []
    for v in np.atleast_1d(arr):
        c = complex(v)
        if np.iscomplexobj(arr):
            lines.append(f"{c.real!r},{c.imag!r}")
        else:
            lines.append(repr(c.real))
    return "\n".join(lines) + "\n"


def ref_read_matrix(path):
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip() and not line.startswith("#")]
    data = []
    is_complex = False
    for r in rows:
        vals = []
        for cell in r.split(","):
            cell = cell.strip().strip("()")
            try:
                vals.append(float(cell))
            except ValueError:
                vals.append(complex(cell))
                is_complex = True
        data.append(vals)
    return np.array(data, dtype=complex if is_complex else float)


def ref_json_value(v):
    if isinstance(v, dict):
        return {k: ref_json_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [ref_json_value(x) for x in v]
    if isinstance(v, kf.IntervalSet):
        return [list(pair) for pair in v.intervals]
    if isinstance(v, np.ndarray):
        return [ref_json_value(x) for x in v.tolist()]
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


def ref_render_report(command, config, payload, seed=None):
    doc = {"schema": fileio.SCHEMA, "command": command, "config": ref_json_value(config)}
    if seed is not None:
        doc["seed"] = int(seed)
    doc.update(ref_json_value(payload))
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def ref_matrix_json(arr, points=None):
    doc = {
        "n": int(arr.shape[0]),
        "entries": [ref_json_value(v) for v in np.asarray(arr).ravel().tolist()],
    }
    if points is not None:
        doc["points"] = [ref_json_value(p) for p in points]
    return doc


def assert_plain(v):
    """Every leaf is a Python float, int, bool, str or None, never a numpy scalar."""
    if type(v) is dict:
        for x in v.values():
            assert_plain(x)
    elif type(v) is list:
        for x in v:
            assert_plain(x)
    else:
        assert type(v) in (float, int, bool, str, type(None)), type(v)


SPECIALS = [-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 2.2250738585072014e-308,
            1e16, 1e-5, 1e22, 0.1, -2.5, 9007199254740993.0, 1.7976931348623157e308]
with np.errstate(over="ignore", under="ignore"):
    SPECIALS_32 = [float(np.float32(x)) for x in SPECIALS] + [1e-45, -3e-39]
F64 = st.one_of(st.sampled_from(SPECIALS), st.floats())
F32 = st.one_of(st.sampled_from(SPECIALS_32), st.floats(width=32))
ELEMENTS = {
    np.float64: F64,
    np.float32: F32,
    np.int64: st.integers(-2**63, 2**63 - 1),
    np.bool_: st.booleans(),
    np.complex128: st.one_of(
        st.builds(complex, F64, F64),
        st.builds(complex, F64, st.just(-0.0)),
    ),
    np.complex64: st.one_of(
        st.builds(complex, F32, F32),
        st.builds(complex, F32, st.just(-0.0)),
    ),
}
SHAPES = st.one_of(
    st.tuples(st.just(0), st.integers(0, 4)),
    st.tuples(st.integers(0, 7)),
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
)


@st.composite
def arrays(draw, shapes=SHAPES):
    dtype = draw(st.sampled_from(list(ELEMENTS)))
    shape = draw(shapes)
    size = int(np.prod(shape))
    values = draw(st.lists(ELEMENTS[dtype], min_size=size, max_size=size))
    return np.array(values, dtype=dtype).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(arrays())
def test_format_matrix_matches_cell_loop(a):
    assert fileio.format_matrix(a) == ref_format_matrix(a)


@settings(max_examples=200, deadline=None)
@given(arrays(st.tuples(st.integers(0, 7))))
def test_format_values_matches_cell_loop(a):
    assert fileio.format_values(a) == ref_format_values(a)


@settings(max_examples=100, deadline=None)
@given(st.lists(ELEMENTS[np.int64], max_size=7))
def test_format_ints_matches_line_loop(values):
    a = np.array(values, dtype=np.int64)
    assert fileio.format_ints(a) == "\n".join(str(int(v)) for v in a) + "\n"


@settings(max_examples=300, deadline=None)
@given(arrays())
def test_json_value_matches_recursive_loop(a):
    got = fileio.json_value(a)
    assert_plain(got)
    assert json.dumps(got) == json.dumps(ref_json_value(a))
    got = fileio.matrix_json(np.atleast_1d(a), points=[0.5, 1 + 2j])
    assert_plain(got)
    assert json.dumps(got) == json.dumps(ref_matrix_json(np.atleast_1d(a), [0.5, 1 + 2j]))


SCALARS = st.one_of(
    F64, st.integers(-2**70, 2**70), st.booleans(), st.none(), st.text(max_size=3),
    F64.map(np.float64), F32.map(np.float32), st.integers(-5, 5).map(np.int64),
    st.booleans().map(np.bool_), st.builds(complex, F64, F64),
    st.builds(complex, F64, F64).map(np.complex128),
    st.just(kf.IntervalSet(((0.0, 0.25), (0.5, 0.75)))),
)
PAYLOADS = st.recursive(
    st.one_of(SCALARS, arrays()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(max_size=4), PAYLOADS, max_size=4),
       st.dictionaries(st.text(max_size=4), SCALARS, max_size=3),
       st.one_of(st.none(), st.integers(0, 2**64)))
def test_render_report_matches_recursive_loop(payload, config, seed):
    # a NaN or +-inf anywhere makes both raise: neither is JSON
    try:
        want = ref_render_report("cmd", config, payload, seed=seed)
    except ValueError:
        with pytest.raises(ValueError):
            fileio.render_report("cmd", config, payload, seed=seed)
    else:
        assert fileio.render_report("cmd", config, payload, seed=seed) == want
    assert_plain(fileio.json_value(payload))


@st.composite
def long_payloads(draw):
    """Payloads whose leaf lists run to hundreds of items; NaN and +-inf only
    in about half of the examples, since one of them makes a report raise."""
    if draw(st.booleans()):
        floats = F64
    else:
        floats = st.one_of(st.sampled_from([x for x in SPECIALS if np.isfinite(x)]),
                           st.floats(allow_nan=False, allow_infinity=False))
    scalars = st.one_of(
        floats, st.integers(2**64, 2**80), st.integers(-2**80, -2**64), st.integers(-3, 3),
        st.booleans(), st.none(), st.text(max_size=4),
        st.text(st.characters(min_codepoint=0x80), min_size=1, max_size=4),
    )
    empties = st.recursive(
        st.sampled_from([[], {}]),
        lambda inner: st.one_of(st.lists(inner, max_size=3),
                                st.dictionaries(st.text(max_size=3), inner, max_size=3)),
        max_leaves=6,
    )

    def lists(items, longest):  # Hypothesis keeps a plain st.lists short
        return st.integers(0, longest).flatmap(lambda n: st.lists(items, min_size=n, max_size=n))

    values = st.one_of(
        lists(scalars, 500),
        lists(st.lists(floats, min_size=2, max_size=2), 100),  # [re, im] pairs
        lists(lists(scalars, 40), 12),
        empties,
    )
    return draw(st.dictionaries(st.text(max_size=4), values, max_size=4))


@settings(max_examples=100, deadline=None)
@given(long_payloads())
def test_render_report_matches_json_on_long_leaf_lists(payload):
    try:
        want = ref_render_report("cmd", {"n": 3}, payload)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            fileio.render_report("cmd", {"n": 3}, payload)
        assert str(got.value) == str(exc)
    else:
        assert fileio.render_report("cmd", {"n": 3}, payload) == want


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("payload", [
    lambda bad: {"v": [0.5, 1, bad, float("nan")]},  # a leaf list
    lambda bad: {"v": [[0.5], {"w": [bad]}]},  # a leaf list in a nested list
    lambda bad: {"v": [[0.5], bad]},  # a scalar in a nested list
    lambda bad: {"v": {"w": bad}},  # a scalar
    lambda bad: {"v": {bad: 1.0}},  # a key
], ids=["leaf-list", "nested-list", "nested-scalar", "scalar", "key"])
def test_report_error_names_the_value(bad, payload):
    # the CLI prints `error: {exc}`: the message is json's, with the value
    with pytest.raises(ValueError) as got:
        fileio.render_report("demo", {}, payload(bad))
    assert str(got.value) == f"Out of range float values are not JSON compliant: {bad!r}"


@pytest.mark.parametrize("key", [3, -2**70, 0.25, -0.0, 1e300, True, False, None])
def test_report_non_str_keys_match_json(key):
    payload = {"m": {key: [key, 1.5]}, "n": [{key: {key: key}}], "o": {key: []}}
    assert fileio.render_report("demo", {}, payload) == ref_render_report("demo", {}, payload)


def test_report_unusable_keys_raise_as_json_does():
    for payload in ({"m": {(1, 2): 0.5}}, {"m": {1: 0.5, "a": 0.5}}):
        with pytest.raises(TypeError) as want:
            ref_render_report("demo", {}, payload)
        with pytest.raises(TypeError) as got:
            fileio.render_report("demo", {}, payload)
        assert str(got.value) == str(want.value)


@pytest.fixture(scope="module")
def matrix_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("read") / "m.csv")


def _same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(arrays(), st.data())
def test_read_matrix_matches_cell_loop(matrix_path, a, data):
    text = fileio.format_matrix(a)
    if a.size and data.draw(st.booleans()):
        # parenthesised and padded cells, as other tools write them
        rows = [line.split(",") for line in text.splitlines()]
        wrap = st.sampled_from(["({})", " {} ", "( {} )", "{}"])
        text = "\n".join(
            ",".join(data.draw(wrap).format(c) for c in row) for row in rows
        ) + "\n"
    with open(matrix_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    _same_array(fileio.read_matrix(matrix_path), ref_read_matrix(matrix_path))


@pytest.mark.parametrize("text", [
    "1.0,abc\n", "1.0,2.0\n3.0,1+\n", "1.0,,2.0\n", "1.0.0\n", "(1.0+2.0j),x\n",
    "1.0,2.0\n3.0\n", "1.0+2.0j,2.0\n3.0\n",
])
def test_read_matrix_rejects_what_the_cell_loop_rejects(matrix_path, text):
    with open(matrix_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with pytest.raises(ValueError):
        ref_read_matrix(matrix_path)
    with pytest.raises(ValueError, match=r"m\.csv: line \d"):
        fileio.read_matrix(matrix_path)
