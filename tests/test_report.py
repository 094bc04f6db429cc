"""Tests for deterministic artifact writing.

Oracles: float round-tripping through %.17g, a per-row reference
renderer, byte-level determinism of the writers, and digest agreement
with an independent hash of the file.
"""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracfield import report
from fracfield.report import (_CHUNK_ROWS, _NUMPY_MIN_CELLS, ARTIFACT_VERSION,
                              render_csv, write_csv, write_json)


def reference_csv(header, rows) -> bytes:
    """Render a table cell by cell: floats via %.17g, the rest via str."""
    def cell(value):
        return "%.17g" % value if isinstance(value, float) else str(value)

    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


class TestWriteCsv:
    def test_bytes_and_digest(self, tmp_path):
        path = tmp_path / "table.csv"
        digest = write_csv(path, ["a", "b", "c"],
                           [[1, 2], [0.5, 3.0], ["x", "y"]])
        data = path.read_bytes()
        assert data == b"a,b,c\n1,0.5,x\n2,3,y\n"
        assert digest == hashlib.sha256(data).hexdigest()

    def test_matches_per_cell_reference(self, tmp_path):
        ints = [0, -1, 2 ** 53 + 1, 2 ** 62 + 3, -(2 ** 63), np.int64(7)]
        floats = [-0.0, 5e-324, 1e-300, -2.5e17, 0.1, np.float64(1.0 / 3.0)]
        labels = ["a", "label", "x y", "", np.str_("np"), "time_shift"]
        header = ("i", "v", "s")
        path = tmp_path / "table.csv"
        write_csv(path, header, [ints, floats, labels])
        assert path.read_bytes() == reference_csv(
            header, zip(ints, floats, labels))

    def test_long_table_matches_reference_across_chunks(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 70_000
        index = np.arange(n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        path = tmp_path / "long.csv"
        write_csv(path, ("k", "value"), [index, values])
        assert path.read_bytes() == reference_csv(
            ("k", "value"), zip(index.tolist(), values.tolist()))

    def test_floats_round_trip(self, tmp_path):
        values = [0.1, 1.0 / 3.0, math.pi, 1e-300, -2.5e17, 5e-324, -0.0]
        path = tmp_path / "floats.csv"
        write_csv(path, ["v"], [values])
        back = [float(s) for s in path.read_text().splitlines()[1:]]
        assert back == values
        assert math.copysign(1.0, back[-1]) == -1.0

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_float_round_trips(self, v):
        text = "".join(render_csv(["v"], [[v]]))
        assert float(text.splitlines()[1]) == v

    def test_header_only_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, ["a", "b"], [[], []])
        assert path.read_bytes() == b"a,b\n"

    def test_rewrite_is_byte_identical(self, tmp_path):
        columns = [[0.1 * k for k in range(20)], list(range(20))]
        d1 = write_csv(tmp_path / "a.csv", ["x", "k"], columns)
        d2 = write_csv(tmp_path / "b.csv", ["x", "k"], columns)
        assert d1 == d2
        assert (tmp_path / "a.csv").read_bytes() \
            == (tmp_path / "b.csv").read_bytes()

    def test_numpy_scalars_format_like_floats(self, tmp_path):
        d1 = write_csv(tmp_path / "np.csv", ["v"], [[np.float64(0.1)]])
        d2 = write_csv(tmp_path / "py.csv", ["v"], [[0.1]])
        assert d1 == d2

    def test_rejects_malformed_columns(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "a.csv", ["a", "b"], [[1, 2]])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "b.csv", ["a", "b"], [[1, 2], [3]])
        with pytest.raises(TypeError):
            write_csv(tmp_path / "c.csv", ["flag"], [[True, False]])

    @pytest.mark.parametrize("columns", [
        [np.zeros((2, 2, 2))],
        [np.zeros(4), np.zeros((4, 1))],
        [np.zeros((2, 3)), np.zeros((3, 1))],
        [np.zeros((2, 3)), np.zeros((1, 2))],
        [np.zeros(3), np.zeros(1)],
        [np.float64(1.0)],
        [[1, 2], [3]],
    ], ids=["3-D", "1-D and 2-D", "rows", "row length", "1-D lengths",
            "0-D", "ragged"])
    def test_malformed_shapes_raise_before_any_file(self, tmp_path,
                                                    columns):
        header = [f"c{j}" for j in range(len(columns))]
        with pytest.raises(ValueError):
            render_csv(header, columns)
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", header, columns)
        assert list(tmp_path.iterdir()) == []

    def test_rejected_table_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_csv(tmp_path / "flag.csv", ["flag"], [[True, False]])
        with pytest.raises(ValueError):
            write_csv(tmp_path / "short.csv", ["a", "b"], [[1, 2], [3]])
        assert list(tmp_path.iterdir()) == []


# Pools of awkward values: -0.0 and 0.0 are equal but print
# differently, and NaN is not equal to itself.
FLOAT_POOL = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e17,
              0.1, 1.0 / 3.0]
POOLS = {
    "int64": [0, -1, 7, 2 ** 53 + 1, 2 ** 63 - 1, -(2 ** 63)],
    "uint64": [0, 1, 2 ** 53 + 1, 2 ** 63, 2 ** 64 - 1],
    "float64": FLOAT_POOL,
    "float32": FLOAT_POOL,
    "str": ["", "a", "%", "%s", "x y", "100% s", "%d %%"],
}
DISTINCT = {
    "int64": st.integers(-(2 ** 63), 2 ** 63 - 1),
    "uint64": st.integers(0, 2 ** 64 - 1),
    "float64": st.floats(),
    "float32": st.floats(width=32),
    "str": st.text(st.sampled_from("a %s,-"), max_size=4),
}


@st.composite
def tables(draw):
    """A header and columns of random dtypes, repeating or all distinct:
    all one-dimensional, or all of a two-dimensional table's shape with
    either axis possibly 1."""
    two_d = draw(st.booleans())
    shape = ((draw(st.integers(0, 8)), draw(st.integers(0, 8))) if two_d
             else (draw(st.integers(0, 60)),))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        dtype = draw(st.sampled_from(sorted(POOLS)))
        if draw(st.booleans()):
            pool = draw(st.lists(st.sampled_from(POOLS[dtype]), min_size=1,
                                 unique_by=repr))
            cells = st.sampled_from(pool)
        else:
            cells = DISTINCT[dtype]
        axes = tuple(draw(st.sampled_from([1, n])) for n in shape) \
            if two_d else shape
        values = draw(st.lists(cells, min_size=math.prod(axes),
                               max_size=math.prod(axes)))
        columns.append(np.array(values, dtype=dtype).reshape(axes))
    return [f"c{j}" for j in range(len(columns))], columns


def assert_matches_reference(header, columns):
    """Compare against ``reference_csv`` of the broadcast, raveled
    columns."""
    rows = zip(*(c.ravel().tolist() for c in np.broadcast_arrays(*columns)))
    assert "".join(render_csv(header, columns)).encode("utf-8") \
        == reference_csv(header, rows)


class TestRenderCsv:
    @settings(max_examples=100)
    @given(tables())
    def test_matches_per_row_reference(self, table):
        assert_matches_reference(*table)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_signed_zeros_keep_their_sign(self, dtype):
        column = np.array([0.0, -0.0, 0.0, -0.0, math.nan, 0.0], dtype=dtype)
        text = "".join(render_csv(["v"], [column]))
        assert text == "v\n0\n-0\n0\n-0\nnan\n0\n"

    @pytest.mark.parametrize("n_rows", [_CHUNK_ROWS - 1, _CHUNK_ROWS,
                                        _CHUNK_ROWS + 1,
                                        2 * _CHUNK_ROWS + 1])
    @pytest.mark.parametrize("last", ["label", "integer"])
    def test_chunk_boundaries_match_reference(self, request, n_rows, last):
        # With a label column the table is %-formatted; without, it is
        # numeric and must be rendered in numpy.
        rng = np.random.default_rng(n_rows)
        replicate = np.repeat(np.arange(n_rows // 561 + 1), 561)[:n_rows]
        position = np.tile(np.linspace(-1.0, 1.0, 33), n_rows // 33 + 1)
        columns = [replicate, position[:n_rows].astype(np.float32),
                   rng.standard_normal(n_rows)]
        if last == "label":
            columns.append(np.array(["a", "%s", "x y"])[np.arange(n_rows) % 3])
        else:
            request.getfixturevalue("numpy_route")
            columns.append(rng.integers(-10 ** 6, 10 ** 6, n_rows))
        assert_matches_reference(["r", "x", "v", last], columns)


# Values gathered into every block or every row of a block: signed
# zeros, non-finite floats, values off the fast float path and integer
# extremes.
GATHERED = {
    "float64": [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e-7,
                -2.5e17, 0.1],
    "float32": [-0.0, 0.0, math.nan, -math.inf, 3.0e38, 0.1],
    "int64": [-(2 ** 63), 2 ** 63 - 1, 0, -1, 10 ** 17],
    "uint64": [2 ** 64 - 1, 0, 2 ** 63],
}


@pytest.mark.parametrize("route", ["numpy", "percent"])
@pytest.mark.parametrize("n_blocks, n_per_block", [
    (1, 1), (4, 7), (1, _CHUNK_ROWS + 5), (_CHUNK_ROWS + 5, 1),
    (_CHUNK_ROWS // 7 + 1, 7), (3, 3001), (2, _CHUNK_ROWS + 1)])
def test_broadcast_table_equals_materialized(monkeypatch, route, n_blocks,
                                             n_per_block):
    # The same table given by shape and spelled out by np.repeat/np.tile
    # gives the same bytes, on each route and across chunk boundaries.
    if route == "numpy":
        monkeypatch.setattr(report, "_NUMPY_MIN_CELLS", 0)
        monkeypatch.setattr(report, "_percent_chunks", None)
    else:
        monkeypatch.setattr(report, "_NUMPY_MIN_CELLS", math.inf)
        monkeypatch.setattr(report, "_numpy_chunks", None)
    rng = np.random.default_rng(n_blocks * n_per_block)
    shaped, spelled = [], []
    for dtype, pool in GATHERED.items():
        per_block = np.resize(np.array(pool, dtype), n_blocks)
        in_block = np.resize(np.array(pool[::-1], dtype), n_per_block)
        shaped += [per_block[:, None], in_block[None]]
        spelled += [np.repeat(per_block, n_per_block),
                    np.tile(in_block, n_blocks)]
    values = rng.standard_normal((n_blocks, n_per_block))
    shaped += [np.array([[-0.0]]), values]
    spelled += [np.full(values.size, -0.0), values.ravel()]
    header = [f"c{j}" for j in range(len(shaped))]
    text = "".join(render_csv(header, shaped))
    assert text == "".join(render_csv(header, spelled))
    assert text.count("\n") == 1 + n_blocks * n_per_block


@pytest.fixture
def numpy_route(monkeypatch):
    """Fail any table that would be %-formatted as a whole."""
    def refuse(cols, n_rows):
        raise AssertionError("table was not rendered in numpy")

    monkeypatch.setattr(report, "_percent_chunks", refuse)


def filler(dtype, n):
    """``n`` distinct ordinary values of a dtype, none in the tested sets."""
    if np.dtype(dtype).kind == "f":
        return (np.arange(n) + 0.375).astype(dtype)
    return np.arange(1000, 1000 + n).astype(dtype)


def assert_numpy_route(values, dtype):
    """Render values through both numpy routes and check the bytes.

    The m values go into two tables, k blocks of m rows and m blocks of
    k rows.  In each, a column of the table's shape holds every value
    once among distinct filler, so it is rendered chunk by chunk; the
    other column, ``(1, m)`` or ``(m, 1)``, holds each value once, so the
    values are rendered once and gathered.
    """
    values = np.asarray(values, dtype)
    k = -(-max(2 * values.size, _NUMPY_MIN_CELLS) // values.size)
    once = np.concatenate([values, filler(dtype, (k - 1) * values.size)])
    assert_matches_reference(["once", "cycled"],
                             [once.reshape(k, -1), values[None]])
    assert_matches_reference(["once", "cycled"],
                             [once.reshape(-1, k), values[:, None]])


def decimal_ties(rng, per_exponent=40):
    """Doubles m * 2**-k whose exact decimal has 18 significant digits.

    ``m`` is odd, so the 18th digit is a 5 and the 17-digit rounding is
    an exact tie; m * 5**k sets the digits and lies in [1e17, 1e18), and
    m <= 2**53 keeps the double exact.
    """
    ties = [9 * 2.0 ** -23]
    for k in range(2, 24):
        low = -(-10 ** 17 // 5 ** k)
        high = min((10 ** 18 - 1) // 5 ** k, 2 ** 53 - 1)
        for m in rng.integers(low, high, per_exponent, endpoint=True):
            m = int(m) | 1
            if m <= high and len(str(m * 5 ** k)) == 18:
                ties.append(m * 2.0 ** -k)
    return np.array(ties)


class TestNumpyRoute:
    """The numpy renderer against per-cell %.17g/%d (``reference_csv``)."""

    @pytest.mark.parametrize("dtype, bits", [("float64", "uint64"),
                                             ("float32", "uint32")])
    def test_random_bit_patterns(self, numpy_route, dtype, bits):
        rng = np.random.default_rng(11)
        values = rng.integers(0, np.iinfo(bits).max, 10 ** 6, dtype=bits,
                              endpoint=True).view(dtype)
        assert_matches_reference(["v"], [values])

    def test_powers_of_ten_and_neighbours(self, numpy_route):
        powers = np.array([float(f"1e{k}") for k in range(-7, 19)])
        values = np.concatenate([np.nextafter(powers, 0.0), powers,
                                 np.nextafter(powers, np.inf)])
        # The nearest doubles below the powers of ten are the only ones
        # whose 17 digits could round up into the next decade.
        assert_numpy_route(np.concatenate([values, -values]), "float64")

    def test_exact_decimal_ties_round_half_even(self, numpy_route):
        ties = decimal_ties(np.random.default_rng(5))
        assert "%.17g" % ties[0] == "1.0728836059570312e-06"
        assert len(ties) > 500
        assert_numpy_route(np.concatenate([ties, -ties]), "float64")

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_range_edges_and_special_values(self, numpy_route, dtype):
        edges = np.array([1e-6, 1e17], dtype)
        values = np.concatenate([
            np.nextafter(edges, np.zeros_like(edges)), edges,
            np.nextafter(edges, np.full_like(edges, np.inf)),
            [0.0, -0.0, math.inf, -math.inf, math.nan],
            [np.finfo(dtype).smallest_subnormal, np.finfo(dtype).tiny,
             np.finfo(dtype).max, np.finfo(dtype).eps]]).astype(dtype)
        assert_numpy_route(np.concatenate([values, -values]), dtype)

    @pytest.mark.parametrize("dtype", ["int64", "uint64", "int32", "uint16"])
    def test_integer_extremes(self, numpy_route, dtype):
        info = np.iinfo(dtype)
        values = [v for v in (info.min, info.max, 0, 1, 9, 10, 9999, 10000,
                              -1, -(10 ** 17) - 1, -(10 ** 17),
                              -(10 ** 17) + 1, 10 ** 17 - 1, 10 ** 17,
                              10 ** 17 + 1, 2 ** 63, 2 ** 64 - 1)
                  if info.min <= v <= info.max]
        assert_numpy_route(values, dtype)

    def test_one_row(self, numpy_route):
        rng = np.random.default_rng(1)
        columns = list(rng.standard_normal((_NUMPY_MIN_CELLS, 1)))
        assert_matches_reference([f"c{j}" for j in range(len(columns))],
                                 columns)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["int64", "uint64", "float64", "float32"]),
           st.data())
    def test_drawn_values(self, dtype, data):
        values = data.draw(st.lists(DISTINCT[dtype], min_size=1,
                                    max_size=40))
        assert_numpy_route(values, dtype)


class TestPercentRoute:
    def test_small_and_string_tables_are_percent_formatted(self,
                                                           monkeypatch):
        def refuse(cols, n_rows):
            raise AssertionError("table was rendered in numpy")

        monkeypatch.setattr(report, "_numpy_chunks", refuse)
        small = np.arange(_NUMPY_MIN_CELLS - 1)
        assert_matches_reference(["k"], [small])
        strings = np.array(["a", "b"] * _NUMPY_MIN_CELLS)
        assert_matches_reference(["k", "s"], [np.arange(strings.size),
                                              strings])


class TestWriteJson:
    def test_sorted_keys_and_trailing_newline(self, tmp_path):
        path = tmp_path / "doc.json"
        digest = write_json(path, {"b": 2, "a": 1})
        data = path.read_bytes()
        assert data == b'{\n  "a": 1,\n  "b": 2\n}\n'
        assert digest == hashlib.sha256(data).hexdigest()

    def test_round_trips_through_loads(self, tmp_path):
        obj = {"version": ARTIFACT_VERSION, "values": [0.1, 0.2],
               "ok": True, "name": "run"}
        path = tmp_path / "doc.json"
        write_json(path, obj)
        assert json.loads(path.read_text()) == obj

    def test_key_order_does_not_change_bytes(self, tmp_path):
        d1 = write_json(tmp_path / "a.json", {"x": 1, "y": 2})
        d2 = write_json(tmp_path / "b.json", {"y": 2, "x": 1})
        assert d1 == d2
