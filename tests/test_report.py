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

from fracfield.report import (_CHUNK_ROWS, ARTIFACT_VERSION, render_csv,
                              sha256_of, write_csv, write_json)


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
        assert digest == sha256_of(path)

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


# Pools of awkward values.  Drawn from a small pool, a column repeats,
# so the renderer formats its distinct values once; -0.0 and 0.0 are
# equal but print differently, so they must not share a string.
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
    """A header and columns of random dtypes, repeating or all distinct."""
    n_rows = draw(st.integers(0, 60))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        dtype = draw(st.sampled_from(sorted(POOLS)))
        if draw(st.booleans()):
            pool = draw(st.lists(st.sampled_from(POOLS[dtype]), min_size=1,
                                 unique_by=repr))
            cells = st.sampled_from(pool)
        else:
            cells = DISTINCT[dtype]
        values = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
        columns.append(np.array(values, dtype=dtype))
    return [f"c{j}" for j in range(len(columns))], columns


def assert_matches_reference(header, columns):
    rows = zip(*(c.tolist() for c in columns))
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
    def test_chunk_boundaries_match_reference(self, n_rows):
        rng = np.random.default_rng(n_rows)
        replicate = np.repeat(np.arange(n_rows // 561 + 1), 561)[:n_rows]
        position = np.tile(np.linspace(-1.0, 1.0, 33), n_rows // 33 + 1)
        label = np.array(["a", "%s", "x y"])[np.arange(n_rows) % 3]
        columns = [replicate, position[:n_rows].astype(np.float32),
                   rng.standard_normal(n_rows), label]
        assert_matches_reference(["r", "x", "v", "s"], columns)


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


class TestSha256Of:
    def test_matches_hashlib(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"\x00\x01payload")
        assert sha256_of(path) \
            == hashlib.sha256(b"\x00\x01payload").hexdigest()

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            sha256_of(tmp_path / "absent.bin")
