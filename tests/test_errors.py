"""The JSON writer: json.dump's bytes, written atomically."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from georesnet import errors
from georesnet.errors import replacing, write_json

# every float64 is drawn: NaN, both infinities, -0.0 and subnormals included
ARRAYS = hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=3),
                    elements=st.floats(width=64))
SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
DOCS = st.recursive(ARRAYS | SCALARS,
                    lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                    max_leaves=8)


def as_lists(doc):
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    if isinstance(doc, dict):
        return {k: as_lists(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [as_lists(v) for v in doc]
    return doc


def dumped(doc, sort_keys=False):
    return (json.dumps(as_lists(doc), indent=1, sort_keys=sort_keys) + "\n").encode()


@pytest.fixture(scope="module")
def target(tmp_path_factory):
    return tmp_path_factory.mktemp("write_json") / "doc.json"


@settings(max_examples=300)
@given(doc=DOCS, sort_keys=st.booleans())
def test_write_json_writes_the_bytes_of_json_dump(target, doc, sort_keys):
    write_json(target, doc, sort_keys=sort_keys)
    assert target.read_bytes() == dumped(doc, sort_keys)


def test_arrays_longer_than_one_block_keep_their_bytes(tmp_path):
    rng = np.random.default_rng(5)
    rows = 2 * errors.ROWS_PER_BLOCK + 5
    doc = {"pairs": [rng.standard_normal((rows, 3, 3)), {"x": rng.standard_normal(rows)}],
           "gains": rng.standard_normal((rows, 2)) * 1e-310}
    write_json(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_bytes() == dumped(doc)


def test_a_string_equal_to_the_array_stand_in_is_written_as_itself(tmp_path):
    doc = {"a": errors._MARK, errors._MARK: [np.ones(2), errors._MARK]}
    write_json(tmp_path / "doc.json", doc)
    assert (tmp_path / "doc.json").read_bytes() == dumped(doc)


def test_unserializable_values_raise_as_json_does(tmp_path):
    for value in (object(), np.int64(3), {1j}):
        with pytest.raises(TypeError, match="not JSON serializable"):
            json.dumps(value)
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json(tmp_path / "doc.json", {"value": value})


def test_a_write_that_raises_leaves_the_previous_file(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"old": np.arange(3.0)})
    before = path.read_bytes()
    with pytest.raises(TypeError):
        write_json(path, {"new": np.zeros(4), "bad": object()})
    assert not (tmp_path / "doc.json.tmp").exists()
    with pytest.raises(RuntimeError):
        with replacing(path) as fh:
            fh.write("partial")
            raise RuntimeError("interrupted")
    assert not (tmp_path / "doc.json.tmp").exists()
    assert path.read_bytes() == before


def test_replacing_writes_line_endings_as_given(tmp_path):
    path = tmp_path / "table.csv"
    with replacing(path) as fh:
        fh.write("a,b\r\n1,2\n")
    assert path.read_bytes() == b"a,b\r\n1,2\n"
    assert not (tmp_path / "table.csv.tmp").exists()
