"""The JSON and CSV writers: json.dump's bytes and repr's floats, written atomically;
read_json_object, the one reader of every input file; and check_fields, the one
typing rule of every config dataclass."""

import dataclasses
import json
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from georesnet import errors
from georesnet.errors import (MAX_INT, InvalidConfig, OffManifold, check_fields,
                              read_json_object, replacing, write_csv, write_json)

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


def test_write_csv_spells_floats_by_repr_and_other_values_as_csv_does(tmp_path):
    path = tmp_path / "table.csv"
    row = [0.1, 1e-05, 5e-324, -0.0, float("nan"), float("inf"), np.float64(1 / 3),
           np.int64(7), 3, "a,b"]
    write_csv(path, list("abcdefghij"), [row])
    assert path.read_bytes() == (b"a,b,c,d,e,f,g,h,i,j\r\n"
                                 b'0.1,1e-05,5e-324,-0.0,nan,inf,0.3333333333333333,7,3,"a,b"\r\n')


@dataclasses.dataclass
class Fields:
    count: int = 0
    rate: float = 0.0
    steps: tuple = ()
    extra: dict = None
    name: str = ""
    flag: bool = False


def test_check_fields_stores_each_annotation_as_its_plain_json_type():
    for rate in (np.float32(0.25), Fraction(1, 4), 0.25):
        fields = Fields(np.int64(3), rate, [np.int64(2), 1], None, "as given", True)
        check_fields(fields, "demo")
        assert dataclasses.astuple(fields) == (3, 0.25, (2, 1), {}, "as given", True)
        assert [type(value) for value in dataclasses.astuple(fields)] == [
            int, float, tuple, dict, str, bool]
        assert [type(step) for step in fields.steps] == [int, int]
    fields = Fields(rate=1)  # an integer given for a float field is stored as a float
    check_fields(fields, "demo")
    assert type(fields.rate) is float and fields.rate == 1.0
    extra = {"epochs": 3}
    fields = Fields(extra=extra)
    check_fields(fields, "demo")
    assert fields.extra == extra and fields.extra is not extra
    with pytest.raises(InvalidConfig, match=r"wrongly typed demo values: \['count', 'rate', "
                                            r"'steps', 'extra', 'flag'\]"):
        check_fields(Fields(True, False, (1, True), [], flag=0), "demo")
    # json reads a 401-digit integer exactly; no float holds it
    for bad in ({"rate": 10 ** 400}, {"rate": "1"}, {"steps": "12"}, {"steps": (1.0,)},
                {"count": 2.0}, {"extra": 5}, {"count": True}, {"flag": 1}, {"flag": "true"}):
        with pytest.raises(InvalidConfig, match=f"\\['{next(iter(bad))}'\\]"):
            check_fields(Fields(**bad), "demo")
    fields = Fields(count=MAX_INT, steps=[-MAX_INT, np.int64(MAX_INT)])
    check_fields(fields, "demo")  # the bound itself is in range, either sign
    assert (fields.count, fields.steps) == (MAX_INT, (-MAX_INT, MAX_INT))
    out_of_range = r"demo values out of range \[-2147483647, 2147483647\]: "
    for bad, names in (({"count": MAX_INT + 1}, "['count']"),
                       ({"count": -10 ** 400, "steps": (1, np.int64(-MAX_INT - 1))},
                        "['count', 'steps']")):
        with pytest.raises(InvalidConfig, match=out_of_range + re.escape(names) + "$"):
            check_fields(Fields(**bad), "demo")
    # a wrongly typed field is named first, alone
    with pytest.raises(InvalidConfig, match=r"wrongly typed demo values: \['rate'\]$"):
        check_fields(Fields(count=10 ** 400, rate="1"), "demo")


def test_read_json_object_puts_the_path_before_every_input_error(tmp_path):
    path = tmp_path / "in.json"
    path.write_text('{"a": 1}')
    assert read_json_object(path, dict) == {"a": 1}
    for error in (InvalidConfig, OffManifold):
        def build(doc):
            raise error(f"a is {doc['a']}")
        with pytest.raises(error, match=f"^{re.escape(str(path))}: a is 1$"):
            read_json_object(path, build)
    with pytest.raises(KeyError):  # a fault of the builder itself is not an input error
        read_json_object(path, lambda doc: doc["b"])
    for text in ("[1]", "{", "\xff", '{"a": ' + "1" * 5000 + "}", "[" * 10 ** 5 + "]" * 10 ** 5):
        path.write_text(text, encoding="latin-1")
        with pytest.raises(InvalidConfig, match=f"^{re.escape(str(path))}: "):
            read_json_object(path, dict)
