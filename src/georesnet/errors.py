"""Exception types shared across the package, the typing rule of its config
dataclasses, and its file I/O: the one JSON reader, which builds each input
file's object and puts the file's path in front of every error it gives, the
key and array checks that builders use, and the atomic JSON and CSV writers."""

import contextlib
import csv
import dataclasses
import itertools
import json
import numbers
import os

import numpy as np

ROWS_PER_BLOCK = 1024  # leading-axis items formatted per write of an array
_MARK = "\0ndarray\0"  # what json writes in place of an array leaf
# Bound on every config integer's magnitude: far past any count a run can use,
# and low enough that an array size built from counts stays inside numpy's index
# range, so one too large for memory raises MemoryError, not numpy's ValueError.
MAX_INT = 2 ** 31 - 1


class GeoResNetError(Exception):
    """Base class for all errors raised by this package."""


class OffManifold(GeoResNetError):
    """A state that should lie on the manifold has too large a defect."""


class InvalidConfig(GeoResNetError):
    """A configuration object violates its own invariants."""


def read_json_object(path, build):
    """build(doc) for the JSON object doc that the file at path holds.

    Every input file passes here, so every error it gives starts with path:
    InvalidConfig for text that does not parse (ValueError: bad syntax or
    UTF-8, or an int past the digit limit; RecursionError: deep nesting) or
    is not an object, and any InvalidConfig or OffManifold from build.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as err:
            raise InvalidConfig(f"{path}: not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise InvalidConfig(f"{path}: must hold a JSON object")
    try:
        return build(doc)
    except (InvalidConfig, OffManifold) as err:
        raise type(err)(f"{path}: {err}") from None


def check_keys(doc, what, known=None, required=()):
    """InvalidConfig naming what if doc has a key outside known, or lacks a required one."""
    unknown = [] if known is None else sorted(set(doc) - set(known))
    if unknown:
        raise InvalidConfig(f"unknown {what} keys: {unknown}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise InvalidConfig(f"{what} lacks {missing}")


def from_dict(cls, doc, what):
    """cls(**doc) for a dataclass cls; InvalidConfig naming what if doc holds a
    key that is not a field of cls, or lacks a field that has no default."""
    fields = dataclasses.fields(cls)
    check_keys(doc, what, known=[f.name for f in fields], required=[
        f.name for f in fields if dataclasses.MISSING is f.default is f.default_factory])
    return cls(**doc)


def numeric_array(value, what, shape):
    """value as a float array; InvalidConfig naming what unless it is numeric,
    of shape (a leading None matches any length) and finite.

    Every leaf must be a JSON number: numpy would also parse a string such
    as "1e3", and read true as 1.0.
    """
    try:
        array = np.asarray(value, dtype=float)
        leaves = [value]
        for _ in range(array.ndim):
            leaves = itertools.chain.from_iterable(leaves)
        if not set(map(type, leaves)) <= {float, int}:
            raise TypeError
    except (TypeError, ValueError, OverflowError):  # OverflowError: an int beyond float range
        raise InvalidConfig(f"{what} is not a numeric array") from None
    if array.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape)):
        raise InvalidConfig(f"{what} must have shape {str(shape).replace('None', 'n')}, "
                           f"got {array.shape}")
    if not np.isfinite(array).all():
        raise InvalidConfig(f"{what} holds non-finite values")
    return array


@contextlib.contextmanager
def replacing(path):
    """A text handle on {path}.tmp that replaces path when the block exits.

    If the block raises, {path}.tmp is removed and path keeps its previous
    contents.  newline="" writes every line ending as given.
    """
    tmp = f"{path}.tmp"
    fh = open(tmp, "w", newline="")
    try:
        with fh:
            yield fh
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def _array(value):
    if not isinstance(value, np.ndarray):
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    return value


def write_json(path, doc, sort_keys=False):
    """Write json.dump(doc, fh, indent=1, sort_keys=sort_keys) and a newline.

    ndarray leaves are written as json writes their tolist(), in the
    indentation json gives them, from a template built once per array
    shape; json's indented encoder is pure Python and makes several
    write calls per float.  The file replaces path only once complete.
    """
    arrays = []

    def mark(value):
        arrays.append(_array(value))
        return _MARK

    pieces = json.dumps(doc, indent=1, sort_keys=sort_keys, default=mark).split(
        json.dumps(_MARK))
    if len(pieces) != len(arrays) + 1:  # doc holds the mark as a string
        pieces, arrays = [json.dumps(doc, indent=1, sort_keys=sort_keys,
                                     default=lambda v: _array(v).tolist())], []
    with replacing(path) as fh:
        for text, array in zip(pieces, arrays):
            fh.write(text)
            line = text[text.rfind("\n") + 1:]
            _write_array(fh, array, len(line) - len(line.lstrip(" ")))
        fh.write(pieces[-1])
        fh.write("\n")


def write_csv(path, header, rows):
    """Write header and rows as csv.writer does, each float as repr(float(v)).

    repr gives the shortest decimal that reads back bitwise; numpy floats
    go through float so that they are spelled as Python's.  The file
    replaces path only once complete.
    """
    with replacing(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)


def _template(shape, level):
    """%s slots laid out as json indents a nested list of this shape."""
    if not shape:
        return "%s"
    pad = "\n" + " " * (level + 1)
    return ("[" + pad + ("," + pad).join([_template(shape[1:], level + 1)] * shape[0])
            + "\n" + " " * level + "]")


def _write_array(fh, array, level):
    """json's text of array.tolist() whose first line starts at this indent."""
    if (array.dtype != np.float64 or array.ndim == 0 or array.size == 0
            or not np.isfinite(array).all()):  # json spells NaN and Infinity
        fh.write(json.dumps(array.tolist(), indent=1).replace("\n", "\n" + " " * level))
        return
    item = _template(array.shape[1:], level + 1)
    pad = "\n" + " " * (level + 1)
    fh.write("[" + pad)
    for start in range(0, len(array), ROWS_PER_BLOCK):
        block = array[start:start + ROWS_PER_BLOCK]
        fh.write(("," + pad if start else "")
                 + ("," + pad).join([item] * len(block))
                 % tuple(map(float.__repr__, block.ravel().tolist())))
    fh.write("\n" + " " * level + "]")


def _plain(kind, value):
    if isinstance(value, bool) != (kind is bool):  # bool subclasses int, and is no number here
        raise TypeError
    if kind is tuple and isinstance(value, (list, tuple)):
        return tuple(_plain(int, v) for v in value)
    if kind is dict and (value is None or isinstance(value, dict)):
        return dict(value or {})
    if isinstance(value, {bool: bool, int: numbers.Integral, float: numbers.Real}.get(kind, ())):
        if kind is int and not -MAX_INT <= value <= MAX_INT:
            raise ValueError
        return kind(value)
    raise TypeError


def check_fields(obj, what):
    """Store each field of dataclass obj as the plain JSON type its annotation names:
    int or float from a non-bool number, bool from a bool, a tuple of ints from a list or
    tuple, dict from a dict or None, str as given; every int within MAX_INT of 0.
    InvalidConfig names every wrongly typed field, else every field out of range."""
    wrong, out_of_range = [], []
    for field in [f for f in dataclasses.fields(obj) if f.type is not str]:
        try:
            object.__setattr__(obj, field.name, _plain(field.type, getattr(obj, field.name)))
        except (TypeError, OverflowError):  # OverflowError: an int beyond float range
            wrong.append(field.name)
        except ValueError:
            out_of_range.append(field.name)
    if wrong:
        raise InvalidConfig(f"wrongly typed {what} values: {wrong}")
    if out_of_range:
        raise InvalidConfig(f"{what} values out of range [-{MAX_INT}, {MAX_INT}]: {out_of_range}")


class DivergenceDetected(GeoResNetError):
    """Training produced a non-finite loss.

    The metrics recorded up to the failing epoch are preserved on the
    ``metrics`` attribute so callers can inspect or persist them.
    """

    def __init__(self, message, metrics=None):
        super().__init__(message)
        self.metrics = metrics
