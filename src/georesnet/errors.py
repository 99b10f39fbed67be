"""Exception types shared across the package, and the JSON reader that
turns a malformed input file into one of them."""

import json


class GeoResNetError(Exception):
    """Base class for all errors raised by this package."""


class OffManifold(GeoResNetError):
    """A state that should lie on the manifold has too large a defect."""


class InvalidConfig(GeoResNetError):
    """A configuration object violates its own invariants."""


def read_json_object(path):
    """The JSON object a file holds; raises InvalidConfig if it holds none.

    Every file the package reads (configs, sweep specs, datasets,
    checkpoints) is a JSON object, so text that does not parse, or parses
    to another type, is reported the same way for all of them.
    """
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise InvalidConfig(f"{path} is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise InvalidConfig(f"{path} must hold a JSON object")
    return doc


def is_a(kind, value):
    """isinstance for a numbers ABC, with bool (an int subclass) excluded."""
    return isinstance(value, kind) and not isinstance(value, bool)


class DivergenceDetected(GeoResNetError):
    """Training produced a non-finite loss.

    The metrics recorded up to the failing epoch are preserved on the
    ``metrics`` attribute so callers can inspect or persist them.
    """

    def __init__(self, message, metrics=None):
        super().__init__(message)
        self.metrics = metrics
