"""The benchmark traces package functions by name; every name must exist.

perfbench/tracer.py looks each (owner, attribute) up when it is imported,
so a rename or deletion in the package breaks the benchmark.  This test
makes it break the unit tests first.
"""

import importlib.util
import os

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for owner, attr, name, _ in tracer.TARGETS:
        assert callable(owner.__dict__.get(attr)), name
