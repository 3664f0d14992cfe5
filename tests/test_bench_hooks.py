"""The benchmark's tracer patches gridcast by attribute name.

A renamed or removed target does not fail a benchmark run: the tracer
prints a note and its per-layer metrics read 0. These tests load
``perfbench/tracer.py`` (without running it) so that such a rename
fails here instead.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

from gridcast import explain

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer):
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in tracer.TARGETS
               if getattr(owner, attr, None) is None]
    assert missing == []


def test_masked_eval_keeps_the_patched_signature():
    assert list(inspect.signature(explain._masked_eval).parameters) == [
        "model", "x", "background", "d"]
