"""The benchmark's hooks into gridcast.

The tracer patches gridcast by attribute name. A renamed or removed
target does not fail a benchmark run: the tracer prints a note and its
per-layer metrics read 0. These tests load ``perfbench/tracer.py``
(without running it) so that such a rename fails here instead.

The workloads call the CLI and a few of its helpers directly; a CLI
change that breaks their set-up or gates would fail every benchmark
operation. Each workload runs once here at its tiny size.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from gridcast import explain

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"


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


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports tracer.py as a top-level module; write no
    # bytecode into the benchmark's directory
    sys.path.insert(0, str(PERFBENCH))
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        import workloads
    finally:
        sys.dont_write_bytecode = saved
        sys.path.remove(str(PERFBENCH))
    return workloads


@pytest.mark.parametrize("name", ["train-surrogate", "compare-baselines", "explain-predict"])
def test_workload_passes_its_gates_at_tiny_size(workloads, tmp_path, name):
    result, _ = workloads.run(name, seed=1, seconds=0, trace=False,
                              profile=workloads.TINY, work_root=tmp_path)
    assert result["failed"] == 0
    assert result["correct"]
    assert result["attempted"] > 0
