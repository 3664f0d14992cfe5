"""Tiny-size self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and the benchmark agree on workloads and
metrics, that every workload emits every metric untraced and traced
with no failed operation, and that each correctness gate fires on a
deliberately corrupted artifact. Exits 1 and lists the problems if any
check fails.
"""

import json
import shutil
import sys

import run  # first: fixes the BLAS thread setting before numpy loads

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

# one counter per workload that must be non-zero when its modules run
BUSY = {"train-surrogate": ("layers.gru.backward_calls", "train.adam_step_calls"),
        "compare-baselines": ("baselines.best_split_calls", "baselines.tree_nodes"),
        "explain-predict": ("explain.model_evals", "network.forward_calls")}


def check_spec(problems):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if tuple(w["name"] for w in spec["workloads"]) != workloads.WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != workloads.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from workloads.END_TO_END")
    if {m["name"]: m["unit"] for m in spec["per_layer"]} != PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")


def check_runs(problems, work_root):
    for name in workloads.WORKLOADS:
        for trace, expected in ((False, workloads.END_TO_END), (True, PER_LAYER)):
            result, _ = workloads.run(name, seed=1, seconds=0, trace=trace,
                                      profile=workloads.TINY, work_root=work_root)
            label = f"{name} trace={int(trace)}"
            metrics = result["metrics"]
            if set(metrics) != set(expected):
                problems.append(f"{label}: metrics {sorted(set(metrics) ^ set(expected))} "
                                "missing or unexpected")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']} of {result['attempted']} "
                                "operations failed")
            for key in BUSY[name] if trace else ():
                if not metrics[key]["value"] > 0:
                    problems.append(f"{label}: {key} is {metrics[key]['value']}")


def _corrupt(problems, what, gate, path, edit):
    """The gate must pass on the artifact and fire on an edited copy."""
    if gate(path) is not None:
        problems.append(f"{what}: gate fails on the intact artifact: {gate(path)}")
    bad = path.with_name("corrupt-" + path.name)
    bad.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
    if gate(bad) is None:
        problems.append(f"{what}: gate did not fire on a corrupted artifact")


def _replace_cell(text, row, column, value):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def check_gates(problems, work_root):
    plain = {name: work_root / name / "plain" for name in workloads.WORKLOADS}
    _corrupt(problems, "trainlog", workloads.check_trainlog,
             plain["train-surrogate"] / "train" / "trainlog.csv",
             lambda text: _replace_cell(text, 1, 1, "nan"))
    _corrupt(problems, "compare", workloads.check_compare,
             plain["compare-baselines"] / "compare" / "compare.csv",
             lambda text: _replace_cell(text, 4, 3, "nan"))

    def shapley_gap(text):
        payload = json.loads(text)
        payload["efficiency_gaps"][0] = 1e-6
        return json.dumps(payload)

    _corrupt(problems, "shapley", workloads.check_shapley,
             plain["explain-predict"] / "explain" / "shapley.json", shapley_gap)

    ep = work_root / "explain-predict"
    checked = workloads.TINY.checked_windows

    def predictions(path):
        return workloads.check_predictions(path, ep / "data.csv", ep / "model.json", checked)

    _corrupt(problems, "predictions", predictions,
             plain["explain-predict"] / "predict" / "predictions.csv",
             lambda text: _replace_cell(text, 1, 2, "nan"))

    copy = ep / "plain-copy"
    shutil.copytree(plain["explain-predict"], copy)
    with open(copy / "explain" / "shapley.csv", "a", encoding="utf-8") as fh:
        fh.write("\n")
    if workloads.check_identical(plain["explain-predict"], copy) is None:
        problems.append("identical: gate did not fire on a changed file")

    print("selftest: the next two command failures are deliberate", file=sys.stderr)
    tally = workloads.Tally()
    missing = workloads.Inputs(ep / "data.csv", ep / "no-such-model.json", 1, workloads.TINY)
    with open(ep / "cli_stdout.log", "a", encoding="utf-8") as log:
        workloads.iteration("explain-predict", missing, ep / "out-missing", log, tally)
    if tally.failed != 2:
        problems.append(f"exit code: {tally.failed} of 2 failing commands counted")


def main() -> int:
    work_root = workloads.WORK_ROOT / "selftest"
    shutil.rmtree(work_root, ignore_errors=True)
    problems = []
    check_spec(problems)
    check_runs(problems, work_root)
    check_gates(problems, work_root)
    for problem in problems:
        print(f"selftest: {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
