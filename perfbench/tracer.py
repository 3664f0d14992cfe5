"""Span recorder that wraps gridcast's public functions from outside.

While installed, every wrapped call records one span: label, parent
span, trace id (one per CLI command or set-up), start and end in
nanoseconds, and an integer of work done (rows, samples, nodes, ...)
where the call has one. Spans live in compact ``array`` columns and are
written out once, at the end of a run. ``summarize`` turns them into
the per-layer metrics listed in ``PER_LAYER``.

Nothing under ``src/`` is changed: the wrappers replace module and
class attributes and ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

from gridcast import baselines, cli, data, explain, layers, metrics, network, tensor, train

LAYERS = (("conv1d", layers.Conv1d), ("gru", layers.Gru), ("attention", layers.Attention),
          ("layernorm", layers.LayerNorm), ("dense", layers.Dense),
          ("dropout", layers.Dropout), ("relu", layers.Relu))


def _rows(args, result):
    x = np.asarray(args[1])
    return x.size // x.shape[-1]


def _samples(args, result):
    """Windows in a network input: 1 for (window, features), B for a batch."""
    cfg = args[0].config
    return np.asarray(args[1]).size // (cfg.window * cfg.features)


def _loss_grads(args, result):
    """Samples a backward pass covers: one loss gradient per sample."""
    return np.asarray(args[1]).size


def _found(args, result):
    return int(result is not None)


def _tree_nodes(args, result):
    """Nodes of the fitted trees; 0 for a tree without a linked ``root``."""
    count = 0
    for tree in args[0].trees:
        stack = [tree.root] if hasattr(tree, "root") else []
        while stack:
            node = stack.pop()
            count += 1
            if node.left is not None:
                stack.extend((node.left, node.right))
    return count


def _missing(owner, attr):
    """A renamed or removed target leaves its metrics at 0 instead of failing the run."""
    print(f"tracer: {getattr(owner, '__name__', owner)}.{attr} not found; "
          "its per-layer metrics read 0", file=sys.stderr)


# (owner, attribute, span label, work counter); a function owner is the
# module that defines it, and every gridcast module that imported the
# same object by name is patched too.
TARGETS = (
    *((cls, method, f"layers.{name}.{method}", _rows if method == "forward" else None)
      for name, cls in LAYERS for method in ("forward", "backward")),
    (network.Network, "forward", "network.forward", _samples),
    (network.Network, "backward", "network.backward", _loss_grads),
    (train, "fit", "train.fit", None),
    (train, "adam_step", "train.adam_step", None),
    (train, "loss", "train.loss", None),
    (train, "evaluate_loss", "train.evaluate_loss", None),
    (train, "predict_all", "train.predict_all", None),
    (baselines, "knn_predict_batch", "baselines.knn", None),
    (baselines.BayesianRidge, "fit", "baselines.ridge", None),
    (baselines.BayesianRidge, "predict", "baselines.ridge", None),
    (baselines.RandomForest, "fit", "baselines.forest_fit", _tree_nodes),
    (baselines.RandomForest, "predict", "baselines.forest_predict", None),
    (baselines, "best_split", "baselines.best_split", _found),
    (tensor.RngState, "permutation", "tensor.permutation", None),
    (explain, "attribute", "explain.attribute", None),
    (explain, "shapley_sample", "explain.shapley_sample", None),
    (data, "synth_generate", "data.synth_generate", None),
    (data, "load_csv", "data.load_csv", None),
    (data, "make_windows", "data.make_windows", None),
    (data, "split_and_scale", "data.split_and_scale", None),
    (cli, "cmd_train", "cli.train", None),
    (cli, "cmd_compare", "cli.compare", None),
    (cli, "cmd_predict", "cli.predict", None),
    (cli, "cmd_explain", "cli.explain", None),
    (cli, "load_model", "cli.load_model", None),
    (cli, "save_model", "cli.save_model", None),
    (metrics, "regression_metrics", "metrics.regression_metrics", None),
)

# metric name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    **{f"layers.{name}.{method}_{stat}": unit
       for name, _ in LAYERS for method in ("forward", "backward")
       for stat, unit in (("calls", "count"), ("s", "s"))},
    "layers.rows_per_call": "rows",
    **{f"network.{method}_{stat}": unit for method in ("forward", "backward")
       for stat, unit in (("calls", "count"), ("s", "s"), ("self_s", "s"))},
    "network.samples_per_forward": "samples",
    "network.forward_us_per_sample": "us",
    "network.backward_us_per_sample": "us",
    "train.fit_s": "s",
    "train.fit_self_s": "s",
    "train.adam_step_calls": "count",
    "train.adam_step_s": "s",
    "train.loss_calls": "count",
    "train.loss_s": "s",
    "train.evaluate_loss_s": "s",
    "train.predict_all_s": "s",
    "baselines.knn_s": "s",
    "baselines.ridge_s": "s",
    "baselines.forest_fit_s": "s",
    "baselines.forest_predict_s": "s",
    "baselines.best_split_calls": "count",
    "baselines.best_split_s": "s",
    "baselines.best_split_useful_ratio": "ratio",
    "baselines.tree_nodes": "count",
    "tensor.permutation_calls": "count",
    "tensor.permutation_s": "s",
    "explain.attribute_s": "s",
    "explain.shapley_sample_calls": "count",
    "explain.shapley_sample_s": "s",
    "explain.model_evals": "count",
    "explain.value_lookups": "count",
    "explain.memo_hit_ratio": "ratio",
    "data.synth_generate_s": "s",
    "data.load_csv_s": "s",
    "data.make_windows_s": "s",
    "data.split_and_scale_s": "s",
    "cli.train_self_s": "s",
    "cli.compare_self_s": "s",
    "cli.predict_self_s": "s",
    "cli.explain_self_s": "s",
    "cli.load_model_s": "s",
    "cli.save_model_s": "s",
    "metrics.regression_metrics_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span store; one instance per run."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.label = array("i")
        self.parent = array("i")
        self.trace = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.trace_id = -1
        self.trace_kinds: list[str] = []
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def begin_trace(self, kind: str):
        """Start a new trace id; ``kind`` is "setup" or "iteration"."""
        self.trace_kinds.append(kind)
        self.trace_id = len(self.trace_kinds) - 1

    def wrap(self, label: str, fn, work=None):
        nid = self._label_ids.setdefault(label, len(self._label_ids))
        if nid == len(self.labels):
            self.labels.append(label)
        names, parents, traces = self.label, self.parent, self.trace
        starts, ends, works = self.start, self.end, self.work
        stack, clock, tracer = self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            traces.append(tracer.trace_id)
            ends.append(0)
            works.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work is not None:
                works[idx] = work(args, result)
            return result

        return traced

    # --- installing --------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sys.modules.items() if name.startswith("gridcast")]
        for owner, attr, label, work in TARGETS:
            original = getattr(owner, attr, None)
            if original is None:
                _missing(owner, attr)
                continue
            wrapped = self.wrap(label, original, work)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapped)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapped)
        # the memoized value function is built per window; count its
        # lookups and the model evaluations behind its cache misses
        masked_eval = getattr(explain, "_masked_eval", None)
        if masked_eval is None:
            _missing(explain, "_masked_eval")
            return

        def traced_masked_eval(model, x, background, d):
            value = masked_eval(self.wrap("explain.model_eval", model), x, background, d)
            return self.wrap("explain.value_lookup", value)

        self._patch(explain, "_masked_eval", traced_masked_eval)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # --- output ------------------------------------------------------------

    def columns(self) -> dict[str, np.ndarray]:
        # copies: a buffer view would stop the arrays from growing
        return {
            "label": np.array(self.label, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "trace": np.array(self.trace, dtype=np.int32),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "work": np.array(self.work, dtype=np.int64),
        }

    def save(self, path):
        np.savez_compressed(path, labels=np.array(self.labels),
                            trace_kinds=np.array(self.trace_kinds), **self.columns())

    def summarize(self, setups: int, iterations: int, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one workload iteration.

        Spans of set-up traces are divided by ``setups`` and spans of
        iteration traces by ``iterations``, so counts are exact per pass
        and times are means per pass.
        """
        cols = self.columns()
        n = len(cols["label"])
        dur = (cols["end_ns"] - cols["start_ns"]) / 1e9
        has_parent = cols["parent"] >= 0
        child = np.bincount(cols["parent"][has_parent], weights=dur[has_parent], minlength=n)
        per_trace = np.array([1.0 / (setups if kind == "setup" else iterations)
                              for kind in self.trace_kinds])
        weight = per_trace[cols["trace"]]
        size = len(self.labels)

        def total(values):
            return np.bincount(cols["label"], weights=weight * values, minlength=size)

        calls, incl = total(np.ones(n)), total(dur)
        excl, work = total(dur - child), total(cols["work"].astype(float))
        stats = {}
        for label, i in self._label_ids.items():
            stats[f"{label}_calls"] = calls[i]
            stats[f"{label}_s"] = incl[i]
            stats[f"{label}_self_s"] = excl[i]
            stats[f"{label}_work"] = work[i]

        def get(key):
            return float(stats.get(key, 0.0))

        def ratio(num, den):
            return num / den if den else 0.0

        out = {key: get(key) for key in PER_LAYER}
        fwd = [f"layers.{name}.forward" for name, _ in LAYERS]
        out["layers.rows_per_call"] = ratio(sum(get(f"{k}_work") for k in fwd),
                                            sum(get(f"{k}_calls") for k in fwd))
        samples = get("network.forward_work")
        out["network.samples_per_forward"] = ratio(samples, get("network.forward_calls"))
        out["network.forward_us_per_sample"] = 1e6 * ratio(get("network.forward_s"), samples)
        out["network.backward_us_per_sample"] = 1e6 * ratio(get("network.backward_s"),
                                                            get("network.backward_work"))
        out["baselines.best_split_useful_ratio"] = ratio(get("baselines.best_split_work"),
                                                         get("baselines.best_split_calls"))
        out["baselines.tree_nodes"] = get("baselines.forest_fit_work")
        evals, lookups = get("explain.model_eval_calls"), get("explain.value_lookup_calls")
        out["explain.model_evals"] = evals
        out["explain.value_lookups"] = lookups
        out["explain.memo_hit_ratio"] = 1.0 - ratio(evals, lookups) if lookups else 0.0
        out["trace.spans"] = float(sum(calls))
        out["trace.overhead_s"] = overhead_s
        return out
