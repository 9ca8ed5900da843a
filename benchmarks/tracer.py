"""Span tracing of `sclrec` from outside the package.

Functions are wrapped on module attributes at every import site: `cli`,
`train` and `augment` import `build_graph`, `evaluate`, `propagate`, the loss
functions and others by name, so wrapping only the defining module would miss
their calls. Spans (name, run id, parent span, start, end, note) are kept in
memory and written out when the run ends; the per-layer metrics are derived
from them afterwards.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

# (module, attribute) pairs that get a span per call. `train._propagate_raw`
# is the propagation the training loops use; it is optional so the harness
# keeps working once propagation has a single public entry point.
TRACED = (
    ("dataset", "load_ml100k"), ("dataset", "split_train_test"), ("dataset", "build_graph"),
    ("augment", "compute_similarity"), ("augment", "save_similarity"),
    ("augment", "make_views"), ("augment", "node_drop"), ("augment", "edge_drop"),
    ("augment", "node_replication"),
    ("gcn", "propagate"), ("gcn", "propagate_backward"), ("gcn", "save_checkpoint"),
    ("loss", "bpr_loss"), ("loss", "info_nce"), ("loss", "s_info_nce"),
    ("train", "adam_step"), ("train", "contrastive_loss_and_grads"),
    ("train", "_propagate_raw"), ("train", "pretrain"), ("train", "finetune"),
    ("metrics", "evaluate"), ("cli", "cmd_run"),
)
OPTIONAL = {("train", "_propagate_raw")}
# Every entry point that computes (1/(L+1)) sum_l A^l E; reported together.
PROPAGATION = ("gcn.propagate", "gcn.propagate_backward", "train._propagate_raw")

# (metric, unit) in the order they are printed; BENCHMARK.json lists the same.
PER_LAYER = (
    ("dataset.load_ml100k.s", "s"), ("dataset.split_train_test.s", "s"),
    ("dataset.build_graph.s", "s"), ("dataset.build_graph.calls", "count"),
    ("augment.compute_similarity.s", "s"), ("augment.compute_similarity.calls", "count"),
    ("augment.save_similarity.s", "s"), ("augment.make_views.s", "s"),
    ("augment.node_replication.s", "s"), ("augment.edge_drop.s", "s"),
    ("augment.node_drop.s", "s"), ("augment.view_edge_ratio", "ratio"),
    ("gcn.propagate.s", "s"), ("gcn.propagate.calls", "count"), ("gcn.spmm_bytes", "B"),
    ("gcn.save_checkpoint.s", "s"),
    ("loss.s_info_nce.s", "s"), ("loss.s_info_nce.calls", "count"),
    ("loss.info_nce.s", "s"), ("loss.info_nce.calls", "count"),
    ("loss.bpr_loss.s", "s"), ("loss.bpr_loss.calls", "count"),
    ("train.contrastive_loss_and_grads.s", "s"),
    ("train.contrastive_loss_and_grads.skip_ratio", "ratio"),
    ("train.adam_step.s", "s"), ("train.adam_step.calls", "count"),
    ("train.finetune.batch_s", "s"), ("train.finetune.self_s", "s"),
    ("train.pretrain.self_s", "s"),
    ("metrics.evaluate.s", "s"), ("metrics.evaluate.calls", "count"),
    ("cli.cmd_run.self_s", "s"),
    ("trace.overhead_s", "s"),
)

NAME, RUN, PARENT, START, END, NOTE = range(6)


def _views_edge_ratio(args, kwargs, result):
    source = args[0] if args else kwargs["graph"]
    return sum(v.graph.norm_adj.nnz for v in result) / (len(result) * source.norm_adj.nnz)


def _skipped(args, kwargs, result):
    return result[0] is None


# Notes recorded after a span ends, outside its timed interval.
NOTES = {"augment.make_views": _views_edge_ratio,
         "train.contrastive_loss_and_grads": _skipped}


def sclrec_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "sclrec" or name.startswith("sclrec."))]


def patch_everywhere(module: str, attr: str, make_wrapper) -> int:
    """Replace `sclrec.<module>.<attr>` in every loaded sclrec module that holds
    it; returns the number of import sites patched."""
    original = getattr(sys.modules[f"sclrec.{module}"], attr)
    wrapper = make_wrapper(original)
    sites = 0
    for mod in sclrec_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, wrapper)
                sites += 1
    leftover = [f"{m.__name__}.{n}" for m in sclrec_modules()
                for n, v in vars(m).items() if v is original]
    if leftover:
        raise RuntimeError(f"unpatched import sites: {leftover}")
    return sites


class Tracer:
    """Records one span per call of every TRACED function."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run = "run"
        self.sites = {}

    def wrap(self, name, fn):
        spans, stack, note = self.spans, self.stack, NOTES.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [name, self.run, stack[-1] if stack else -1, clock(), None, None]
            spans.append(span)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for module, attr in TRACED:
            if (module, attr) in OPTIONAL and not hasattr(sys.modules[f"sclrec.{module}"], attr):
                continue
            name = f"{module}.{attr}"
            self.sites[name] = patch_everywhere(module, attr, lambda fn, n=name: self.wrap(n, fn))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"sites": self.sites, "spans": self.spans}, fh)


def self_times(spans, name, run):
    """Duration minus the time covered by direct children, per span of `name`."""
    child_time = {}
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + s[END] - s[START]
    return [s[END] - s[START] - child_time.get(i, 0.0)
            for i, s in enumerate(spans) if s[NAME] == name and s[RUN] == run]


def layer_metrics(spans, run_s_traced, run_s_untraced, spmm_bytes):
    """Per-layer metrics from the spans of one traced run.

    Counts come from the workload's own run. A time or ratio comes from the
    run when it made the call, else from the first probe that did (the calls
    the traced child makes on the run's data for layers the run bypasses).
    """
    sources = list(dict.fromkeys(s[RUN] for s in spans))  # "run", then probes in order

    def pick(names, run):
        return [s for s in spans if s[NAME] in names and s[RUN] == run]

    def measured(names):
        return next((chosen for run in sources if (chosen := pick(names, run))), [])

    def per_call(names):
        chosen = measured(names)
        if not chosen:
            raise RuntimeError(f"no spans for {names}")
        return statistics.median(s[END] - s[START] for s in chosen)

    def self_s(name):
        return statistics.median(next(t for run in sources if (t := self_times(spans, name, run))))

    def batch_interval():
        for run in sources:
            parents = {i for i, s in enumerate(spans) if s[NAME] == "train.finetune" and s[RUN] == run}
            starts = [s[START] for s in spans if s[NAME] == "train.adam_step" and s[PARENT] in parents]
            if len(starts) >= 2:
                return statistics.median(b - a for a, b in zip(starts, starts[1:]))
        raise RuntimeError("no fine-tune batches traced")

    views = measured({"augment.make_views"})
    contrast = measured({"train.contrastive_loss_and_grads"})
    values = {
        "augment.view_edge_ratio": statistics.fmean(s[NOTE] for s in views),
        "gcn.propagate.s": per_call(set(PROPAGATION)),
        "gcn.propagate.calls": len(pick(set(PROPAGATION), "run")),
        "gcn.spmm_bytes": spmm_bytes,
        "train.contrastive_loss_and_grads.skip_ratio":
            sum(bool(s[NOTE]) for s in contrast) / len(contrast),
        "train.finetune.batch_s": batch_interval(),
        "train.finetune.self_s": self_s("train.finetune"),
        "train.pretrain.self_s": self_s("train.pretrain"),
        "cli.cmd_run.self_s": self_s("cli.cmd_run"),
        "trace.overhead_s": run_s_traced - run_s_untraced,
    }
    for metric, _unit in PER_LAYER:
        if metric in values:
            continue
        base, kind = metric.rsplit(".", 1)
        values[metric] = per_call({base}) if kind == "s" else len(pick({base}, "run"))
    return values


def check_counts(spans, workload, summary, batch_size) -> list:
    """Call counts the pipeline's structure fixes; each miss means a wrapper
    saw the wrong calls. Returns the list of violations."""
    calls = {}
    skipped = 0
    for s in spans:
        if s[RUN] == "run":
            calls[s[NAME]] = calls.get(s[NAME], 0) + 1
            skipped += s[NAME] == "train.contrastive_loss_and_grads" and bool(s[NOTE])
    p, f, b = workload.pretrain_epochs, workload.finetune_epochs, batch_size

    def n(name):
        return calls.get(name, 0)

    def batches(count):  # pretrain skips a trailing batch of one node
        return sum(1 for start in range(0, count, b) if count - start >= 2)

    contrast = p * (batches(summary["users"]) + batches(summary["items"]))
    bpr = f * -(-summary["train"] // b)
    expect = [
        ("dataset.build_graph.calls >= 1 + 2 * pretrain epochs", n("dataset.build_graph") >= 1 + 2 * p),
        ("augment.compute_similarity.calls == 0 unless scl-*",
         (n("augment.compute_similarity") >= 1) == workload.method.startswith("scl-")),
        ("augment.make_views.calls == pretrain epochs", n("augment.make_views") == p),
        ("train.contrastive_loss_and_grads.calls == contrastive batches",
         n("train.contrastive_loss_and_grads") == contrast),
        ("loss.info_nce.calls + loss.s_info_nce.calls == unskipped contrastive batches",
         n("loss.info_nce") + n("loss.s_info_nce") == contrast - skipped),
        ("loss.bpr_loss.calls == fine-tune batches", n("loss.bpr_loss") == bpr),
        ("train.adam_step.calls == fine-tune + unskipped contrastive batches",
         n("train.adam_step") == bpr + contrast - skipped),
        ("metrics.evaluate.calls >= 1 + fine-tune epochs", n("metrics.evaluate") >= 1 + f),
        ("cli.cmd_run.calls == 1", n("cli.cmd_run") == 1),
    ]
    return [f"{rule} (counts: {calls})" for rule, ok in expect if not ok]
