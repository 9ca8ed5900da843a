"""One `sclrec run` in a fresh process, timed from inside.

    python3 benchmarks/child.py --config RUN.cfg --result OUT.json
    python3 benchmarks/child.py ... --trace SPANS.json

Untraced, the only hook is a mark at entry to the first training stage: set-up
time runs from the call of `sclrec.cli.main` (after the imports) to that mark.
Printed lines are time-stamped for the per-epoch times. Traced, every function
in `tracer.TRACED` records spans, and afterwards probes call the layers the run
never called, on the run's own data.
"""

import time

T0 = time.perf_counter()  # before the other imports, so run_s includes them

import argparse
import json
import resource
import sys
from pathlib import Path

from tracer import Tracer, patch_everywhere

SRC = Path(__file__).resolve().parent.parent / "src"


class LineClock:
    """Stand-in for stdout that passes text on and stamps each full line."""

    def __init__(self, out):
        self.out = out
        self.partial = ""
        self.lines = []

    def write(self, text):
        self.out.write(text)
        self.partial += text
        *done, self.partial = self.partial.split("\n")
        now = time.perf_counter() - T0
        self.lines.extend((now, line) for line in done)
        return len(text)

    def flush(self):
        self.out.flush()


def mark_first_stage(marks):
    def make(fn):
        def marked(*args, **kwargs):
            marks.setdefault("stage", time.perf_counter())
            return fn(*args, **kwargs)
        return marked

    for attr in ("pretrain", "finetune"):
        patch_everywhere("train", attr, make)


# Per probe method, traced layers a run of it calls; the probe runs only when
# the workload's run called none of them.
PROBE_METHODS = {
    "scl-nr": ("augment.compute_similarity", "augment.save_similarity", "augment.make_views",
               "augment.node_replication", "loss.s_info_nce", "train.pretrain",
               "train.contrastive_loss_and_grads"),
    "sgl": ("augment.edge_drop", "loss.info_nce"),
}


def run_probes(tracer, config_path):
    """Calls into the layers the run bypassed, on the run's data: one `sclrec
    run` of one pretrain epoch per method in PROBE_METHODS whose layers the run
    missed, and five `node_drop` calls (no method the workloads run uses it).
    Each probe's spans carry its own run id."""
    import dataclasses

    import numpy as np
    from sclrec import augment, cli, dataset

    called = {s[0] for s in tracer.spans}
    config = cli.parse_config(Path(config_path).read_text())
    for method, layers in PROBE_METHODS.items():
        if called.isdisjoint(layers):
            probe = dataclasses.replace(config, method=method, pretrain_epochs=1,
                                        finetune_epochs=0, out_dir=f"{config.out_dir}-probe-{method}")
            path = Path(f"{probe.out_dir}.cfg")
            path.write_text(cli.emit_config(probe))
            tracer.run = f"probe-{method}"
            if cli.main(["run", "--config", str(path)]) != 0:
                raise RuntimeError(f"probe run of {method} failed")
    tracer.run = "probe-node_drop"
    ds = dataset.split_train_test(dataset.load_ml100k(config.data_path),
                                  ratio=config.split_ratio, seed=config.seed)
    graph = dataset.build_graph(ds.train, ds.num_users, ds.num_items)
    rng = np.random.default_rng(config.seed)
    for _ in range(5):
        augment.node_drop(graph, config.rho1, rng)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--trace", help="write spans here and run the probes")
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import sclrec.cli as cli

    marks = {}
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    else:
        mark_first_stage(marks)
    clock = LineClock(sys.stdout)
    sys.stdout = clock
    try:
        marks["main"] = time.perf_counter()
        rc = cli.main(["run", "--config", args.config])
    finally:
        sys.stdout = clock.out
    run_s = time.perf_counter() - T0
    if tracer is not None:
        if rc == 0:
            run_probes(tracer, args.config)
        tracer.dump(args.trace)
    result = {
        "rc": rc,
        "run_s": run_s,
        "setup_s": marks["stage"] - marks["main"] if "stage" in marks else None,
        "lines": clock.lines,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
