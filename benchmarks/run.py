"""The sclrec benchmark: one workload as a closed loop of `sclrec run`s.

    python3 benchmarks/run.py --workload ft-ml100k --seed 0 --seconds 60 --trace 0

Generates the workload's `u.data` from the seed, then runs `sclrec run` on it
one process at a time until the next run would pass `--seconds`, each in a
fresh process with BLAS threads capped at nproc (SCL_THREADS). Every run must
pass the output-correctness gate. With `--trace 0` it reports the end-to-end
metrics; with `--trace 1` it alternates untraced and traced runs and reports
the per-layer metrics. The last line of stdout is one JSON object.
"""

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import synth
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RUN_TIMEOUT_S = 170  # the whole benchmark must end within 180 s


# Settings shared by every workload.
BATCH_SIZE = 1024
D = 128
LAYERS = 3


@dataclass(frozen=True)
class Workload:
    method: str
    pretrain_epochs: int
    finetune_epochs: int

    def config(self, data_path, out_dir, seed) -> str:
        settings = {
            "data_path": data_path, "out_dir": out_dir, "method": self.method, "seed": seed,
            "d": D, "layers": LAYERS, "batch_size": BATCH_SIZE,
            "dtype": "float32", "pretrain_epochs": self.pretrain_epochs,
            "finetune_epochs": self.finetune_epochs, "eval_every": 1,
        }
        return "".join(f"{key} = {value}\n" for key, value in settings.items())


# Why each exists: benchmarks/README.md.
WORKLOADS = {
    "ft-ml100k": Workload("lightgcn", pretrain_epochs=0, finetune_epochs=3),
    "pt-nr-ml100k": Workload("scl-nr", pretrain_epochs=4, finetune_epochs=1),
}
END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("epoch_s", "s"),
              ("peak_rss_mb", "MiB"), ("ndcg10", "%"))
REPORT_HEADER = "method,MAP@3,MAP@5,MAP@10,MRR@3,MRR@5,MRR@10,NDCG@3,NDCG@5,NDCG@10"


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def environment(workload_name, seed) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    head = ROOT / ".git" / "HEAD"
    git_sha = head.read_text().strip() if head.is_file() else None
    if git_sha and git_sha.startswith("ref: "):
        ref = ROOT / ".git" / git_sha[5:]
        git_sha = ref.read_text().strip() if ref.is_file() else None
    source = hashlib.sha256()
    for path in sorted((SRC / "sclrec").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload_name, "seed": seed,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "SCL_THREADS": os.environ["SCL_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "git_sha": git_sha, "source_sha256": source.hexdigest(),
    }


def parse_lines(lines):
    """The run's summary counts and (stage, seconds-since-start) per epoch line."""
    summary, epochs = None, []
    for t, line in lines:
        fields = dict(f.split("=", 1) for f in line.split() if "=" in f)
        if line.startswith("users=") and summary is None:
            summary = {k: int(fields[k]) for k in ("users", "items", "train", "test")}
        elif line.startswith("stage="):
            epochs.append((fields["stage"], t))
    return summary, epochs


def report_values(path, method) -> list:
    """The nine report values; ValueError unless each parses, is finite and
    lies in [0, 100]."""
    lines = Path(path).read_text().splitlines()
    if len(lines) != 2 or lines[0] != REPORT_HEADER:
        raise ValueError(f"report.csv malformed: {lines!r}")
    cells = lines[1].split(",")
    if cells[0] != method or len(cells) != 10:
        raise ValueError(f"report.csv row malformed: {lines[1]!r}")
    values = [float(c) for c in cells[1:]]
    if not all(math.isfinite(v) and 0.0 <= v <= 100.0 for v in values):
        raise ValueError(f"report.csv value not finite or outside [0, 100]: {lines[1]!r}")
    return values


class Bench:
    def __init__(self, name, seed, seconds, trace, work):
        self.workload = WORKLOADS[name]
        self.seed, self.seconds, self.trace, self.work = seed, seconds, trace, work
        self.runs = []
        self.reference = None  # artifact hashes of the first passing run
        self.started = time.perf_counter()

    def generate(self):
        data = synth.generate(self.seed)
        if synth.generate(self.seed) != data:
            raise RuntimeError(f"generator is not deterministic for seed {self.seed}")
        self.data = self.work / "u.data"
        self.data.write_bytes(data)

    def run_once(self, traced):
        k = len(self.runs)
        out = self.work / f"run{k}"
        cfg = self.work / f"run{k}.cfg"
        cfg.write_text(self.workload.config(self.data, out, self.seed))
        result_path = self.work / f"run{k}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(cfg),
               "--result", str(result_path)]
        if traced:
            cmd += ["--trace", str(self.work / f"run{k}.spans.json")]
        timeout = max(10.0, RUN_TIMEOUT_S - (time.perf_counter() - self.started))
        start = time.perf_counter()
        log = self.work / f"run{k}.log"
        with open(log, "w") as fh:
            try:
                subprocess.run(cmd, stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT, timeout=timeout)
            except subprocess.TimeoutExpired:
                pass  # no result file: reported below
        run = {"traced": traced, "wall": time.perf_counter() - start, "problems": []}
        self.runs.append(run)
        if not result_path.is_file():
            run["problems"].append(f"run died without a result; log tail: {log.read_text()[-2000:]}")
            return run
        run.update(json.loads(result_path.read_text()))
        run["problems"] += self.check(run, out, log)
        if traced and not run["problems"]:
            run["spans"] = json.loads((self.work / f"run{k}.spans.json").read_text())["spans"]
            run["problems"] += tracer.check_counts(run["spans"], self.workload, run["summary"],
                                                   BATCH_SIZE)
        return run

    def check(self, run, out, log) -> list:
        if run["rc"] != 0:
            return [f"exit code {run['rc']}; log tail: {log.read_text()[-2000:]}"]
        problems = []
        try:
            run["ndcg10"] = report_values(out / "report.csv", self.workload.method)[-1]
        except ValueError as exc:
            problems.append(str(exc))
        run["summary"], run["epochs"] = parse_lines(run["lines"])
        s = run["summary"]
        want = (synth.NUM_USERS, synth.NUM_ITEMS, synth.NUM_INTERACTIONS)
        if s is None or (s["users"], s["items"], s["train"] + s["test"]) != want:
            problems.append(f"loaded counts {s} differ from the generated {want}")
        if len(run["epochs"]) != self.workload.pretrain_epochs + self.workload.finetune_epochs:
            problems.append(f"expected one line per epoch, got {len(run['epochs'])}")
        hashes = {name: sha256(out / name) for name in ("report.csv", "checkpoint.sclckpt")}
        run["hashes"] = hashes
        if self.reference is None and not problems:
            self.reference = hashes
        elif self.reference is not None and hashes != self.reference:
            kind = "traced run" if run["traced"] else "repeat"
            problems.append(f"{kind} artifacts differ from the first run: {hashes} != {self.reference}")
        return problems

    def loop(self):
        """Closed loop: the next run starts when the previous exits, while it
        can still finish within --seconds; traced mode runs untraced/traced pairs."""
        deadline = time.perf_counter() + self.seconds
        per_round = 2 if self.trace else 1
        while True:
            for traced in (False, True)[:per_round]:
                self.run_once(traced)
            longest = max(r["wall"] for r in self.runs)
            elapsed = time.perf_counter() - self.started
            if (time.perf_counter() + per_round * longest > deadline
                    or elapsed + per_round * longest > RUN_TIMEOUT_S):
                return

    def end_to_end(self):
        good = [r for r in self.runs if not r["problems"] and not r["traced"]]
        intervals = []
        for r in good:
            for (stage_a, ta), (stage_b, tb) in zip(r["epochs"], r["epochs"][1:]):
                if stage_a == stage_b:
                    intervals.append(tb - ta)
        samples = {
            "run_s": [r["run_s"] for r in good],
            "setup_s": [r["setup_s"] for r in good],
            "epoch_s": intervals,
            "peak_rss_mb": [r["peak_rss_mb"] for r in good],
            "ndcg10": [r["ndcg10"] for r in good],
        }
        return {name: (statistics.median(samples[name]), unit, len(samples[name]))
                for name, unit in END_TO_END if samples[name]}

    def per_layer(self):
        untraced = [r["run_s"] for r in self.runs if not r["problems"] and not r["traced"]]
        traced = [r for r in self.runs if not r["problems"] and r["traced"]]
        if not untraced or not traced:
            return {}
        s = traced[0]["summary"]
        # One propagation of the training graph: per layer, the CSR values and
        # column indices (4 + 4 bytes per nonzero) plus one dense n x d float32
        # read and write. Computed, not measured.
        spmm_bytes = LAYERS * (2 * s["train"] * 8 + 2 * (s["users"] + s["items"]) * D * 4)
        per_run = [tracer.layer_metrics(r["spans"], r["run_s"], statistics.median(untraced), spmm_bytes)
                   for r in traced]
        # Counts repeat exactly; times take the median over the traced runs.
        return {name: (statistics.median_low(m[name] for m in per_run) if unit in ("count", "B")
                       else statistics.median(m[name] for m in per_run), unit, len(per_run))
                for name, unit in tracer.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement time budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sclrec" / "cli.py").is_file():
        print(f"error: no sclrec source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    threads = os.environ.setdefault("SCL_THREADS", str(len(os.sched_getaffinity(0))))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-{args.seed}-", dir=WORK) as tmp:
        bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), Path(tmp))
        bench.generate()
        bench.loop()
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    for k, run in enumerate(bench.runs):
        kind = "traced" if run["traced"] else "untraced"
        status = "ok" if not run["problems"] else "FAILED: " + "; ".join(run["problems"])
        setup = run.get("setup_s")
        print(f"run {k} {kind} {run.get('run_s', run['wall']):.3f} s"
              + (f" setup {setup:.3f} s" if setup is not None else "")
              + f" hashes={run.get('hashes')} {status}")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} = {value} {unit} (median of {n})")
    failed = sum(1 for r in bench.runs if r["problems"])
    expected = tracer.PER_LAYER if args.trace else END_TO_END
    correct = failed == 0 and len(metrics) == len(expected)
    print(json.dumps({
        "correct": correct,
        "attempted": len(bench.runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
