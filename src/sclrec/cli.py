"""Command-line front end: run (full pipeline), compare (merge report CSVs),
inspect-checkpoint."""

from __future__ import annotations

import os
import sys

from sclrec import scl_threads

# one BLAS thread, set before numpy loads: SCL_THREADS sizes only gcn's pool
os.environ.update(dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
try:
    scl_threads(os.environ.get("SCL_THREADS"))
except ValueError as exc:  # a bad SCL_THREADS, on which gcn's import raises, is a usage error
    print(f"error: {exc}", file=sys.stderr)
    sys.exit(2)

import argparse
import hashlib
from dataclasses import asdict, dataclass, fields, make_dataclass, replace
from pathlib import Path

import numpy as np

from sclrec.augment import AugmentationConfig, compute_similarity, save_similarity
from sclrec.dataset import ParseError, load_ml100k, split_train_test
from sclrec.gcn import init_embeddings, load_checkpoint, save_checkpoint
from sclrec.loss import LossConfig
from sclrec.train import TrainConfig, finetune, pretrain

METHODS = ("lightgcn", "sgl", "scl-nd", "scl-ed", "scl-nr")
METHOD_AUG = {"scl-nd": "ND", "scl-ed": "ED", "scl-nr": "NR", "sgl": "ED"}
STAGE_CONFIGS = (AugmentationConfig, LossConfig, TrainConfig)


@dataclass
class _RunKeys:
    """The keys the run itself reads; `RunConfig` adds every stage config field."""
    data_path: str = ""
    method: str = "lightgcn"
    out_dir: str = "out"
    split_ratio: float = 0.8
    seed: int = 0
    d: int = 128
    layers: int = 3

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError(f"split_ratio must be in (0, 1), got {self.split_ratio}")
        for name, low in (("d", 1), ("layers", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        _aug, _loss, train = self.stage_configs()  # each checks the values it takes
        if self.method != "lightgcn" and train.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2 to pretrain, got {train.batch_size}")

    def stage_configs(self):
        """The (AugmentationConfig, LossConfig, TrainConfig) of this run: each field
        takes the run's value of its name, the augmentation method from `method`."""
        values = {**asdict(self), "method": METHOD_AUG.get(self.method, "ED")}
        return tuple(cls(**{f.name: values[f.name] for f in fields(cls)})
                     for cls in STAGE_CONFIGS)


# A stage field that a run key names (the augmentation `method`, the `seed`) comes from the run.
RunConfig = make_dataclass(
    "RunConfig",
    [(f.name, f.type, f.default) for cls in STAGE_CONFIGS for f in fields(cls)
     if f.name not in {k.name for k in fields(_RunKeys)}],
    bases=(_RunKeys,), namespace={"__module__": __name__})


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> RunConfig:
    """Flat `key = value` lines; `#` starts a comment; unknown and repeated keys rejected."""
    types = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}
    values, first_line = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if first_line.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: {key!r} already set on line {first_line[key]}")
        try:
            values[key] = types[key](val)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key}: {val!r}") from None
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def emit_config(config: RunConfig) -> str:
    return "".join(f"{f.name} = {getattr(config, f.name)}\n" for f in fields(RunConfig))


def config_hash(config: RunConfig) -> str:
    return hashlib.sha256(emit_config(config).encode()).hexdigest()


def fail(reason, code: int = 1) -> int:
    """Print one `error:` line to stderr; return the exit code."""
    print(f"error: {reason}", file=sys.stderr)
    return code


def cmd_run(config: RunConfig) -> int:
    if not Path(config.data_path).is_file():
        return fail(f"dataset not found: {config.data_path}")
    try:
        dataset = split_train_test(load_ml100k(config.data_path),
                                   ratio=config.split_ratio, seed=config.seed)
    except ParseError as exc:
        return fail(exc)
    if len(dataset.test_keys) == 0:
        return fail(f"{config.data_path}: the split leaves no test interactions "
                    "(every user has a single interaction)")
    aug, loss_cfg, train_cfg = config.stage_configs()
    sim_index = None
    if config.method.startswith("scl-"):  # supervised InfoNCE; sgl pretrains without the index
        try:
            sim_index = compute_similarity(dataset.train_graph, aug.top_n)
        except ValueError as exc:
            return fail(f"{config.data_path}: {exc}")
    out = Path(config.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in the way, or no permission
        return fail(f"{config.out_dir}: {exc.strerror}")
    log_lines = []

    def log_fn(line):
        log_lines.append(line)
        print(line)

    print(dataset.summary())
    state = init_embeddings(dataset.num_users, dataset.num_items, config.d,
                            config.seed, dtype=train_cfg.np_dtype, L=config.layers)
    head = None
    try:  # overflow and NaN end in a gradient or score finiteness check, reported as one line
        with np.errstate(over="ignore", invalid="ignore"):
            if config.method != "lightgcn":
                state, head, _curve = pretrain(dataset, sim_index, aug, state, loss_cfg,
                                               train_cfg, log_fn=log_fn)
            state, report, _history = finetune(dataset, state, loss_cfg, train_cfg,
                                               log_fn=log_fn)
    except FloatingPointError as exc:  # the check names its stage and epoch
        return fail(exc)

    csv_text = report.csv_header() + "\n" + report.csv_row(config.method) + "\n"
    try:  # a directory in an artifact's place, no permission, a full disk
        (out / "similarity.sclsim").unlink(missing_ok=True)  # another run's index must not outlive it
        if sim_index is not None:
            save_similarity(sim_index, out / "similarity.sclsim")
        save_checkpoint(out / "checkpoint.sclckpt", state, head)
        (out / "report.csv").write_text(csv_text)
        (out / "train.log").write_text("".join(line + "\n" for line in log_lines))
        (out / "manifest.txt").write_text(
            f"config_hash={config_hash(config)}\nseed={config.seed}\n"
            f"build=sclrec-{sclrec_version()}\n")
    except OSError as exc:
        return fail(f"{exc.filename or out}: {exc.strerror or exc}")
    print(csv_text, end="")
    return 0


def sclrec_version() -> str:
    try:
        from importlib.metadata import version
        return version("sclrec")
    except Exception:
        return "dev"


def cmd_compare(paths) -> int:
    header = None
    rows = []
    for p in paths:
        try:
            text = Path(p).read_text()
        except (OSError, ValueError) as exc:  # missing, unreadable or not text
            return fail(f"{p}: {exc.strerror if isinstance(exc, OSError) else exc}")
        lines = text.strip().splitlines()
        if not lines:
            return fail(f"empty report {p}")
        if header is None:
            header = lines[0]
        elif lines[0] != header:
            return fail(f"header mismatch in {p}")
        blank = text[:len(text) - len(text.lstrip())].count("\n")  # lines before the header
        for number, row in enumerate(lines[1:], 2 + blank):
            if row.count(",") != header.count(","):
                return fail(f"{p}: line {number}: expected {header.count(',') + 1} fields, "
                            f"got {row.count(',') + 1}")
        rows.extend(lines[1:])
    print(header)
    for row in rows:
        print(row)
    return 0


def cmd_inspect_checkpoint(path) -> int:
    try:
        state, head = load_checkpoint(path)
    except (OSError, ValueError) as exc:  # load_checkpoint's ValueErrors name the path
        return fail(f"{path}: {exc.strerror}" if isinstance(exc, OSError) else exc)
    print(f"num_users={state.user_emb.shape[0]} num_items={state.item_emb.shape[0]} "
          f"d={state.d} L={state.L} head={'yes' if head is not None else 'no'}")
    print(f"user_emb_norm={np.linalg.norm(state.user_emb):.6f} "
          f"item_emb_norm={np.linalg.norm(state.item_emb):.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sclrec")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the full pipeline from a config file")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default=None)
    cmp_ = sub.add_parser("compare", help="merge report CSVs into one table")
    cmp_.add_argument("csvs", nargs="+")
    ins = sub.add_parser("inspect-checkpoint", help="print checkpoint header")
    ins.add_argument("path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        cfg_path = Path(args.config)
        if not cfg_path.is_file():
            return fail(f"config not found: {args.config}", code=2)
        overrides = {k: v for k, v in (("seed", args.seed), ("out_dir", args.out)) if v is not None}
        try:
            config = replace(parse_config(cfg_path.read_text(encoding="utf-8")), **overrides)
        except UnicodeDecodeError as exc:
            return fail(f"config not UTF-8: {args.config} (byte {exc.start}: {exc.reason})", code=2)
        except ValueError as exc:  # a ConfigError, or an override RunConfig rejects
            return fail(exc, code=2)
        return cmd_run(config)
    if args.command == "compare":
        return cmd_compare(args.csvs)
    return cmd_inspect_checkpoint(args.path)


if __name__ == "__main__":
    sys.exit(main())
