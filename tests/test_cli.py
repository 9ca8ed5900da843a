import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sclrec
from sclrec import cli, scl_threads
from sclrec.augment import AugmentationConfig, compute_similarity, save_similarity
from sclrec.cli import (ConfigError, RunConfig, cmd_compare, config_hash,
                        emit_config, main, parse_config)
from sclrec.dataset import load_ml100k, split_train_test
from sclrec.loss import LossConfig
from sclrec.train import TrainConfig

from oracles import save_similarity_reference


def write_fixture_data(path):
    """12 users holding 6 of 15 items each."""
    rng = np.random.default_rng(0)
    lines = []
    for u in range(1, 13):
        for i in rng.choice(np.arange(1, 16), size=6, replace=False):
            lines.append(f"{u}\t{i}\t{int(rng.integers(1, 6))}\t0\n")
    path.write_text("".join(lines))
    return path


@pytest.fixture
def data_file(tmp_path):
    return write_fixture_data(tmp_path / "u.data")


def write_config(tmp_path, data_file, **overrides):
    cfg = {
        "data_path": str(data_file),
        "method": "lightgcn",
        "out_dir": str(tmp_path / "out"),
        "d": 8,
        "layers": 2,
        "pretrain_epochs": 2,
        "finetune_epochs": 2,
        "eval_every": 1,
        "batch_size": 16,
        "top_n": 3,
    }
    cfg.update(overrides)
    path = tmp_path / "run.cfg"
    path.write_text("# test config\n" + "".join(f"{k} = {v}\n" for k, v in cfg.items()))
    return path


def test_parse_config_round_trip():
    cfg = RunConfig(data_path="x", method="sgl", tau=0.5, seed=3)
    again = parse_config(emit_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_readme_example_config_parses():
    # a key the README's example sets that RunConfig no longer has fails here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = parse_config(block)
    settings = [line.split("#", 1)[0].split("=") for line in block.splitlines()]
    assert len(settings) > 10
    for key, value in settings:
        assert str(getattr(config, key.strip())) == value.strip()


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config("bogus_key = 1\n")


def test_parse_config_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("seed = notanint\n")


def test_parse_config_bad_method():
    with pytest.raises(ConfigError):
        parse_config("method = magic\n")


def test_run_unknown_key_exit_2(tmp_path, data_file):
    path = tmp_path / "bad.cfg"
    path.write_text("nonsense = 1\n")
    assert main(["run", "--config", str(path)]) == 2


def test_run_missing_data_exit_1(tmp_path, data_file):
    cfg = write_config(tmp_path, tmp_path / "nope.data")
    assert main(["run", "--config", str(cfg)]) == 1


def test_run_lightgcn_artifacts(tmp_path, data_file, capsys):
    cfg = write_config(tmp_path, data_file)
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "checkpoint.sclckpt").is_file()
    assert (out / "report.csv").is_file()
    assert (out / "train.log").is_file()
    assert (out / "manifest.txt").is_file()
    assert not (out / "similarity.sclsim").exists()  # no pretraining stage
    report = (out / "report.csv").read_text().splitlines()
    assert report[0].startswith("method,MAP@3")
    assert report[1].startswith("lightgcn,")
    manifest = (out / "manifest.txt").read_text()
    assert "config_hash=" in manifest and "seed=" in manifest and "build=" in manifest
    captured = capsys.readouterr().out
    assert "users=12" in captured
    assert "stage=finetune epoch=1" in captured


def test_a_run_without_an_index_removes_an_earlier_runs_index(tmp_path, data_file, monkeypatch):
    # one out_dir, an scl-nr run, then a lightgcn run: the directory holds only the second's files
    saved = []
    monkeypatch.setattr(cli, "save_similarity", lambda index, path: saved.append(path) or
                        save_similarity(index, path))
    assert main(["run", "--config", str(write_config(tmp_path, data_file, method="scl-nr"))]) == 0
    out = tmp_path / "out"
    assert saved == [out / "similarity.sclsim"] and saved[0].is_file()
    assert main(["run", "--config", str(write_config(tmp_path, data_file))]) == 0
    assert len(saved) == 1
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint.sclckpt", "manifest.txt",
                                                     "report.csv", "train.log"]


def test_run_scl_nr_produces_similarity_cache(tmp_path, data_file):
    cfg = write_config(tmp_path, data_file, method="scl-nr")
    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    # the per-pair writer's bytes for the run's own index
    dataset = split_train_test(load_ml100k(data_file), ratio=0.8, seed=0)
    save_similarity_reference(compute_similarity(dataset.train_graph, 3), tmp_path / "ref.sclsim")
    assert (out / "similarity.sclsim").read_bytes() == (tmp_path / "ref.sclsim").read_bytes()
    log = (out / "train.log").read_text()
    assert "stage=pretrain" in log and "stage=finetune" in log


def test_run_out_dir_blocked_by_a_file_one_error_line_exit_1(tmp_path, data_file, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    cfg = write_config(tmp_path, data_file)
    assert main(["run", "--config", str(cfg), "--out", str(blocker)]) == 1
    assert capsys.readouterr().err == f"error: {blocker}: File exists\n"


@pytest.mark.parametrize("name", ["similarity.sclsim", "checkpoint.sclckpt", "report.csv",
                                  "manifest.txt"])
def test_run_artifact_blocked_by_a_directory_one_error_line_exit_1(tmp_path, data_file, capsys,
                                                                   name):
    # the stale-index unlink or an artifact's write fails: the path and the reason, no traceback
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = write_config(tmp_path, data_file, method="scl-nr")
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {out / name}: Is a directory\n"


def test_run_deterministic_reports(tmp_path, data_file):
    cfg = write_config(tmp_path, data_file, method="scl-ed")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "checkpoint.sclckpt").read_bytes() == (out2 / "checkpoint.sclckpt").read_bytes()


def test_run_seed_override_changes_hash(tmp_path, data_file):
    cfg = write_config(tmp_path, data_file)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert main(["run", "--config", str(cfg), "--seed", "1", "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--seed", "2", "--out", str(out2)]) == 0
    m1 = (out1 / "manifest.txt").read_text()
    m2 = (out2 / "manifest.txt").read_text()
    assert m1 != m2


def test_compare_merges(tmp_path, capsys):
    header = "method,MAP@3,MAP@5,MAP@10,MRR@3,MRR@5,MRR@10,NDCG@3,NDCG@5,NDCG@10"
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text(header + "\nlightgcn,1,2,3,4,5,6,7,8,9\n")
    b.write_text(header + "\nscl-nr,9,8,7,6,5,4,3,2,1\n")
    assert cmd_compare([str(a), str(b)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == header
    assert out[1].startswith("lightgcn,") and out[2].startswith("scl-nr,")


def test_compare_header_mismatch(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("method,MAP@3\nx,1\n")
    b.write_text("method,NDCG@3\ny,2\n")
    assert cmd_compare([str(a), str(b)]) != 0


def test_inspect_checkpoint(tmp_path, data_file, capsys):
    cfg = write_config(tmp_path, data_file)
    assert main(["run", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert main(["inspect-checkpoint", str(tmp_path / "out" / "checkpoint.sclckpt")]) == 0
    out = capsys.readouterr().out
    assert "num_users=12" in out and "d=8" in out and "L=2" in out


def count_build_graph(monkeypatch):
    """Counts build_graph calls at every sclrec module that imported it."""
    import sys

    import sclrec.dataset

    original, calls = sclrec.dataset.build_graph, []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("sclrec") and getattr(module, "build_graph", None) is original:
            monkeypatch.setattr(module, "build_graph", counting)
    return calls


@pytest.mark.parametrize("method, builds", [("lightgcn", 1), ("scl-ed", 1 + 2 * 2),
                                            ("scl-nd", 1 + 2 * 2), ("scl-nr", 1 + 2 * 2)])
def test_run_builds_train_graph_once(tmp_path, data_file, monkeypatch, method, builds):
    # one training graph per run; pretraining adds two views per epoch (2 epochs)
    calls = count_build_graph(monkeypatch)
    cfg = write_config(tmp_path, data_file, method=method)
    assert main(["run", "--config", str(cfg)]) == 0
    assert len(calls) == builds


@pytest.mark.parametrize("content, message", [
    (b"1\t2\t3\t0\n1 3 3 0\n", "line 2: expected 4 tab-separated fields, got 1"),
    (b"1\t2\t3\t0\n1\t\xe93\t3\t0\n", "line 2: non-ASCII byte"),
], ids=["malformed", "non-ascii"])
def test_run_bad_data_one_line_exit_1_no_out_dir(tmp_path, capsys, content, message):
    data = tmp_path / "u.data"
    data.write_bytes(content)
    cfg = write_config(tmp_path, data)
    assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {data}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_run_missing_data_leaves_no_out_dir(tmp_path, capsys):
    cfg = write_config(tmp_path, tmp_path / "nope.data")
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ratio", ["0", "1", "1.5"])
def test_run_split_ratio_out_of_range_exit_2(tmp_path, data_file, capsys, ratio):
    cfg = write_config(tmp_path, data_file, split_ratio=ratio)
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: split_ratio must be in (0, 1), got {float(ratio)}\n"
    assert not (tmp_path / "out").exists()


def cli_process(cfg, env=os.environ):
    """`python -m sclrec.cli run --config cfg` in a fresh interpreter, which
    prints whatever reaches stderr (numpy's RuntimeWarnings, say) as a user sees it."""
    src = str(Path(sclrec.__file__).resolve().parents[1])
    env = {**env, "PYTHONPATH": os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-m", "sclrec.cli", "run", "--config", str(cfg)],
                          capture_output=True, text=True, env=env, timeout=300)


GRADIENT = "non-finite gradient for parameter 'emb'"
SCORES = "non-finite scores: embeddings hold NaN or inf"
# where lr = 1e30 first meets a non-finite value: the next batch's gradient after one Adam
# step overflows the embeddings or, with one batch per epoch, the next evaluation's scores
NON_FINITE = {
    "lightgcn-finetune": ("lightgcn", {}, f"finetune epoch 1: {GRADIENT}"),
    "sgl-pretrain": ("sgl", {}, f"pretrain epoch 2: {GRADIENT}"),
    "scl-nr-pretrain": ("scl-nr", {}, f"pretrain epoch 2: {GRADIENT}"),
    "lightgcn-evaluate": ("lightgcn", {"batch_size": 1024}, f"finetune epoch 1: {SCORES}"),
    "sgl-evaluate": ("sgl", {"batch_size": 1024, "pretrain_epochs": 1}, f"finetune epoch 0: {SCORES}"),
    "scl-nr-evaluate": ("scl-nr", {"batch_size": 1024, "pretrain_epochs": 1},
                        f"finetune epoch 0: {SCORES}"),
}


@pytest.mark.parametrize("method, settings, message", NON_FINITE.values(), ids=NON_FINITE)
def test_run_non_finite_gradient_one_error_line_exit_1(tmp_path, data_file, capsys,
                                                        method, settings, message):
    cfg = write_config(tmp_path, data_file, method=method, lr="1e30", **settings)
    with np.errstate(all="ignore"):
        assert main(["run", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]
    assert not (tmp_path / "out" / "report.csv").exists()
    assert not (tmp_path / "out" / "similarity.sclsim").exists()  # written with the others


@pytest.mark.parametrize("method, settings, message", NON_FINITE.values(), ids=NON_FINITE)
def test_run_non_finite_gradient_stderr_is_one_line(tmp_path, data_file, method, settings, message):
    cfg = write_config(tmp_path, data_file, method=method, lr="1e30", **settings)
    proc = cli_process(cfg)
    assert proc.returncode == 1
    assert proc.stderr == f"error: {message}\n"


@pytest.mark.parametrize("method", ["sgl", "scl-nr"])
def test_run_skipped_batch_goes_to_train_log_not_stderr(tmp_path, data_file, method):
    # at d = 8 one contrastive batch of epoch 1 has a dead-relu row and is skipped
    cfg = write_config(tmp_path, data_file, method=method)
    proc = cli_process(cfg)
    assert proc.returncode == 0
    assert proc.stderr == ""
    skip = ("epoch 1: degenerate contrastive batch at offset 0 (no valid negatives "
            "or zero-norm projection), skipped")
    log = (tmp_path / "out" / "train.log").read_text().splitlines()
    assert log[0] == skip and log[1].startswith("stage=pretrain epoch=1 ")
    assert skip in proc.stdout.splitlines()


BAD_CONFIG_VALUES = [("tau", "0"), ("rho1", "2"), ("k_segments", "0"), ("batch_size", "0"),
                     ("d", "0"), ("eval_every", "0"), ("dtype", "float13"), ("layers", "-1"), ("patience", "-5"), ("seed", "-1"), ("tau", "nan"),
                     ("lr", "nan"), ("lambda_l2", "nan"), ("tau", "inf"), ("lr", "inf"),
                     ("lambda_l2", "inf")]


def assert_config_error_before_reading_data(tmp_path, data_file, capsys, monkeypatch,
                                            settings, key):
    def no_read(path):
        raise AssertionError("data read before the config was checked")

    monkeypatch.setattr("sclrec.cli.load_ml100k", no_read)
    cfg = write_config(tmp_path, data_file, **settings)
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError):
        parse_config("".join(f"{k} = {v}\n" for k, v in settings.items()))


@pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES, ids=[f"{k}={v}" for k, v in BAD_CONFIG_VALUES])
def test_run_bad_config_value_exit_2_before_reading_data(tmp_path, data_file, capsys,
                                                         monkeypatch, key, value):
    assert_config_error_before_reading_data(tmp_path, data_file, capsys, monkeypatch,
                                            {key: value}, key)


@pytest.mark.parametrize("method", ["sgl", "scl-nd", "scl-ed", "scl-nr"])
def test_run_pretraining_batch_size_1_exit_2_before_reading_data(tmp_path, data_file, capsys,
                                                                 monkeypatch, method):
    # a one-node contrastive batch has no negative; lightgcn's BPR batches may hold one triple
    assert_config_error_before_reading_data(tmp_path, data_file, capsys, monkeypatch,
                                            {"method": method, "batch_size": 1}, "batch_size")
    assert RunConfig(method="lightgcn", batch_size=1).batch_size == 1


# RunConfig keys that the run itself reads; `method` also picks the augmentation
RUN_LEVEL_KEYS = ("data_path", "method", "out_dir", "split_ratio", "d", "layers")
# a distinct, valid, non-default value for each key a stage config carries
STAGE_KEY_VALUES = {"rho1": 0.3, "rho2": 0.25, "rho3": 0.35, "k_segments": 2, "top_n": 4,
                    "tau": 0.5, "lambda_l2": 0.002, "lr": 0.03, "batch_size": 7,
                    "pretrain_epochs": 11, "finetune_epochs": 13, "seed": 5, "eval_every": 3,
                    "patience": 9, "dtype": "float64"}


def test_stage_configs_carry_the_run_config():
    # every RunConfig key is run-level or arrives in the stage config field of
    # its name, so a key that reaches nothing fails here
    keys = {f.name for f in dataclasses.fields(RunConfig)} - set(RUN_LEVEL_KEYS)
    assert keys == set(STAGE_KEY_VALUES)
    assert all(getattr(RunConfig(), k) != v for k, v in STAGE_KEY_VALUES.items())
    assert len({repr(v) for v in STAGE_KEY_VALUES.values()}) == len(STAGE_KEY_VALUES)
    aug, loss, train = RunConfig(method="scl-nd", **STAGE_KEY_VALUES).stage_configs()
    assert (type(aug), type(loss), type(train)) == (AugmentationConfig, LossConfig, TrainConfig)
    landed = {f.name: getattr(c, f.name) for c in (aug, loss, train) for f in dataclasses.fields(c)}
    assert {k: landed.get(k) for k in STAGE_KEY_VALUES} == STAGE_KEY_VALUES
    assert aug.method == "ND"


@pytest.mark.parametrize("method", ["lightgcn", "sgl", "scl-nr"])
def test_run_never_builds_the_frozenset_views(tmp_path, data_file, monkeypatch, method):
    from sclrec.dataset import InteractionDataset

    def refuse(self):
        raise AssertionError("a run path built a frozenset of interactions")

    monkeypatch.setattr(InteractionDataset, "train", property(refuse))
    monkeypatch.setattr(InteractionDataset, "test", property(refuse))
    cfg = write_config(tmp_path, data_file, method=method)
    assert main(["run", "--config", str(cfg)]) == 0


def test_run_negative_seed_override_exit_2(tmp_path, data_file, capsys):
    cfg = write_config(tmp_path, data_file)
    assert main(["run", "--config", str(cfg), "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("method, lines, message", [
    ("lightgcn", [f"{u}\t{u}\t5\t0" for u in range(1, 6)],
     "the split leaves no test interactions (every user has a single interaction)"),
    ("scl-nr", [f"1\t{i}\t5\t0" for i in range(1, 6)],
     "similarity needs at least 2 users and 2 items"),
], ids=["no-test-pairs", "one-user-similarity"])
def test_run_unusable_data_one_line_exit_1_no_out_dir(tmp_path, capsys, method, lines, message):
    data = tmp_path / "u.data"
    data.write_text("".join(line + "\n" for line in lines))
    cfg = write_config(tmp_path, data, method=method)
    assert main(["run", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {data}: {message}\n"
    assert not (tmp_path / "out").exists()


def test_parse_config_line_without_equals():
    with pytest.raises(ConfigError, match=r"^line 2: expected `key = value`$"):
        parse_config("seed = 1\nmethod lightgcn\n")


def test_run_repeated_key_exit_2_naming_both_lines(tmp_path, capsys):
    # the data file is missing: a run that got as far as reading it would exit 1
    cfg = write_config(tmp_path, tmp_path / "nope.data")
    cfg.write_text(cfg.read_text() + "d = 16\n")  # d is line 5 of 12
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: line 12: 'd' already set on line 5\n"
    assert not (tmp_path / "out").exists()


def test_compare_empty_report_exit_1(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    assert main(["compare", str(empty)]) == 1
    assert capsys.readouterr().err == f"error: empty report {empty}\n"


def test_run_missing_config_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert main(["run", "--config", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: config not found: {missing}\n"


def test_run_config_not_utf8_names_the_file_exit_2(tmp_path, data_file, capsys):
    cfg = write_config(tmp_path, data_file)
    start = len(cfg.read_bytes()) + len(b"method = caf")
    cfg.write_bytes(cfg.read_bytes() + b"method = caf\xe9\n")  # Latin-1, not UTF-8
    assert main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        f"error: config not UTF-8: {cfg} (byte {start}: invalid continuation byte)\n")
    assert not (tmp_path / "out").exists()


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"
# Records the BLAS thread variables and the idle-worker timeout when numpy is first imported.
NUMPY_IMPORT_HOOK = f"""
import json, os, sys
from pathlib import Path

class RecordAtNumpyImport:
    def find_spec(self, name, path=None, target=None):
        record = Path(__file__).with_name("env.json")
        if name == "numpy" and not record.exists():
            record.write_text(json.dumps({{v: os.environ.get(v) for v in {THREAD_VARS + (TIMEOUT,)!r}}}))
        return None

sys.meta_path.insert(0, RecordAtNumpyImport())
"""


def test_scl_threads_is_set_before_numpy_loads(tmp_path):
    src = Path(sclrec.__file__).resolve().parents[1]
    (tmp_path / "sitecustomize.py").write_text(NUMPY_IMPORT_HOOK)
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS + (TIMEOUT,)}
    env["SCL_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tmp_path), str(src), os.environ.get("PYTHONPATH")) if p)
    # an idle OpenBLAS worker sleeps at once by default; a timeout the user set is kept
    for timeout, want in ((None, "4"), ("9", "9")):
        (tmp_path / "env.json").unlink(missing_ok=True)
        proc = subprocess.run([sys.executable, "-m", "sclrec.cli", "--help"], capture_output=True,
                              text=True, env={**env, TIMEOUT: timeout} if timeout else env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "env.json").read_text()) == {
            **dict.fromkeys(THREAD_VARS, "1"), TIMEOUT: want}
    # the package itself imports nothing numeric, so a library user's own caps still apply
    probe = "import sys, sclrec; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.stdout == "False\n", proc.stderr


@pytest.mark.parametrize("value", ["abc", "1.5", "0", "-2"])
def test_bad_scl_threads_exit_2_before_reading_the_config(tmp_path, data_file, value):
    # none of these starts a thread: the CLI stops before numpy loads, gcn's import
    # before it makes its pool
    message = f"SCL_THREADS must be a positive integer, got '{value}'"
    env = {**os.environ, "SCL_THREADS": value}
    for cfg in (write_config(tmp_path, data_file), tmp_path / "missing.cfg"):
        proc = cli_process(cfg, env)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "out").exists()
    src = str(Path(sclrec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", "import sclrec.gcn"], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 1 and proc.stderr.splitlines()[-1] == f"ValueError: {message}"


def test_scl_threads_takes_only_a_positive_integer():
    assert scl_threads(None) is None and scl_threads("") is None
    assert [scl_threads(v) for v in ("1", "2", "16", "007")] == [1, 2, 16, 7]
    for value in ("abc", "1.5", "0", "00", "-2", "+2", " 2", "2 ", "1_0", "\u00b2", "1e1"):
        with pytest.raises(ValueError) as err:
            scl_threads(value)
        assert str(err.value) == f"SCL_THREADS must be a positive integer, got {value!r}"


def test_compare_missing_report_one_error_line_exit_1(tmp_path, capsys):
    missing = tmp_path / "missing.csv"
    assert main(["compare", str(missing)]) == 1
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


def test_inspect_missing_checkpoint_one_error_line_exit_1(tmp_path, capsys):
    missing = tmp_path / "missing.sclckpt"
    assert main(["inspect-checkpoint", str(missing)]) == 1
    assert capsys.readouterr().err == f"error: {missing}: No such file or directory\n"


def test_inspect_truncated_checkpoint_one_error_line_exit_1(tmp_path, capsys):
    cut = tmp_path / "cut.sclckpt"
    cut.write_bytes(b"SCLCKPT")
    assert main(["inspect-checkpoint", str(cut)]) == 1
    assert capsys.readouterr().err == (f"error: {cut}: truncated checkpoint: 7 bytes, "
                                       "expected at least 24\n")


def run_fresh(tmp_path, data_file, threads, **overrides):
    """`sclrec run` in a fresh interpreter with BLAS capped at `threads`."""
    out = tmp_path / f"{overrides['method']}-t{threads}"
    cfg = write_config(tmp_path, data_file, out_dir=out, d=32, layers=3, batch_size=512,
                       top_n=10, **overrides)
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["SCL_THREADS"] = str(threads)
    proc = cli_process(cfg, env)
    assert proc.returncode == 0, proc.stderr
    return out


def test_similarity_and_lightgcn_checkpoint_are_blas_thread_invariant(tmp_path):
    # large enough that OpenBLAS splits its products over both threads
    rng = np.random.default_rng(7)
    data = tmp_path / "u.data"
    popularity = 1.0 / np.arange(1, 701) ** 0.8
    lines = [f"{u}\t{i}\t3\t0\n" for u in range(1, 501)
             for i in 1 + rng.choice(700, size=int(rng.integers(10, 120)), replace=False,
                                     p=popularity / popularity.sum())]
    data.write_text("".join(lines))
    sims, checkpoints = [], []
    for threads in (1, 2):
        out = run_fresh(tmp_path, data, threads, method="scl-nr", pretrain_epochs=0,
                        finetune_epochs=0)
        sims.append((out / "similarity.sclsim").read_bytes())
        out = run_fresh(tmp_path, data, threads, method="lightgcn", finetune_epochs=1)
        checkpoints.append((out / "checkpoint.sclckpt").read_bytes())
    assert sims[0] == sims[1] and checkpoints[0] == checkpoints[1]


def test_lightgcn_artifacts_are_propagation_thread_invariant(tmp_path):
    # SCL_THREADS also cuts each propagation product into that many row blocks;
    # every row keeps adj @ e's summation order, so no artifact byte moves
    rng = np.random.default_rng(11)
    data = tmp_path / "u.data"
    lines = [f"{u}\t{i}\t3\t0\n" for u in range(1, 301)
             for i in 1 + rng.choice(400, size=int(rng.integers(5, 60)), replace=False)]
    data.write_text("".join(lines))
    outs = [run_fresh(tmp_path, data, threads, method="lightgcn", finetune_epochs=2,
                      eval_every=1) for threads in (1, 2, 3)]
    for name in ("checkpoint.sclckpt", "report.csv", "train.log"):
        assert len({(out / name).read_bytes() for out in outs}) == 1, name


# Counts the threads the package starts, and the sclrec functions that run on them.
THREAD_PROBE = """
import threading
before = threading.active_count()
import sclrec.cli as cli
from sclrec import gcn
from sclrec.dataset import build_graph
assert threading.active_count() == before, "import"
state = gcn.init_embeddings(30, 40, 8, seed=0)
gcn.save_checkpoint("ck.sclckpt", state)
open("report.csv", "w").write("ndcg10\\n1.0\\n")
assert cli.main(["inspect-checkpoint", "ck.sclckpt"]) == 0 == cli.main(["compare", "report.csv"])
assert threading.active_count() == before, "inspect-checkpoint or compare"
on_workers = set()

def profile(frame, event, arg):
    if event == "call" and "sclrec" in frame.f_code.co_filename:
        on_workers.add(frame.f_code.co_name)

threading.setprofile(profile)  # every thread started from here on, not this one
graph = build_graph([(u, (u * j) % 40) for u in range(30) for j in range(1, 9)], 30, 40)
gcn.propagate(state, graph)
print(threading.active_count() - before, sorted(on_workers))
"""


@pytest.mark.parametrize("threads,started", [(1, "0 []"), (2, "1 ['block']")])
def test_threads_start_at_the_first_split_product_and_run_only_the_kernel(
        tmp_path, threads, started):
    # import, compare and inspect-checkpoint start no thread; benchmarks/tracer.py's
    # spans assume the main thread, so no traced function may run on a worker
    src = str(Path(sclrec.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(SCL_THREADS=str(threads), PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", THREAD_PROBE], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == started


# Runs scl-nr's similarity and one contrastive batch, and names the sclrec functions that ran on
# the pool's workers and those of them that benchmarks/tracer.py wraps.
SCL_THREAD_PROBE = """
import importlib, json, sys, threading
sys.dont_write_bytecode = True
sys.path.insert(0, sys.argv[1])
import numpy as np
from tracer import TRACED
from sclrec.augment import compute_similarity, edge_drop
from sclrec.dataset import build_graph
from sclrec.gcn import init_embeddings, init_head
from sclrec.train import contrastive_loss_and_grads
traced = {getattr(module, attr).__code__: f"{name}.{attr}" for name, attr in TRACED
          if hasattr(module := importlib.import_module(f"sclrec.{name}"), attr)}
on_workers = set()

def profile(frame, event, arg):
    if event == "call" and "sclrec" in frame.f_code.co_filename:
        on_workers.add(frame.f_code)

rng = np.random.default_rng(0)
nu, ni = 150, 200
graph = build_graph([(u, i) for u in range(nu) for i in rng.choice(ni, 8, replace=False)], nu, ni)
threading.setprofile(profile)  # the pool's threads start at compute_similarity's first split
sim = compute_similarity(graph, 5)
e0 = init_embeddings(nu, ni, 16, seed=0).stacked()
head = init_head(16, 16, 16, seed=1)
head.b1[:] = 1.0  # every hidden unit live, so no projected row is zero
adj1, adj2 = (edge_drop(graph, 0.2, rng).graph.norm_adj for _ in range(2))
loss, _, _ = contrastive_loss_and_grads(e0, adj1, adj2, 3, head, rng.permutation(nu)[:100],
                                        (0, nu), sim.users.pair_matrix(), 0.2)
assert loss is not None
print(json.dumps([sorted({code.co_name for code in on_workers}),
                  sorted(traced[code] for code in on_workers if code in traced)]))
"""


def test_scl_nr_similarity_and_contrastive_batch_run_no_traced_function_on_a_worker(tmp_path):
    # benchmarks/tracer.py's spans assume the main thread; the row-block passes of the
    # similarity index, the contrastive loss and the one-sided layers stay inside `block`s
    src = str(Path(sclrec.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(SCL_THREADS="2", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    benchmarks = Path(__file__).resolve().parents[1] / "benchmarks"
    proc = subprocess.run([sys.executable, "-c", SCL_THREAD_PROBE, str(benchmarks)],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names, traced = json.loads(proc.stdout.splitlines()[-1])
    assert "block" in names and traced == [], names
