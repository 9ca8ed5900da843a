"""Every run artifact's sha256 against `golden_hashes.json`, per environment.

A change that moves an artifact's bytes on purpose edits the registry in its own
diff: `PYTHONPATH=src python tests/test_golden_hashes.py` rewrites this
environment's entry from the current source.
"""

import ctypes
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from sclrec.cli import main
from sclrec.gcn import init_embeddings, load_checkpoint

from test_cli import write_config, write_fixture_data

REGISTRY = Path(__file__).with_name("golden_hashes.json")
METHODS = ("lightgcn", "sgl", "scl-nd", "scl-ed", "scl-nr")
ARTIFACTS = ("checkpoint.sclckpt", "report.csv", "train.log", "similarity.sclsim")


def environment() -> str:
    """What decides the artifacts' bits besides the source: numpy and scipy, the CPU
    dispatch targets numpy uses on this host and the OpenBLAS core numpy loads."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    targets = " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))
    core = "unknown"
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            core = corename().decode()
    return f"numpy {np.__version__}, scipy {scipy.__version__}, cpu {targets}, openblas {core}"


def write_synthetic(path):
    """300 users in 10 groups, each holding 10-40 of 400 items, three quarters of them
    from its group's 40: enough signal that two fine-tune epochs beat the initial draw."""
    rng = np.random.default_rng(0)
    lines = []
    for u in range(300):
        n = int(rng.integers(10, 41))
        own = rng.choice(np.arange(40) + 40 * (u % 10), size=3 * n // 4, replace=False)
        other = rng.choice(400, size=n - len(own), replace=False)
        lines += [f"{u + 1}\t{i + 1}\t1\t0\n" for i in np.unique(np.concatenate([own, other]))]
    path.write_text("".join(lines))
    return path


# data set: (writer, settings over test_cli's write_config); the synthetic set's
# contrastive batches span several 128-row blocks
DATA_SETS = {
    "fixture": (write_fixture_data, {}),
    "synthetic": (write_synthetic, {"d": 16, "batch_size": 256, "layers": 3, "top_n": 10}),
}


def artifact_hashes(tmp_path, data_set) -> dict:
    """{"method/dtype": {artifact: sha256}} of one run per method and dtype."""
    write, settings = DATA_SETS[data_set]
    work = tmp_path / data_set
    work.mkdir()
    data = write(work / "u.data")
    hashes = {}
    for method in METHODS:
        for dtype in ("float32", "float64"):
            out = work / f"{method}-{dtype}"
            cfg = write_config(work, data, method=method, dtype=dtype, **settings)
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            hashes[f"{method}/{dtype}"] = {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ARTIFACTS if (out / name).exists()}
    return hashes


def golden(data_set: str) -> dict:
    entry = json.loads(REGISTRY.read_text()).get(environment())
    if entry is None:
        pytest.fail(f"no golden hashes for this environment: {environment()}", pytrace=False)
    return entry[data_set]


def test_artifacts_match_golden_hashes_on_test_cli_fixture(tmp_path):
    expected = golden("fixture")
    assert artifact_hashes(tmp_path, "fixture") == expected


def test_artifacts_match_golden_hashes_on_synthetic_set(tmp_path):
    expected = golden("synthetic")
    assert artifact_hashes(tmp_path, "synthetic") == expected
    # lightgcn's best epoch is > 0: its checkpoints pin training, not the initial draw
    initial = init_embeddings(300, 400, 16, 0, dtype=np.float32, L=3)
    for dtype in ("float32", "float64"):
        state, _ = load_checkpoint(tmp_path / "synthetic" / f"lightgcn-{dtype}" / "checkpoint.sclckpt")
        assert not np.array_equal(state.user_emb, initial.user_emb)


if __name__ == "__main__":
    import contextlib
    import io
    import tempfile

    registry = json.loads(REGISTRY.read_text()) if REGISTRY.exists() else {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        registry[environment()] = {name: artifact_hashes(Path(tmp), name) for name in DATA_SETS}
    REGISTRY.write_text(json.dumps(registry, indent=1, sort_keys=True) + "\n")
    print(f"{REGISTRY}: wrote the entry for {environment()}")
