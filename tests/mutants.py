"""Mutation check of the tier-1 suite: every mutant below must make a test fail.

    python tests/mutants.py

Each mutant is (file, old text, new text, why, first tests). The script copies the
git index (`git checkout-index`) into a temporary directory and runs tier-1 there once
unmutated, which must pass. Then, for each mutant, it makes a fresh copy, replaces the
old text, and runs the mutant's first tests (a tier-1 file expected to kill it) with
`-x`; only if they pass does it run the whole of tier-1 with `-x`. The two acceptance
criteria that need MovieLens `u.data` (4 and 5) are deselected in every run, and
`tests/test_mutant_list.py` is left out: in a mutant tree the old text is gone by design,
so it would kill every mutant. It prints `killed by <test>` or `survived: <why>` per
mutant. A mutant whose old text does not occur exactly once fails the script, so the list
follows the code; `tests/test_mutant_list.py` checks the same in tier-1. The exit status
is 0 only when every mutant is killed. pytest does not collect this file: its name does
not start with `test_`.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NEEDS_ML100K = ("tests/test_acceptance.py::test_criterion_4_lightgcn_baseline_reproduction",
                "tests/test_acceptance.py::test_criterion_5_scl_nr_non_degradation")

MUTANTS = [
    ("src/sclrec/dataset.py", "(edges[1:] <= edges[:-1]).any()", "(edges[1:] < edges[:-1]).any()",
     "keys with a repeated key pass the keys check", "tests/test_dataset.py"),
    ("src/sclrec/dataset.py",
     "if edges.ndim != 2 or edges.shape[1] != 2 or not np.issubdtype(edges.dtype, np.integer):",
     "if edges.ndim != 2 or edges.shape[1] != 2:",
     "float and bool pairs are truncated to integer pairs instead of rejected",
     "tests/test_dataset.py"),
    ("src/sclrec/augment.py", "keys = sorted_distinct(np.concatenate([kept, *added]))",
     "keys = np.sort(np.concatenate([kept, *added]))",
     "node replication keeps an edge that two selected nodes both add twice",
     "tests/test_views_oracle.py"),
    ("src/sclrec/train.py", "ADAM_EPS = 1e-8", "ADAM_EPS = 1.0000000000000002e-08",
     "Adam's epsilon one float64 ulp larger", "tests/test_train.py"),
    ("src/sclrec/train.py", "ADAM_BETA1 = 0.9", "ADAM_BETA1 = 0.9000000000000001",
     "Adam's beta1 one float64 ulp larger", "tests/test_train.py"),
    ("src/sclrec/train.py", "ADAM_BETA2 = 0.999", "ADAM_BETA2 = 0.9990000000000001",
     "Adam's beta2 one float64 ulp larger", "tests/test_train.py"),
    ("src/sclrec/train.py", "    final[...] = 0  # dead once gathered: the scatter's target\n", "",
     "the BPR scatter adds into the forward result it reuses instead of zeros",
     "tests/test_train.py"),
    ("src/sclrec/train.py",
     'n_pairs))\n    adam = AdamState(params, {"emb": tuple(work.slots[-2:])})',
     'n_pairs))\n    adam = AdamState(params, {"emb": (work.slots[1], work.slots[3])})',
     "Adam's work buffer is the gradient it reads", "tests/test_train.py"),
    ("src/sclrec/gcn.py", "            e[a:b] = 0\n", "",
     "a layer_mean block adds its product into the layer buffer's old values",
     "tests/test_gcn.py"),
    ("src/sclrec/train.py",
     "np.divide(m, 1 - b1 ** t, out=step)\n            step *= config.lr\n",
     "np.multiply(m, config.lr, out=step)\n            step /= 1 - b1 ** t\n",
     "Adam scales by lr before the bias correction", "tests/test_train.py"),
    ("src/sclrec/augment.py", "np.fill_diagonal(s[:, c:d], -np.inf)",
     "np.fill_diagonal(s[:, c + 1:d + 1], -np.inf)",
     "the similarity chunk excludes the next node instead of each node itself",
     "tests/test_augment.py"),
    ("src/sclrec/train.py", "    part[:2] = 0  # the gradient scatters' targets, over the Gram's bytes\n", "",
     "the contrastive gradient scatters write over the Gram buffer's old bytes instead of zeros",
     "tests/test_train.py"),
    ("src/sclrec/train.py", "work=(acc2, part[4:])", "work=(acc1, part[4:])",
     "the second backward propagation writes into the first one's accumulator",
     "tests/test_train.py"),
    ("src/sclrec/train.py",
     'max(nu, ni)))\n    adam = AdamState(params, {"emb": tuple(work.slots[-2:])})',
     'max(nu, ni)))\n    adam = AdamState(params, {"emb": (work.slots[2], work.slots[5])})',
     "pretraining's Adam work buffer is the gradient it reads", "tests/test_train.py"),
    ("src/sclrec/train.py",
     "if ndcg is not None and epoch - best_epoch >= train_config.patience:",
     "if can_eval and epoch - best_epoch >= train_config.patience:",
     "fine-tuning stops early on an epoch it did not evaluate", "tests/test_train.py"),
    ("src/sclrec/train.py",
     "np.r_[s, t, :b], np.r_[t, s, :b]", "np.r_[s, :b], np.r_[t, :b]",
     "a batch pairs s with t only when s lists t, not when t lists s", "tests/test_train.py"),
    ("src/sclrec/train.py",
     "np.r_[s, t, :b], np.r_[t, s, :b]", "np.r_[s, t], np.r_[t, s]",
     "a node's two views are not each other's positives", "tests/test_train.py"),
    ("src/sclrec/train.py", "np.arange(sim.ids.shape[1]) < sim.counts[nodes, None]",
     "np.arange(sim.ids.shape[1]) <= sim.counts[nodes, None]",
     "a batch's pairs read one entry past each node's count of neighbours", "tests/test_train.py"),
    ("src/sclrec/gcn.py",
     "        for c in range(128 * i, min(128 * j, len(a)), 128):\n"
     "            np.matmul(a[c:c + 128], b, out=out[c:c + 128], casting=\"no\")\n"
     "    row_blocks(block, -(-len(a) // 128))\n",
     "        np.matmul(a[i:j], b, out=out[i:j], casting=\"no\")\n"
     "    row_blocks(block, len(a))\n",
     "matmul cuts its rows per thread, so its bits depend on the thread count", "tests/test_gcn.py"),
    ("src/sclrec/gcn.py",
     "        _pin(1)\n", "        pass\n",
     "numpy's OpenBLAS keeps the thread count its environment asks for",
     "tests/test_gcn.py"),
]


def checkout(dest: Path) -> None:
    subprocess.run(["git", "checkout-index", "-a", f"--prefix={dest}/"], cwd=ROOT, check=True)


def tier1(tree: Path, *tests: str) -> str | None:
    """The first failing test of tier-1 on `tree` (only of `tests`, when given), or None."""
    skip = [arg for test in NEEDS_ML100K for arg in ("--deselect", test)]
    skip += ["--ignore", "tests/test_mutant_list.py"]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
                          *skip, *tests], cwd=tree, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return None
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]  # "FAILED <id> - <message>"; ids may hold spaces
    return failed[0] if failed else f"pytest exit status {run.returncode}"


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="sclrec-mutants-") as tmp:
        base = Path(tmp) / "base"
        checkout(base)
        for path, old, _new, why, _first in MUTANTS:
            if (base / path).read_text().count(old) != 1:
                print(f"stale mutant ({why}): {path} does not hold its old text exactly once")
                return 2
        if failed := tier1(base):
            print(f"the unmutated tree fails tier-1 ({failed}); no mutant can be judged")
            return 2
        survived = 0
        for n, (path, old, new, why, first) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant-{n}"
            checkout(tree)
            source = tree / path
            source.write_text(source.read_text().replace(old, new))
            killer = tier1(tree, first) or tier1(tree)
            survived += not killer
            print(f"killed by {killer} ({path}: {why})" if killer else f"survived: {why}", flush=True)
    print(f"{len(MUTANTS) - survived}/{len(MUTANTS)} killed in {time.monotonic() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
