"""Mutation check of the tier-1 suite: every mutant below must make a test fail.

    python tests/mutants.py

Each mutant is (file, old text, new text, why). The script copies the git index
(`git checkout-index`) into a temporary directory and runs tier-1 there once
unmutated, which must pass. Then, for each mutant, it makes a fresh copy, replaces the
old text, and runs tier-1 with `-x`. The two acceptance criteria that need MovieLens
`u.data` (4 and 5) are deselected in every run. It prints `killed` or
`survived: <why>` per mutant. A mutant whose old text does not occur exactly once
fails the script, so the list follows the code. The exit status is 0 only when every
mutant is killed. pytest does not collect this file: its name does not start with
`test_`.
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
     "keys with a repeated key pass the keys check"),
    ("src/sclrec/dataset.py",
     "if edges.ndim != 2 or edges.shape[1] != 2 or not np.issubdtype(edges.dtype, np.integer):",
     "if edges.ndim != 2 or edges.shape[1] != 2:",
     "float and bool pairs are truncated to integer pairs instead of rejected"),
    ("src/sclrec/augment.py", "keys = sorted_distinct(np.concatenate([kept, *added]))",
     "keys = np.sort(np.concatenate([kept, *added]))",
     "node replication keeps an edge that two selected nodes both add twice"),
    ("src/sclrec/train.py", "ADAM_EPS = 1e-8", "ADAM_EPS = 1.0000000000000002e-08",
     "Adam's epsilon one float64 ulp larger"),
    ("src/sclrec/train.py", "ADAM_BETA1 = 0.9", "ADAM_BETA1 = 0.9000000000000001",
     "Adam's beta1 one float64 ulp larger"),
    ("src/sclrec/train.py", "ADAM_BETA2 = 0.999", "ADAM_BETA2 = 0.9990000000000001",
     "Adam's beta2 one float64 ulp larger"),
]


def checkout(dest: Path) -> None:
    subprocess.run(["git", "checkout-index", "-a", f"--prefix={dest}/"], cwd=ROOT, check=True)


def tier1(tree: Path) -> int:
    """tier-1's exit status on `tree`, stopping at the first failure."""
    deselect = [arg for test in NEEDS_ML100K for arg in ("--deselect", test)]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *deselect], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory(prefix="sclrec-mutants-") as tmp:
        base = Path(tmp) / "base"
        checkout(base)
        for path, old, _new, why in MUTANTS:
            if (base / path).read_text().count(old) != 1:
                print(f"stale mutant ({why}): {path} does not hold its old text exactly once")
                return 2
        if tier1(base) != 0:
            print("the unmutated tree fails tier-1; no mutant can be judged")
            return 2
        survived = 0
        for n, (path, old, new, why) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant-{n}"
            checkout(tree)
            source = tree / path
            source.write_text(source.read_text().replace(old, new))
            killed = tier1(tree) != 0
            survived += not killed
            print(f"killed ({path}: {why})" if killed else f"survived: {why}", flush=True)
    print(f"{len(MUTANTS) - survived}/{len(MUTANTS)} killed in {time.monotonic() - start:.0f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
