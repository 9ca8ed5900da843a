import os
from pathlib import Path

import numpy as np
import pytest

from sclrec.augment import Neighbors, SimilarityIndex
from sclrec.dataset import InteractionDataset, build_graph


def random_bipartite(rng, max_users=25, max_items=25, p=0.3):
    nu = int(rng.integers(1, max_users + 1))
    ni = int(rng.integers(1, max_items + 1))
    edges = [(u, i) for u in range(nu) for i in range(ni) if rng.random() < p]
    return build_graph(edges, nu, ni)


def dataset_from_pairs(num_users, num_items, train, test=()):
    return InteractionDataset(num_users=num_users, num_items=num_items,
                              train=frozenset(train), test=frozenset(test))


def similarity_from_tuples(user_neighbors, item_neighbors=()):
    """The SimilarityIndex whose tuple views are the given per-node lists of (id, cosine)."""
    def side(lists):
        k = max(map(len, lists), default=0)
        ids, scores = np.zeros((len(lists), k), dtype=np.int64), np.zeros((len(lists), k))
        for a, neighbors in enumerate(lists):
            ids[a, :len(neighbors)] = [b for b, _ in neighbors]
            scores[a, :len(neighbors)] = [score for _, score in neighbors]
        return Neighbors(ids=ids, scores=scores, counts=np.array([len(x) for x in lists]))
    return SimilarityIndex(users=side(user_neighbors), items=side(item_neighbors))


def ml100k_path():
    """Real MovieLens-100K u.data; tests that need it fail with a pointer when absent."""
    env = os.environ.get("SCLREC_ML100K")
    candidates = [env] if env else []
    candidates.append(str(Path(__file__).resolve().parents[1] / "data" / "ml-100k" / "u.data"))
    for c in candidates:
        if c and Path(c).is_file():
            return c
    return None


ML100K_MISSING = ("MovieLens-100K u.data not found. This environment has no "
                  "network access to fetch it; place the file at data/ml-100k/u.data "
                  "or set SCLREC_ML100K to run this check.")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


_acceptance_results = {}


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if name.startswith("test_criterion_"):
        key = name[len("test_criterion_"):]
        _acceptance_results[key] = report.outcome


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for key in sorted(_acceptance_results, key=lambda k: (int(k.split("_")[0]), k)):
        outcome = _acceptance_results[key]
        status = {"passed": "PASS", "failed": "FAIL"}.get(outcome, outcome.upper())
        terminalreporter.write_line(f"  criterion {key.replace('_', ' ')}: {status}")
