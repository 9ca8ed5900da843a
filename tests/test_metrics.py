import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclrec import metrics
from sclrec.metrics import RankingReport, evaluate, map_at_k, mrr_at_k, ndcg_at_k

from conftest import dataset_from_pairs
from oracles import rank_items


def brute_ap_at_k(ranked, relevant, k):
    hits, acc = 0, 0.0
    for r in range(min(k, len(ranked))):
        if ranked[r] in relevant:
            hits += 1
            acc += hits / (r + 1)
    return acc / min(k, len(relevant))


def brute_ndcg_at_k(ranked, relevant, k):
    dcg = sum(1 / np.log2(r + 2) for r in range(min(k, len(ranked))) if ranked[r] in relevant)
    ideal = sum(1 / np.log2(r + 2) for r in range(min(k, len(relevant))))
    return dcg / ideal


def test_rank_items_basic():
    assert list(rank_items(np.array([0.9, 0.1]), ())) == [0, 1]


def test_rank_items_exclusion():
    assert list(rank_items(np.array([0.9, 0.1, 0.5]), {0})) == [2, 1]


def test_rank_items_tie_break():
    assert list(rank_items(np.array([0.5, 0.5, 0.5]), ())) == [0, 1, 2]


def test_ndcg_cases():
    assert ndcg_at_k([3, 1, 2], {3}, 3) == pytest.approx(1.0)
    assert ndcg_at_k([1, 3, 2], {3}, 3) == pytest.approx(1 / np.log2(3))
    assert ndcg_at_k([1, 2, 4], {3}, 3) == 0.0
    with pytest.raises(ValueError):
        ndcg_at_k([1], {1}, 0)
    with pytest.raises(ValueError):
        ndcg_at_k([1], set(), 3)


def test_mrr_cases():
    assert mrr_at_k([3, 1], {3}, 3) == 1.0
    assert mrr_at_k([1, 3], {3}, 3) == 0.5
    assert mrr_at_k([1, 2, 4, 3], {3}, 3) == 0.0  # first hit outside cutoff


def test_map_cases():
    assert map_at_k([1, 2, 3], {1, 2, 3}, 3) == pytest.approx(1.0)
    assert map_at_k([9, 3, 8], {3}, 3) == pytest.approx(0.5)


def test_metrics_match_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        ranked = list(rng.permutation(n))
        relevant = set(int(x) for x in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                                  replace=False))
        k = int(rng.integers(1, 11))
        assert map_at_k(ranked, relevant, k) == brute_ap_at_k(ranked, relevant, k)
        assert ndcg_at_k(ranked, relevant, k) == pytest.approx(
            brute_ndcg_at_k(ranked, relevant, k), rel=1e-12)
        mrr = mrr_at_k(ranked, relevant, k)
        first = next((r + 1 for r in range(min(k, n)) if ranked[r] in relevant), None)
        assert mrr == (1.0 / first if first else 0.0)


def test_mrr_monotone_in_k():
    rng = np.random.default_rng(1)
    for _ in range(200):
        ranked = list(rng.permutation(10))
        relevant = {int(x) for x in rng.choice(10, size=3, replace=False)}
        vals = [mrr_at_k(ranked, relevant, k) for k in (3, 5, 10)]
        assert vals == sorted(vals)


def test_all_metrics_in_unit_interval():
    rng = np.random.default_rng(2)
    for _ in range(200):
        ranked = list(rng.permutation(12))
        relevant = {int(x) for x in rng.choice(12, size=int(rng.integers(1, 6)),
                                               replace=False)}
        for k in (3, 5, 10):
            for m in (map_at_k, mrr_at_k, ndcg_at_k):
                v = m(ranked, relevant, k)
                assert 0.0 <= v <= 1.0 + 1e-12


def test_perfect_ranking_ndcg_one():
    relevant = {0, 1, 2}
    ranked = [0, 1, 2, 3, 4]
    for k in (3, 5):
        assert ndcg_at_k(ranked, relevant, k) == pytest.approx(1.0)


def test_score_affine_invariance():
    rng = np.random.default_rng(3)
    scores = rng.normal(size=20)
    a = rank_items(scores, {4, 7})
    b = rank_items(3.7 * scores + 11.0, {4, 7})
    assert np.array_equal(a, b)


def test_evaluate_and_report():
    # 2 users, 4 items; user0 trains on item0, tests on item1
    ds = dataset_from_pairs(2, 4, train={(0, 0), (1, 1)}, test={(0, 1), (1, 2)})
    fu = np.array([[1.0, 0.0], [0.0, 1.0]])
    fi = np.array([[0.9, 0.0], [0.8, 0.9], [0.1, 0.8], [0.0, 0.0]])
    report = evaluate(fu, fi, ds)
    assert report.num_users == 2
    # user0: ranking over items {1,2,3} by score (0.8, 0.1, 0.0) -> item1 first
    # user1: ranking over items {0,2,3} by score (0.0, 0.8, 0.0) -> item2 first
    assert report.ndcg_at[3] == pytest.approx(1.0)
    assert report.mrr_at[3] == pytest.approx(1.0)
    row = report.csv_row("lightgcn")
    assert row.startswith("lightgcn,") and ",100.00" in row
    assert report.csv_header() == ("method,MAP@3,MAP@5,MAP@10,MRR@3,MRR@5,MRR@10,"
                                   "NDCG@3,NDCG@5,NDCG@10")


def test_evaluate_skips_users_without_test():
    ds = dataset_from_pairs(2, 3, train={(0, 0), (1, 1)}, test={(0, 1)})
    fu = np.eye(2)
    fi = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    report = evaluate(fu, fi, ds)
    assert report.num_users == 1


def test_evaluate_no_users_errors():
    ds = dataset_from_pairs(1, 2, train={(0, 0)}, test=set())
    with pytest.raises(ValueError):
        evaluate(np.eye(1), np.ones((2, 1)), ds)


def per_user_evaluate(final_user, final_item, dataset, cutoffs=(3, 5, 10)):
    """Oracle: one `rank_items` call per user and the scalar metric functions."""
    train_by_user, test_by_user = {}, {}
    for u, i in dataset.train:
        train_by_user.setdefault(u, set()).add(i)
    for u, i in dataset.test:
        test_by_user.setdefault(u, set()).add(i)
    out = {(m, k): 0.0 for m in ("map", "mrr", "ndcg") for k in cutoffs}
    for u in sorted(test_by_user):
        ranked = rank_items(final_user[u] @ final_item.T, train_by_user.get(u, ()))
        for k in cutoffs:
            out["map", k] += map_at_k(ranked, test_by_user[u], k)
            out["mrr", k] += mrr_at_k(ranked, test_by_user[u], k)
            out["ndcg", k] += ndcg_at_k(ranked, test_by_user[u], k)
    return {key: value / len(test_by_user) for key, value in out.items()}, len(test_by_user)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_evaluate_matches_per_user_oracle(monkeypatch, dtype):
    # blocks of 4 users; integer-valued embeddings give exact score ties; with
    # 14 items, users holding more than 4 have fewer than 10 unseen items; some
    # users have no test items and some no interactions at all
    monkeypatch.setattr(metrics, "EVAL_BLOCK", 4)
    rng = np.random.default_rng(7)
    for _ in range(20):
        nu, ni = 23, 14
        train, test = set(), set()
        for u in range(nu):
            items = rng.permutation(ni)
            n_train = int(rng.integers(0, ni))
            n_test = int(rng.integers(0, min(4, ni - n_train) + 1))
            train |= {(u, int(i)) for i in items[:n_train]}
            test |= {(u, int(i)) for i in items[n_train:n_train + n_test]}
        ds = dataset_from_pairs(nu, ni, train, test)
        fu = rng.integers(-2, 3, size=(nu, 3)).astype(dtype)
        fi = rng.integers(-2, 3, size=(ni, 3)).astype(dtype)
        report = evaluate(fu, fi, ds)
        expected, n = per_user_evaluate(fu, fi, ds)
        assert report.num_users == n
        for k in (3, 5, 10):
            assert report.map_at[k] == pytest.approx(expected["map", k], rel=1e-12)
            assert report.mrr_at[k] == pytest.approx(expected["mrr", k], rel=1e-12)
            assert report.ndcg_at[k] == pytest.approx(expected["ndcg", k], rel=1e-12)


@st.composite
def tied_scores(draw):
    """Integer scores (so rows tie), some -inf (excluded items), and a k up to the width."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    cell = st.sampled_from([-np.inf, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0])
    scores = draw(st.lists(st.lists(cell, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    return np.array(scores), draw(st.integers(1, cols))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tied_scores())
def test_top_k_is_stable_descending_argsort(case):
    # score descending, then column id ascending: the rule evaluate and the similarity index share
    scores, k = case
    expected = np.argsort(-scores, axis=1, kind="stable")[:, :k]
    assert np.array_equal(metrics.top_k(scores, k), expected)


def test_evaluate_rejects_non_finite_scores_and_bad_cutoffs():
    ds = dataset_from_pairs(2, 3, train={(0, 0)}, test={(0, 1), (1, 2)})
    fi = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        evaluate(np.array([[1.0, 0.0], [np.nan, 1.0]]), fi, ds)


@st.composite
def evaluation_case(draw):
    """A drawn dataset and integer-valued embeddings (tied scores). User 0 holds every item but
    one, one of them its test item, so fewer than 10 items outrank its training items."""
    nu, ni = draw(st.integers(1, 300)), draw(st.integers(2, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.floats(0.05, 0.9))
    held = rng.random((nu, ni)) < density
    held[0] = True
    held[0, rng.integers(ni)] = False
    test = held & (rng.random((nu, ni)) < 0.3)
    test[0] = False
    test[0, rng.choice(np.flatnonzero(held[0]))] = True
    pairs = lambda mask: {(int(u), int(i)) for u, i in zip(*np.nonzero(mask))}
    ds = dataset_from_pairs(nu, ni, pairs(held & ~test), pairs(test))
    dtype, d = draw(st.sampled_from([np.float32, np.float64])), draw(st.integers(1, 4))
    fu, fi = (rng.integers(-2, 3, size=(n, d)).astype(dtype) for n in (nu, ni))
    return ds, fu, fi


@settings(derandomize=True, max_examples=40, deadline=None)
@given(evaluation_case())
def test_evaluate_is_byte_identical_at_any_block_size(case):
    ds, fu, fi = case
    reports = []
    for block in (1, 3, 128, 256):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metrics, "EVAL_BLOCK", block)
            reports.append(evaluate(fu, fi, ds))
    assert len({repr(report) for report in reports}) == 1  # a float's repr is its exact value
    values = [v for m in (reports[0].map_at, reports[0].mrr_at, reports[0].ndcg_at)
              for v in m.values()]
    assert len(values) == 9 and all(0.0 <= v <= 1.0 for v in values)


def test_evaluate_reads_only_the_scored_users_training_pairs():
    # 40,000 training pairs and one test user: the transient is that user's block, not a
    # split of every training key (two 320 kB int64 arrays)
    rng = np.random.default_rng(8)
    held = rng.random((2000, 50)) < 0.4
    test = {(0, int(np.flatnonzero(~held[0])[0]))}
    ds = dataset_from_pairs(2000, 50, {(int(u), int(i)) for u, i in zip(*np.nonzero(held))}, test)
    fu, fi = rng.normal(size=(2000, 8)), rng.normal(size=(50, 8))
    want = evaluate(fu, fi, ds)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = evaluate(fu, fi, ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want
    assert peak - before < ds.train_keys.nbytes // 4
