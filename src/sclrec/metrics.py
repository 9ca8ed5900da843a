"""Top-K ranking evaluation: MAP, MRR, NDCG at cutoffs 3/5/10 with
training-item exclusion and per-user averaging."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from sclrec.dataset import in_sorted

DEFAULT_CUTOFFS = (3, 5, 10)
EVAL_BLOCK = 128  # users per score block: bounds the scores held at once to 128 x num_items


@dataclass(frozen=True)
class RankingReport:
    map_at: dict = field(default_factory=dict)   # K -> value in [0, 1]
    mrr_at: dict = field(default_factory=dict)
    ndcg_at: dict = field(default_factory=dict)
    num_users: int = 0

    def csv_header(self) -> str:
        ks = sorted(self.map_at)
        cols = [f"{m}@{k}" for m in ("MAP", "MRR", "NDCG") for k in ks]
        return "method," + ",".join(cols)

    def csv_row(self, method: str) -> str:
        ks = sorted(self.map_at)
        vals = [self.map_at[k] for k in ks] + [self.mrr_at[k] for k in ks] \
            + [self.ndcg_at[k] for k in ks]
        return method + "," + ",".join(f"{100.0 * v:.2f}" for v in vals)


def ndcg_at_k(ranked, relevant_set, k: int) -> float:
    if k < 1:
        raise ValueError("k must be >= 1")
    if not relevant_set:
        raise ValueError("empty relevant set")
    dcg = sum(1.0 / np.log2(r + 2) for r, item in enumerate(ranked[:k]) if item in relevant_set)
    idcg = sum(1.0 / np.log2(r + 2) for r in range(min(k, len(relevant_set))))
    return dcg / idcg


def mrr_at_k(ranked, relevant_set, k: int) -> float:
    for r, item in enumerate(ranked[:k]):
        if item in relevant_set:
            return 1.0 / (r + 1)
    return 0.0


def map_at_k(ranked, relevant_set, k: int) -> float:
    hits = 0
    precision_sum = 0.0
    for r, item in enumerate(ranked[:k]):
        if item in relevant_set:
            hits += 1
            precision_sum += hits / (r + 1)
    return precision_sum / min(k, len(relevant_set))


def evaluate(final_user: np.ndarray, final_item: np.ndarray, dataset) -> RankingReport:
    """Mean per-user metrics at DEFAULT_CUTOFFS over users with at least one
    test interaction.

    Scores EVAL_BLOCK users per matrix product with their training items set
    to -inf, so each user ranks its other items by score descending, ties by
    ascending item id, ahead of its training items; only the top
    max(DEFAULT_CUTOFFS) ranks are ordered. Per-rank and
    per-user sums run in rank and user order, as the scalar metric functions
    add them.
    """
    num_items = dataset.num_items
    test_keys = dataset.test_keys
    users, num_relevant = np.unique(test_keys // num_items, return_counts=True)
    if not len(users):
        raise ValueError("no users with test interactions to evaluate")
    train_users, train_items = np.divmod(dataset.train_keys, num_items)
    k_max = min(max(DEFAULT_CUTOFFS), num_items)
    ranks = np.arange(1, k_max + 1)
    discount = 1.0 / np.log2(ranks + 1)
    ideal = np.cumsum(discount)
    hits = np.empty((len(users), k_max), dtype=bool)
    for start in range(0, len(users), EVAL_BLOCK):
        block = users[start:start + EVAL_BLOCK]
        scores = final_user[block] @ final_item.T
        if not np.isfinite(scores).all():
            raise ValueError("non-finite scores: embeddings hold NaN or inf")
        lo, hi = np.searchsorted(train_users, [block[0], block[-1] + 1])
        rows = np.searchsorted(block, train_users[lo:hi])
        own = block[rows] == train_users[lo:hi]
        scores[rows[own], train_items[lo:hi][own]] = -np.inf
        top = top_k(scores, k_max)
        hits[start:start + len(block)] = in_sorted(test_keys, block[:, None] * num_items + top)
    gain = np.cumsum(hits * discount, axis=1)
    precision = np.cumsum(hits * (np.cumsum(hits, axis=1) / ranks), axis=1)
    first = np.where(hits.any(axis=1), hits.argmax(axis=1), k_max)
    n = len(users)
    means = {m: {} for m in ("map", "mrr", "ndcg")}
    for k in DEFAULT_CUTOFFS:
        kk = min(k, k_max)
        depth = np.minimum(k, num_relevant)
        per_user = {
            "map": precision[:, kk - 1] / depth,
            "mrr": np.where(first < kk, 1.0 / (first + 1), 0.0),
            "ndcg": gain[:, kk - 1] / ideal[np.minimum(kk, num_relevant) - 1],
        }
        for m, values in per_user.items():
            means[m][k] = float(np.cumsum(values)[-1]) / n
    return RankingReport(map_at=means["map"], mrr_at=means["mrr"], ndcg_at=means["ndcg"],
                         num_users=n)


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Column ids of each row's k best entries, by score descending then id
    ascending; ties at the k-th score are resolved exactly."""
    kth = np.partition(scores, scores.shape[1] - k, axis=1)[:, -k]
    rows, cols = np.nonzero(scores >= kth[:, None])
    order = np.lexsort((cols, -scores[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    starts = np.searchsorted(rows, np.arange(scores.shape[0]))
    pick = starts[:, None] + np.arange(k)
    return cols[pick]
