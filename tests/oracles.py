"""Test-only oracles: the naive references the vectorised losses, ranking,
propagation and similarity index are checked against, and the per-pair
`.sclsim` writer."""

import struct

import numpy as np

from sclrec.augment import SIM_MAGIC, Neighbors
from sclrec.loss import ContrastBatch
from sclrec.metrics import top_k


def rank_items(user_scores: np.ndarray, train_exclusions) -> np.ndarray:
    """All items sorted by score descending, training items removed,
    ties broken by ascending item id."""
    scores = np.asarray(user_scores, dtype=np.float64)
    ids = np.arange(scores.shape[0])
    keep = np.ones(scores.shape[0], dtype=bool)
    for i in train_exclusions:
        keep[i] = False
    order = np.lexsort((ids[keep], -scores[keep]))
    return ids[keep][order]


# Naive double-loop references; oracles for the vectorized losses.

def info_nce_reference(z: np.ndarray, tau: float) -> float:
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    z_hat = z / np.linalg.norm(z, axis=1)[:, None]
    total = 0.0
    for i in range(n):
        j = i ^ 1
        num = np.exp(z_hat[i] @ z_hat[j] / tau)
        den = sum(np.exp(z_hat[i] @ z_hat[k] / tau) for k in range(n) if k != i)
        total += -np.log(num / den)
    return total / n


def s_info_nce_reference(batch: ContrastBatch, tau: float,
                         denominator: str = "negatives") -> float:
    z = np.asarray(batch.z, dtype=np.float64)
    n = z.shape[0]
    z_hat = z / np.linalg.norm(z, axis=1)[:, None]
    total = 0.0
    for i in range(n):
        num = sum(np.exp(z_hat[i] @ z_hat[j] / tau)
                  for j in range(n) if batch.positive_mask[i, j])
        if denominator == "negatives":
            den = sum(np.exp(z_hat[i] @ z_hat[k] / tau)
                      for k in range(n) if k != i and not batch.positive_mask[i, k])
        else:
            den = sum(np.exp(z_hat[i] @ z_hat[k] / tau) for k in range(n) if k != i)
        total += -np.log(num / den)
    return total / n


def save_similarity_reference(index, path) -> None:
    """`augment.save_similarity` as one `struct.pack` per pair, over the index's tuple views."""
    with open(path, "wb") as fh:
        fh.write(SIM_MAGIC)
        fh.write(struct.pack("<II", len(index.user_neighbors), len(index.item_neighbors)))
        for side in (index.user_neighbors, index.item_neighbors):
            for neighbors in side:
                fh.write(struct.pack("<I", len(neighbors)))
                for nid, score in neighbors:
                    fh.write(struct.pack("<If", nid, score))


def layer_mean_reference(e0, adj, L, side=None, rows=None, work=None):
    """`gcn.layer_mean` as whole-array scipy products: one full n x d layer per step,
    one-sided layers zero outside the half they live on, `rows` taken at the end; `work`
    is unused, and the result a new array."""
    acc = e0.copy()
    e = e0
    if side is not None:
        halves = (slice(*side), slice(0, side[0]) if side[0] else slice(side[1], None))
    for layer in range(1, L + 1):
        if side is None:
            e = adj @ e
        else:
            e_next = np.zeros_like(e0)
            e_next[halves[layer % 2]] = adj[halves[layer % 2]] @ e
            e = e_next
        acc += e
    acc /= L + 1
    return acc if rows is None else acc[rows]


def top_n_neighbors_reference(counts, deg, top_n):
    """`augment._top_n_neighbors` on the whole n x n float64 score matrix at once."""
    n = len(deg)
    inv = np.divide(1.0, np.sqrt(deg), out=np.zeros(n), where=deg > 0)
    scores = counts * inv[:, None]  # rows, then columns
    scores *= inv[None, :]
    np.fill_diagonal(scores, -np.inf)
    top = top_k(scores, min(top_n, n - 1))
    return Neighbors(ids=top, scores=np.take_along_axis(scores, top, axis=1),
                     counts=np.where(deg > 0, top.shape[1], 0))
