"""Test-only oracles: the naive references the vectorised losses and
ranking are checked against, and the per-pair `.sclsim` writer."""

import struct

import numpy as np

from sclrec.augment import SIM_MAGIC
from sclrec.loss import ContrastBatch


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
