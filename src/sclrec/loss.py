"""Ranking and contrastive losses with analytic gradients.

All contrastive losses operate on cosine similarity of projected rows; their
gradients are returned with respect to the raw (unnormalized) rows so they can
be chained straight into the projection head backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.special import expit


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.2
    lambda_l2: float = 1e-4

    def __post_init__(self):
        if not self.tau > 0:  # NaN fails too
            raise ValueError("tau must be positive")
        if not self.lambda_l2 >= 0:
            raise ValueError("lambda_l2 must be nonnegative")


@dataclass
class ContrastBatch:
    """2N projected rows (two views per anchor node, interleaved) plus the
    positive pair mask.

    The mask is boolean 2N x 2N, dense or scipy-sparse, symmetric, with a
    false diagonal. Every other pair of rows is a negative: the negatives are
    the positives' off-diagonal complement. `rows` and `cols` list its true
    entries, row-major.
    """

    z: np.ndarray
    positive_mask: np.ndarray | sp.spmatrix

    def __post_init__(self):
        n = self.z.shape[0]
        if n % 2 != 0:
            raise ValueError("z must hold an even number of rows (two views per anchor)")
        pos = self.positive_mask
        if pos.shape != (n, n):
            raise ValueError(f"positive_mask shape {pos.shape} != ({n}, {n})")
        keys = np.sort(np.ravel_multi_index(pos.nonzero(), (n, n)))  # row-major in any format
        keys = keys[np.diff(keys, prepend=-1) != 0]  # an entry a sparse mask stores twice is one
        rows, cols = np.divmod(keys, n)
        if (rows == cols).any():
            raise ValueError("positive_mask has true diagonal entries")
        if not np.array_equal(np.sort(cols * n + rows), keys):
            raise ValueError("positive_mask must be symmetric")
        self.rows, self.cols = rows, cols


def _block_pairs(n: int, b: int = 128):
    """Slice pairs (rows, cols) of the cache-sized b x b blocks on and above n x n's diagonal."""
    return [(slice(i, i + b), slice(j, j + b)) for i in range(0, n, b) for j in range(i, n, b)]


def bpr_loss(y_pos: np.ndarray, y_neg: np.ndarray, params_sq_norm: float, lambda_l2: float):
    """Pairwise ranking loss over sampled triples.

    loss = sum_t softplus(-(y_pos - y_neg)) + lambda * params_sq_norm.
    Returns (loss, grad_y_pos, grad_y_neg); the regularizer's gradient lives
    with the caller who owns the parameters.
    """
    y_pos = np.asarray(y_pos, dtype=np.float64)
    y_neg = np.asarray(y_neg, dtype=np.float64)
    if y_pos.shape != y_neg.shape:
        raise ValueError("score sequences must have equal length")
    margin = y_pos - y_neg
    loss = float(np.logaddexp(0.0, -margin).sum() + lambda_l2 * params_sq_norm)
    g = -expit(-margin)  # d/dy_pos of softplus(-margin)
    return loss, g, -g


def _normalize_rows(z: np.ndarray):
    norms = np.linalg.norm(z, axis=1)
    if np.any(norms == 0):
        raise ValueError("zero-norm row: cosine similarity undefined")
    return z / norms[:, None], norms


def _cosine_backward(grad_s: np.ndarray, z_hat: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Chain dL/dS (S = Z_hat Z_hat^T), symmetrised in place, back to the raw rows."""
    for r, c in _block_pairs(len(grad_s)):
        blk = grad_s[r, c]
        blk += grad_s[c, r].T  # on the diagonal numpy buffers the overlapping operand
        if r != c:
            grad_s[c, r] = blk.T
    grad_hat = grad_s @ z_hat
    radial = (grad_hat * z_hat).sum(axis=1, keepdims=True)
    return (grad_hat - radial * z_hat) / norms[:, None]


def info_nce(z: np.ndarray, tau: float):
    """NT-Xent over interleaved co-view pairs (rows 2t and 2t+1 are partners):
    `s_info_nce` with the partner as each row's one positive, denominator="all"."""
    z = np.asarray(z)
    n = z.shape[0]
    if n < 2 or n % 2 != 0:
        raise ValueError("need an even number >= 2 of rows")
    pos = sp.csr_matrix((np.ones(n, dtype=bool), np.arange(n) ^ 1, np.arange(n + 1)), shape=(n, n))
    return s_info_nce(ContrastBatch(z=z, positive_mask=pos), tau, "all")


def s_info_nce(batch: ContrastBatch, tau: float, denominator: str = "negatives"):
    """Supervised contrastive loss: per anchor, log of (sum over positives) over
    (sum over negatives), as a mean over all 2N anchors.

    denominator="negatives" excludes positives from the denominator (the
    printed form; the loss can go negative). denominator="all" uses every
    k != i instead. Returns (loss, grad_z) in z's float dtype (float64 for
    integer z). Holds one n x n array, padded to n + 8 columns: the scaled
    cosines become the softmax, dL/dS and its symmetrisation in place."""
    if denominator not in ("negatives", "all"):
        raise ValueError(f"unknown denominator mode {denominator!r}")
    z = np.asarray(batch.z, dtype=np.result_type(batch.z, np.float32))
    n = z.shape[0]
    rows, cols = batch.rows, batch.cols  # row-major, so rows ascend
    counts = np.bincount(rows, minlength=n)
    if not counts.all():
        raise ValueError("every anchor needs at least one positive")
    if denominator == "negatives" and (counts == n - 1).any():
        raise ValueError("anchor with empty denominator")
    z_hat, norms = _normalize_rows(z)
    buf = np.empty((n, n + 8), dtype=z.dtype)  # off a power-of-two row stride: ~2x faster
    buf[:, n:] = -np.inf  # whole-buffer passes keep it -inf, and exp(-inf) = 0
    s = np.matmul(z_hat, z_hat.T, out=buf[:, :n])
    buf /= tau
    starts = np.searchsorted(rows, np.arange(n))
    s_pos = s[rows, cols]
    m_pos = np.maximum.reduceat(s_pos, starts)
    ex_pos = np.exp(s_pos - m_pos[rows])
    total_pos = np.add.reduceat(ex_pos, starts)
    if denominator == "negatives":
        s[rows, cols] = -np.inf
    np.fill_diagonal(s, -np.inf)
    # the denominator's own max: a row total minus the positives can cancel to 0 at small tau
    m = s.max(axis=1, keepdims=True)
    buf -= m
    np.exp(buf, out=buf)
    total = s.sum(axis=1, keepdims=True)
    buf /= total  # softmax over the denominator
    lse_pos = m_pos + np.log(total_pos)
    lse_neg = (m + np.log(total)).ravel()
    loss = float((lse_neg - lse_pos).mean())
    s[rows, cols] -= ex_pos / total_pos[rows]
    buf /= n * tau
    return loss, _cosine_backward(s, z_hat, norms)


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
