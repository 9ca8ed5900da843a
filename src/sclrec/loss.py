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

from sclrec.gcn import row_blocks

GRAM_PAD = 8  # s_info_nce's Gram columns past n: off a power-of-two row stride, ~2x faster


@dataclass(frozen=True)
class LossConfig:
    tau: float = 0.2
    lambda_l2: float = 1e-4

    def __post_init__(self):
        if not 0 < self.tau < np.inf:  # NaN fails too
            raise ValueError("tau must be positive and finite")
        if not 0 <= self.lambda_l2 < np.inf:
            raise ValueError("lambda_l2 must be nonnegative and finite")


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
    """Chain dL/dS (S = Z_hat Z_hat^T), symmetrised in place, back to the raw rows.
    Each block pair writes only its own two blocks, so row_blocks splits the pairs."""
    pairs = _block_pairs(len(grad_s))
    def block(a, b):
        for r, c in pairs[a:b]:
            blk = grad_s[r, c]
            blk += grad_s[c, r].T  # on the diagonal numpy buffers the overlapping operand
            if r != c:
                grad_s[c, r] = blk.T
    row_blocks(block, len(pairs))
    grad_hat = grad_s @ z_hat
    radial = (grad_hat * z_hat).sum(axis=1, keepdims=True)
    grad_hat -= radial * z_hat
    grad_hat /= norms[:, None]
    return grad_hat


def info_nce(z: np.ndarray, tau: float, buf=None):
    """NT-Xent over interleaved co-view pairs (rows 2t and 2t+1 are partners):
    `s_info_nce` with the partner as each row's one positive, denominator="all", in `buf`."""
    z = np.asarray(z)
    n = z.shape[0]
    if n < 2 or n % 2 != 0:
        raise ValueError("need an even number >= 2 of rows")
    pos = sp.csr_matrix((np.ones(n, dtype=bool), np.arange(n) ^ 1, np.arange(n + 1)), shape=(n, n))
    return s_info_nce(ContrastBatch(z=z, positive_mask=pos), tau, "all", buf)


def s_info_nce(batch: ContrastBatch, tau: float, denominator: str = "negatives", buf=None):
    """Supervised contrastive loss: per anchor, log of (sum over positives) over
    (sum over negatives), as a mean over all 2N anchors.

    denominator="negatives" excludes positives from the denominator (the
    printed form; the loss can go negative). denominator="all" uses every
    k != i instead. Returns (loss, grad_z) in z's float dtype (float64 for
    integer z). Holds one n x n array, padded to n + GRAM_PAD columns, in the first
    n(n + GRAM_PAD) entries of a flat `buf` of z's dtype when given: the scaled cosines become
    the softmax, dL/dS and its symmetrisation in place, each row's passes in chunks of 128 rows
    in gcn's row blocks, the Gram on the calling thread."""
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
    size = n * (n + GRAM_PAD)
    buf = (np.empty(size, z.dtype) if buf is None else buf[:size]).reshape(n, n + GRAM_PAD)
    buf[:, n:] = -np.inf  # whole-row passes keep it -inf, and exp(-inf) = 0
    s = np.matmul(z_hat, z_hat.T, out=buf[:, :n], casting="no")  # a buf of z's dtype
    starts = np.searchsorted(rows, np.arange(n + 1))  # row a's positives: starts[a]:starts[a + 1]
    m_pos, total_pos, m, total = (np.empty(n, z.dtype) for _ in range(4))
    def block(a, b):
        for c in range(a, b, 128):
            d = min(c + 128, b)
            chunk, i, j = buf[c:d], starts[c], starts[d]
            sc, r, k = chunk[:, :n], rows[i:j] - c, cols[i:j]
            chunk /= tau
            s_pos = sc[r, k]
            m_pos[c:d] = np.maximum.reduceat(s_pos, starts[c:d] - i)
            ex_pos = np.exp(s_pos - m_pos[c:d][r])
            total_pos[c:d] = np.add.reduceat(ex_pos, starts[c:d] - i)
            if denominator == "negatives":
                sc[r, k] = -np.inf
            np.fill_diagonal(sc[:, c:d], -np.inf)
            # the denominator's own max: a row total minus the positives can cancel to 0 at small tau
            np.max(sc, axis=1, out=m[c:d])
            chunk -= m[c:d, None]
            np.exp(chunk, out=chunk)
            np.sum(sc, axis=1, out=total[c:d])
            chunk /= total[c:d, None]  # softmax over the denominator
            sc[r, k] -= ex_pos / total_pos[c:d][r]
            chunk /= n * tau
    row_blocks(block, n)
    loss = float(((m + np.log(total)) - (m_pos + np.log(total_pos))).mean())
    return loss, _cosine_backward(s, z_hat, norms)
