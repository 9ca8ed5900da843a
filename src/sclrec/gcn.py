"""Embedding storage, linear graph propagation, projection head, and checkpoints.

Propagation follows the simplified convolution: E^(l) = A_hat E^(l-1) with no
per-layer weights or nonlinearity; the final representation is the uniform
mean of layers 0..L. Because the map is linear in E^(0), the backward pass is
the same operator applied to the output gradient (A_hat is symmetric).
"""

from __future__ import annotations

import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.sparse import _sparsetools

from sclrec import scl_threads
from sclrec.dataset import BipartiteGraph

CKPT_MAGIC = b"SCLCKPT1"
_CKPT_HEADER = 24  # magic + u32 (num_users, num_items, d, L)
_HEAD_HEADER = 12  # u32 (d, d_h, d_p) before the head's arrays
_THREADS = scl_threads(os.environ.get("SCL_THREADS")) or len(os.sched_getaffinity(0))
# Its threads start with the first split product; a forked child, which has none, gets a new pool.
_POOL = ThreadPoolExecutor(_THREADS - 1) if _THREADS > 1 else None
os.register_at_fork(after_in_child=lambda: globals().update(
    _POOL=_POOL and ThreadPoolExecutor(_THREADS - 1)))


@dataclass
class EmbeddingState:
    user_emb: np.ndarray  # num_users x d
    item_emb: np.ndarray  # num_items x d
    d: int
    L: int

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.user_emb, self.item_emb], axis=0)


@dataclass
class ProjectionHead:
    """Two-layer MLP: z = relu(h @ w1 + b1) @ w2 + b2."""

    w1: np.ndarray  # d x d_h
    b1: np.ndarray  # d_h
    w2: np.ndarray  # d_h x d_p
    b2: np.ndarray  # d_p


@dataclass
class PropagatedEmbeddings:
    final_user: np.ndarray
    final_item: np.ndarray

    @property
    def final(self) -> np.ndarray:
        return np.concatenate([self.final_user, self.final_item], axis=0)


def init_embeddings(num_users: int, num_items: int, d: int, seed: int,
                    dtype=np.float64, L: int = 3) -> EmbeddingState:
    """Layer-0 embeddings drawn i.i.d. normal(0, 0.1), for L propagation layers."""
    if d < 1:
        raise ValueError("d must be >= 1")
    rng = np.random.default_rng(seed)
    user = rng.normal(0.0, 0.1, size=(num_users, d)).astype(dtype)
    item = rng.normal(0.0, 0.1, size=(num_items, d)).astype(dtype)
    return EmbeddingState(user_emb=user, item_emb=item, d=d, L=L)


def init_head(d: int, d_h: int, d_p: int, seed: int, dtype=np.float64) -> ProjectionHead:
    rng = np.random.default_rng(seed)
    return ProjectionHead(
        w1=rng.normal(0.0, 0.1, size=(d, d_h)).astype(dtype),
        b1=np.zeros(d_h, dtype=dtype),
        w2=rng.normal(0.0, 0.1, size=(d_h, d_p)).astype(dtype),
        b2=np.zeros(d_p, dtype=dtype),
    )


def row_blocks(block, m: int, indptr=None) -> None:
    """block(a, b) over _THREADS blocks of rows 0..m, equal in a CSR indptr's nnz, else in rows, all
    but the first on the pool. A block is a nested function named `block`, so no traced function runs
    on a worker, and never submits to the pool, where a lone worker would wait on itself."""
    p = np.arange(m + 1) if indptr is None else indptr
    cuts = [0, *np.searchsorted(p, np.arange(1, _THREADS) * (p[-1] / _THREADS)).tolist(), m]
    rest = _POOL.map(block, cuts[1:-1], cuts[2:]) if _THREADS > 1 else ()
    block(cuts[0], cuts[1])
    list(rest)  # waits for the other blocks and raises their errors


def _kernel(adj, e: np.ndarray, out: np.ndarray | None = None):
    """(block, out), checked as the kernel is not: block(a, b) adds adj[a:b] @ e into out[a:b]
    (zeros when None) entry by entry in CSR order, as adj @ e and np.add.at do."""
    (m, n), k = adj.shape, e.shape[-1]
    if e.ndim != 2 or e.shape[0] != n:
        raise ValueError(f"matmul: dimension mismatch with signature (n,k={n}),(k={e.shape[0]},m)->(n,m)")
    dtype = np.result_type(adj.dtype, e.dtype)
    out = np.zeros((m, k), dtype) if out is None else out
    if adj.format != "csr" or dtype not in (np.float32, np.float64) or out.shape != (m, k) \
            or out.dtype != dtype or not out.flags.c_contiguous:
        raise ValueError(f"spmm needs float32/float64 CSR @ dense into a C-contiguous {dtype} {(m, k)} "
                         f"out, got {adj.format} {adj.dtype} @ {e.dtype} into {out.dtype} {out.shape}")
    x, p = np.ascontiguousarray(e).ravel(), adj.indptr
    def block(a, b):  # the indptr slice keeps adj's offsets
        _sparsetools.csr_matvecs(b - a, n, k, p[a:b + 1], adj.indices, adj.data, x, out[a:b].ravel())
    return block, out


def spmm(adj, e: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """adj @ e for a CSR adj, or added into a C-contiguous `out`, on row_blocks of equal nnz."""
    block, out = _kernel(adj, e, out)
    row_blocks(block, adj.shape[0], adj.indptr)
    return out


def layer_mean(e0: np.ndarray, adj, L: int, side=None, rows=None, work=None) -> np.ndarray:
    """(1/(L+1)) sum_{l=0..L} adj^l e0: E^(l) = adj E^(l-1), averaged over
    layers 0..L, each product an spmm of the CSR adj; e0 is not modified. With
    side=(start, stop), e0 must be zero outside those rows (one side of the
    bipartite graph); each layer then runs the kernel only on the rows of the side it
    maps onto, with the full call's result. With rows, the full result's `rows`, bit for
    bit: the last layer runs adj[rows] only. Each other layer is one row_blocks pass.
    work=(acc, layers), a caller's n x d and 2 x n x d arrays of e0's dtype, not e0, hold
    the accumulator (the result, without rows) and the ping-pong layers in place of new ones."""
    (n, p), e = (adj.shape[0], adj.indptr), e0
    halves = ((0, n), (0, n)) if side is None else (side, (0, side[0]) if side[0] else (side[1], n))
    acc, layers = work or (np.empty(e0.shape, e0.dtype),
                           np.empty((2, *e0.shape), np.result_type(adj.dtype, e0.dtype)))
    acc[...] = e0
    for layer in range(1, L + 1 - (rows is not None)):  # layer l + 1 reads every row of layer l
        kernel, e = _kernel(adj, e, layers[layer % 2])
        lo, hi = halves[layer % 2]  # E^(l)'s nonzero rows, where the kernel runs
        def block(a, b):  # zeroes, fills, adds (zero rows too, for their signs) and scales its rows
            e[a:b] = 0
            if max(a, lo) < min(b, hi):
                kernel(max(a, lo), min(b, hi))
            acc[a:b] += e[a:b]
            if layer == L:
                acc[a:b] /= L + 1
        row_blocks(block, n, p if side is None else np.clip(p - p[lo], 0, p[hi] - p[lo]))  # lo:hi's nnz
    if rows is not None:  # the last layer's product for the asked rows only
        acc = acc[rows]
        if L:
            acc += spmm(adj[rows], e)
    if rows is not None or not L:  # else the last layer's blocks scaled their rows
        acc /= L + 1
    return acc


def propagate(state: EmbeddingState, graph: BipartiteGraph) -> PropagatedEmbeddings:
    """E^(l) = A_hat E^(l-1) for l=1..L; final = mean of layers 0..L."""
    n = state.user_emb.shape[0] + state.item_emb.shape[0]
    if graph.num_nodes != n:
        raise ValueError(f"graph has {graph.num_nodes} nodes but state has {n}")
    final = layer_mean(state.stacked(), graph.norm_adj.astype(state.user_emb.dtype, copy=False), state.L)
    return PropagatedEmbeddings(final_user=final[: graph.num_users],
                                final_item=final[graph.num_users:])


def propagate_backward(grad_final: np.ndarray, graph: BipartiteGraph, L: int) -> np.ndarray:
    """Gradient of the layer-mean propagation w.r.t. E^(0): A_hat is symmetric, so the same map."""
    return layer_mean(grad_final, graph.norm_adj.astype(grad_final.dtype, copy=False), L)


def project_forward(h: np.ndarray, head: ProjectionHead):
    """Batch forward through the head; returns (z, cache) for the backward pass."""
    pre = h @ head.w1 + head.b1
    hidden = np.maximum(pre, 0.0)
    z = hidden @ head.w2 + head.b2
    return z, (h, pre, hidden)


def project_backward(cache, head: ProjectionHead, grad_z: np.ndarray):
    """Returns (grad_h, head_grads) given the forward cache."""
    h, pre, hidden = cache
    grad_hidden = grad_z @ head.w2.T
    grad_pre = grad_hidden * (pre > 0)
    grads = {
        "w2": hidden.T @ grad_z,
        "b2": grad_z.sum(axis=0),
        "w1": h.T @ grad_pre,
        "b1": grad_pre.sum(axis=0),
    }
    grad_h = grad_pre @ head.w1.T
    return grad_h, grads


def save_checkpoint(path, state: EmbeddingState, head: ProjectionHead | None = None) -> None:
    """Magic, u32 LE header (num_users, num_items, d, L), f32 LE row-major
    embeddings; projection head appended with its own (d, d_h, d_p) header."""
    with open(path, "wb") as fh:
        fh.write(CKPT_MAGIC)
        fh.write(struct.pack("<IIII", state.user_emb.shape[0], state.item_emb.shape[0],
                             state.d, state.L))
        fh.write(state.user_emb.astype("<f4").tobytes(order="C"))
        fh.write(state.item_emb.astype("<f4").tobytes(order="C"))
        if head is not None:
            fh.write(struct.pack("<III", head.w1.shape[0], head.w1.shape[1], head.w2.shape[1]))
            for arr in (head.w1, head.b1, head.w2, head.b2):
                fh.write(arr.astype("<f4").tobytes(order="C"))


def load_checkpoint(path):
    """Returns (EmbeddingState, ProjectionHead | None).

    The file's size must be exactly the one its headers imply, with or without
    the head section; anything else raises ValueError naming both sizes.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    size = len(data)
    if size < _CKPT_HEADER:
        raise ValueError(f"{path}: truncated checkpoint: {size} bytes, "
                         f"expected at least {_CKPT_HEADER}")
    if data[:8] != CKPT_MAGIC:
        raise ValueError(f"{path}: bad magic {data[:8]!r}")
    num_users, num_items, d, L = struct.unpack_from("<IIII", data, 8)
    body = _CKPT_HEADER + 4 * (num_users + num_items) * d
    if size != body and size < body + _HEAD_HEADER:
        raise ValueError(f"{path}: checkpoint is {size} bytes, expected {body} "
                         f"without a head or at least {body + _HEAD_HEADER} with one")

    def take(offset, *shape):
        count = math.prod(shape)
        arr = np.frombuffer(data, dtype="<f4", count=count, offset=offset)
        return arr.reshape(shape).copy(), offset + 4 * count

    user, offset = take(_CKPT_HEADER, num_users, d)
    item, _ = take(offset, num_items, d)
    state = EmbeddingState(user_emb=user, item_emb=item, d=d, L=L)
    if size == body:
        return state, None
    hd, dh, dp = struct.unpack_from("<III", data, body)
    expected = body + _HEAD_HEADER + 4 * (hd * dh + dh + dh * dp + dp)
    if size != expected:
        raise ValueError(f"{path}: checkpoint is {size} bytes, expected {expected}")
    w1, offset = take(body + _HEAD_HEADER, hd, dh)
    b1, offset = take(offset, dh)
    w2, offset = take(offset, dh, dp)
    b2, _ = take(offset, dp)
    return state, ProjectionHead(w1, b1, w2, b2)
