"""Embedding storage, linear graph propagation, projection head, and scoring.

Propagation follows the simplified convolution: E^(l) = A_hat E^(l-1) with no
per-layer weights or nonlinearity; the final representation is the uniform
mean of layers 0..L. Because the map is linear in E^(0), the backward pass is
the same operator applied to the output gradient (A_hat is symmetric).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from sclrec.dataset import BipartiteGraph

CKPT_MAGIC = b"SCLCKPT1"
_CKPT_HEADER = 24  # magic + u32 (num_users, num_items, d, L)
_HEAD_HEADER = 12  # u32 (d, d_h, d_p) before the head's arrays


@dataclass
class EmbeddingState:
    user_emb: np.ndarray  # num_users x d
    item_emb: np.ndarray  # num_items x d
    d: int
    L: int

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.user_emb, self.item_emb], axis=0)

    def copy(self) -> "EmbeddingState":
        return EmbeddingState(self.user_emb.copy(), self.item_emb.copy(), self.d, self.L)


@dataclass
class ProjectionHead:
    """Two-layer MLP: z = relu(h @ w1 + b1) @ w2 + b2."""

    w1: np.ndarray  # d x d_h
    b1: np.ndarray  # d_h
    w2: np.ndarray  # d_h x d_p
    b2: np.ndarray  # d_p

    def copy(self) -> "ProjectionHead":
        return ProjectionHead(self.w1.copy(), self.b1.copy(), self.w2.copy(), self.b2.copy())


@dataclass
class PropagatedEmbeddings:
    final_user: np.ndarray
    final_item: np.ndarray
    per_layer: list | None = None  # retained layer outputs when requested

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


def propagate(state: EmbeddingState, graph: BipartiteGraph,
              keep_layers: bool = False) -> PropagatedEmbeddings:
    """E^(l) = A_hat E^(l-1) for l=1..L; final = mean of layers 0..L."""
    if graph.num_nodes != state.user_emb.shape[0] + state.item_emb.shape[0]:
        raise ValueError(
            f"graph has {graph.num_nodes} nodes but state has "
            f"{state.user_emb.shape[0] + state.item_emb.shape[0]}")
    adj = graph.norm_adj
    if adj.dtype != state.user_emb.dtype:
        adj = adj.astype(state.user_emb.dtype)
    e = state.stacked()
    layers = [e]
    acc = e.copy()
    for _ in range(state.L):
        e = adj @ e
        acc += e
        if keep_layers:
            layers.append(e)
    final = acc / (state.L + 1)
    return PropagatedEmbeddings(
        final_user=final[: graph.num_users],
        final_item=final[graph.num_users:],
        per_layer=layers if keep_layers else None,
    )


def propagate_backward(grad_final: np.ndarray, graph: BipartiteGraph, L: int) -> np.ndarray:
    """Gradient of the layer-mean propagation w.r.t. E^(0).

    The forward map is (1/(L+1)) sum_l A_hat^l; A_hat is symmetric so the
    adjoint is the same polynomial applied to the incoming gradient.
    """
    adj = graph.norm_adj
    if adj.dtype != grad_final.dtype:
        adj = adj.astype(grad_final.dtype)
    g = grad_final
    acc = g.copy()
    for _ in range(L):
        g = adj @ g
        acc += g
    return acc / (L + 1)


def project(h: np.ndarray, head: ProjectionHead) -> np.ndarray:
    """Apply the projection MLP to a vector or a batch of row vectors."""
    return np.maximum(h @ head.w1 + head.b1, 0.0) @ head.w2 + head.b2


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


def predict(u: np.ndarray, v: np.ndarray) -> float:
    """Inner-product preference score."""
    if u.shape != v.shape:
        raise ValueError("dimension mismatch")
    return float(np.dot(u, v))


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
