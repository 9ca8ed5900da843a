"""MovieLens-100K loading, per-user train/test splitting, and bipartite graph construction."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class InteractionDataset:
    """Implicit-feedback interactions over dense 0-based user/item id spaces."""

    num_users: int
    num_items: int
    train: frozenset  # of (user_id, item_id)
    test: frozenset   # of (user_id, item_id)
    # original file ids, indexed by dense id (for reporting only)
    orig_user_ids: tuple = field(default=(), compare=False)
    orig_item_ids: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if self.train & self.test:
            raise ValueError("train and test interactions overlap")

    @property
    def interactions(self) -> frozenset:
        return self.train | self.test

    @cached_property
    def train_keys(self) -> np.ndarray:
        """`train` as sorted int64 keys user * num_items + item, i.e. in
        (user, item) order; `np.divmod(keys, num_items)` gives the pairs."""
        return _pair_keys(self.train, self.num_items)

    @cached_property
    def test_keys(self) -> np.ndarray:
        """`test` as sorted int64 keys, like `train_keys`."""
        return _pair_keys(self.test, self.num_items)

    def summary(self) -> str:
        denom = self.num_users * self.num_items
        density = 100.0 * len(self.interactions) / denom if denom else 0.0
        return (f"users={self.num_users} items={self.num_items} "
                f"train={len(self.train)} test={len(self.test)} density={density:.2f}%")


def _pair_keys(pairs, num_items: int) -> np.ndarray:
    keys = np.fromiter((u * num_items + i for u, i in pairs), dtype=np.int64, count=len(pairs))
    keys.sort()
    return keys


def in_sorted(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Whether each query occurs in `sorted_keys` (ascending, non-empty)."""
    return np.take(sorted_keys, np.searchsorted(sorted_keys, queries), mode="clip") == queries


@dataclass(frozen=True)
class BipartiteGraph:
    """User-item graph with symmetric-normalized adjacency over the stacked node space.

    Node p in [0, num_users) is user p; node num_users + i is item i.
    Degree-0 nodes contribute all-zero rows (no self loops).
    """

    num_users: int
    num_items: int
    edges: tuple  # of (user_id, item_id), sorted
    norm_adj: sp.csr_matrix = field(compare=False, default=None)

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.num_nodes, dtype=np.int64)
        for u, i in self.edges:
            deg[u] += 1
            deg[self.num_users + i] += 1
        return deg


class ParseError(ValueError):
    pass


def load_ml100k(path) -> InteractionDataset:
    """Load a `u.data`-style TSV (user, item, rating, timestamp; 1-based ids).

    Every rated pair becomes one interaction regardless of rating value;
    duplicates collapse. All interactions land in `train` (split separately).
    """
    pairs = set()
    users_seen = {}
    items_seen = {}
    n_lines = 0
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            n_lines += 1
            parts = line.split("\t")
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: expected 4 tab-separated fields, got {len(parts)}")
            try:
                u = int(parts[0])
                i = int(parts[1])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: non-integer id: {exc}") from None
            if u < 1 or i < 1:
                raise ParseError(f"line {lineno}: ids must be >= 1")
            pairs.add((u, i))
    if not pairs:
        raise ParseError(f"{path}: no interactions found")
    # dense 0-based re-indexing, deterministic: ascending original id
    orig_users = sorted({u for u, _ in pairs})
    orig_items = sorted({i for _, i in pairs})
    umap = {u: k for k, u in enumerate(orig_users)}
    imap = {i: k for k, i in enumerate(orig_items)}
    train = frozenset((umap[u], imap[i]) for u, i in pairs)
    return InteractionDataset(
        num_users=len(orig_users),
        num_items=len(orig_items),
        train=train,
        test=frozenset(),
        orig_user_ids=tuple(orig_users),
        orig_item_ids=tuple(orig_items),
    )


def split_train_test(dataset: InteractionDataset, ratio: float = 0.8, seed: int = 0) -> InteractionDataset:
    """Per-user random holdout: floor(ratio * n_u) interactions kept for train (at least 1)."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    by_user = {}
    for u, i in dataset.interactions:
        by_user.setdefault(u, []).append(i)
    rng = np.random.default_rng(seed)
    train, test = set(), set()
    for u in sorted(by_user):
        items = sorted(by_user[u])
        n_train = max(1, int(np.floor(ratio * len(items))))
        perm = rng.permutation(len(items))
        for k, idx in enumerate(perm):
            (train if k < n_train else test).add((u, items[idx]))
    return InteractionDataset(
        num_users=dataset.num_users,
        num_items=dataset.num_items,
        train=frozenset(train),
        test=frozenset(test),
        orig_user_ids=dataset.orig_user_ids,
        orig_item_ids=dataset.orig_item_ids,
    )


def build_graph(edges, num_users: int, num_items: int) -> BipartiteGraph:
    """Build A_hat = D^(-1/2) A D^(-1/2) over the stacked user+item node space."""
    edges = sorted(set(edges))
    n = num_users + num_items
    for u, i in edges:
        if not (0 <= u < num_users and 0 <= i < num_items):
            raise ValueError(f"edge ({u},{i}) out of range")
    if edges:
        ue = np.fromiter((u for u, _ in edges), dtype=np.int64, count=len(edges))
        ie = np.fromiter((num_users + i for _, i in edges), dtype=np.int64, count=len(edges))
        deg = np.bincount(np.concatenate([ue, ie]), minlength=n).astype(np.float64)
        inv_sqrt = np.zeros(n)
        nz = deg > 0
        inv_sqrt[nz] = 1.0 / np.sqrt(deg[nz])
        w = inv_sqrt[ue] * inv_sqrt[ie]
        # mirrored by construction: each edge contributes (u,i) and (i,u) with the same weight
        rows = np.concatenate([ue, ie])
        cols = np.concatenate([ie, ue])
        data = np.concatenate([w, w])
        adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    else:
        adj = sp.csr_matrix((n, n), dtype=np.float64)
    return BipartiteGraph(num_users=num_users, num_items=num_items, edges=tuple(edges), norm_adj=adj)


def dense_norm_adj(edges, num_users: int, num_items: int) -> np.ndarray:
    """Brute-force dense D^(-1/2) A D^(-1/2); oracle for build_graph."""
    n = num_users + num_items
    a = np.zeros((n, n))
    for u, i in set(edges):
        a[u, num_users + i] = 1.0
        a[num_users + i, u] = 1.0
    deg = a.sum(axis=1)
    d = np.zeros(n)
    d[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    return d[:, None] * a * d[None, :]
