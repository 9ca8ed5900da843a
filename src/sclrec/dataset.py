"""MovieLens-100K loading, per-user train/test splitting, and bipartite graph construction."""

from __future__ import annotations

import itertools
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

    @cached_property
    def train_graph(self) -> "BipartiteGraph":
        """The normalized graph of `train`, built once for every stage."""
        pairs = np.stack(np.divmod(self.train_keys, self.num_items), axis=1)
        return build_graph(pairs, self.num_users, self.num_items)

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


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """User-item graph with symmetric-normalized adjacency over the stacked node space.

    Node p in [0, num_users) is user p; node num_users + i is item i.
    Degree-0 nodes contribute all-zero rows (no self loops). The canonical
    CSR is the only edge storage; graphs compare by identity.
    """

    num_users: int
    num_items: int
    norm_adj: sp.csr_matrix

    @property
    def num_nodes(self) -> int:
        return self.num_users + self.num_items

    def edge_array(self) -> np.ndarray:
        """(m, 2) int64 (user, item) rows in sorted order, read from the CSR's user rows."""
        nu, indptr = self.num_users, self.norm_adj.indptr
        users = np.repeat(np.arange(nu), np.diff(indptr[:nu + 1]))
        return np.stack([users, self.norm_adj.indices[:indptr[nu]] - nu], axis=1)

    @cached_property
    def edges(self) -> tuple:
        """Sorted (user_id, item_id) tuples; for tests and inspection only."""
        return tuple(map(tuple, self.edge_array().tolist()))


class ParseError(ValueError):
    pass


def load_ml100k(path) -> InteractionDataset:
    """Load a `u.data`-style TSV (user, item, rating, timestamp; 1-based ids).

    Every rated pair becomes one interaction regardless of rating value;
    duplicates collapse. All interactions land in `train` (split separately).
    A bad line or a non-ASCII byte raises ParseError naming path and line.
    """
    pairs = set()
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.isascii():
                raise ParseError(f"{path}: line {lineno}: non-ASCII byte")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise ParseError(f"{path}: line {lineno}: expected 4 tab-separated "
                                 f"fields, got {len(parts)}")
            try:
                u = int(parts[0])
                i = int(parts[1])
            except ValueError as exc:
                raise ParseError(f"{path}: line {lineno}: non-integer id: {exc}") from None
            if u < 1 or i < 1:
                raise ParseError(f"{path}: line {lineno}: ids must be >= 1")
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
    """Build A_hat = D^(-1/2) A D^(-1/2) over the stacked user+item node space from
    an (m, 2) integer array or an iterable of (user, item) pairs; duplicates collapse."""
    if not isinstance(edges, np.ndarray):
        edges = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64)
    edges = edges.astype(np.int64, copy=False).reshape(-1, 2)
    ue, ie = edges[:, 0], edges[:, 1]
    bad = (ue < 0) | (ue >= num_users) | (ie < 0) | (ie >= num_items)
    if bad.any():
        u, i = edges[bad][np.lexsort((ie[bad], ue[bad]))[0]].tolist()
        raise ValueError(f"edge ({u},{i}) out of range")
    n = num_users + num_items
    # sorted keys put the edges in (user, item) order; keep the first of each run
    keys = np.sort(ue * num_items + ie)
    ue, ie = np.divmod(keys[np.diff(keys, prepend=-1) != 0], num_items)
    deg = np.bincount(np.concatenate([ue, num_users + ie]), minlength=n)
    inv_sqrt = np.divide(1.0, np.sqrt(deg), out=np.zeros(n), where=deg > 0)
    w = inv_sqrt[ue] * inv_sqrt[num_users + ie]
    indptr = np.concatenate(([0], np.cumsum(deg)))
    # canonical CSR: user rows take their items ascending in key order; the
    # user block's CSC (a counting sort) gives item rows their users ascending
    block = sp.csr_matrix((w, ie, indptr[:num_users + 1]), shape=(num_users, num_items)).tocsc()
    adj = sp.csr_matrix((np.concatenate([w, block.data]),
                         np.concatenate([num_users + ie, block.indices]), indptr), shape=(n, n))
    return BipartiteGraph(num_users=num_users, num_items=num_items, norm_adj=adj)


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
