"""MovieLens-100K loading, per-user train/test splitting, and bipartite graph construction."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp


NO_KEYS = np.empty(0, dtype=np.int64)  # what both entries take for no interactions


class InteractionDataset:
    """Implicit-feedback interactions over dense 0-based user/item id spaces, held as sorted,
    distinct, read-only int64 keys user * num_items + item (`train_keys`, `test_keys`);
    `train` and `test` take what `pair_keys` takes, or with as_keys what `checked_keys` takes."""

    def __init__(self, num_users: int, num_items: int, train=NO_KEYS, test=NO_KEYS,
                 orig_user_ids: tuple = (), orig_item_ids: tuple = (), *, as_keys=False):
        self.num_users, self.num_items = num_users, num_items
        to_keys = checked_keys if as_keys else pair_keys  # views: a caller's arrays stay writeable
        self.train_keys, self.test_keys = (to_keys(e, num_users, num_items).view() for e in (train, test))
        self.train_keys.flags.writeable = self.test_keys.flags.writeable = False
        # original file ids, indexed by dense id (for reporting only)
        self.orig_user_ids, self.orig_item_ids = orig_user_ids, orig_item_ids
        if self.test_keys.size and in_sorted(self.test_keys, self.train_keys).any():
            raise ValueError("train and test interactions overlap")

    def __eq__(self, other):
        return (isinstance(other, InteractionDataset)
                and (self.num_users, self.num_items) == (other.num_users, other.num_items)
                and np.array_equal(self.train_keys, other.train_keys)
                and np.array_equal(self.test_keys, other.test_keys))

    @cached_property
    def train(self) -> frozenset:
        """`train_keys` (`test`: `test_keys`) as (user, item) tuples; for tests only."""
        return frozenset(map(tuple, key_pairs(self.train_keys, self.num_items).tolist()))

    @cached_property
    def test(self) -> frozenset:
        return frozenset(map(tuple, key_pairs(self.test_keys, self.num_items).tolist()))

    @cached_property
    def train_graph(self) -> "BipartiteGraph":
        """The normalized graph of `train_keys`, built once for every stage."""
        return build_graph(self.train_keys, self.num_users, self.num_items, as_keys=True)

    def summary(self) -> str:
        n_train, n_test = len(self.train_keys), len(self.test_keys)
        denom = self.num_users * self.num_items
        density = 100.0 * (n_train + n_test) / denom if denom else 0.0
        return (f"users={self.num_users} items={self.num_items} "
                f"train={n_train} test={n_test} density={density:.2f}%")


def pair_keys(edges, num_users: int, num_items: int) -> np.ndarray:
    """Sorted, distinct int64 keys user * num_items + item of an (m, 2) integer
    array or an iterable of (user, item) pairs; a pair out of range raises."""
    if not isinstance(edges, np.ndarray):
        edges = np.fromiter(itertools.chain.from_iterable(edges), dtype=np.int64)
    edges = edges.astype(np.int64, copy=False).reshape(-1, 2)
    ue, ie = edges[:, 0], edges[:, 1]
    bad = (ue < 0) | (ue >= num_users) | (ie < 0) | (ie >= num_items)
    if bad.any():
        u, i = edges[bad][np.lexsort((ie[bad], ue[bad]))[0]].tolist()
        raise ValueError(f"edge ({u},{i}) out of range")
    return sorted_distinct(ue * num_items + ie)


def sorted_distinct(keys: np.ndarray) -> np.ndarray:
    """Non-negative int64 `keys` sorted, keeping the first of each run of equal keys;
    np.unique hashes (numpy 2.4), 13-25 ms on 60k-100k keys against ~1 ms here."""
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def checked_keys(keys, num_users: int, num_items: int) -> np.ndarray:
    """`keys` itself once an O(m) check finds a 1-D int64 array, ascending, distinct and
    in [0, num_users * num_items); anything else raises."""
    if not (isinstance(keys, np.ndarray) and keys.dtype == np.int64 and keys.ndim == 1):
        raise ValueError("keys must be a 1-D int64 array")
    if keys.size and (keys[0] < 0 or keys[-1] >= num_users * num_items
                      or (keys[1:] <= keys[:-1]).any()):
        raise ValueError("keys must be ascending, distinct and in [0, num_users * num_items)")
    return keys


def key_pairs(keys: np.ndarray, num_items: int) -> np.ndarray:
    """(m, 2) int64 (user, item) rows of `pair_keys`' keys."""
    return np.stack(np.divmod(keys, num_items), axis=1)


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

    @cached_property
    def keys(self) -> np.ndarray:
        """The edges' sorted, read-only int64 keys, read from the CSR's user rows."""
        nu, ni, indptr = self.num_users, self.num_items, self.norm_adj.indptr
        users = np.repeat(np.arange(nu, dtype=np.int64), np.diff(indptr[:nu + 1]))
        keys = users * ni + (self.norm_adj.indices[:indptr[nu]] - nu)
        keys.flags.writeable = False
        return keys

    @cached_property
    def edges(self) -> tuple:
        """Sorted (user_id, item_id) tuples; for tests and inspection only."""
        return tuple(map(tuple, key_pairs(self.keys, self.num_items).tolist()))


class ParseError(ValueError):
    pass


def _canonical_ids(path):
    """(n, 2) int64 ids of a file whose non-empty lines are each four tab-separated
    runs of 1-18 ASCII digits and a newline, ids nonzero; None for any other file."""
    b = np.fromfile(path, dtype=np.uint8)
    sep = np.flatnonzero((b == 9) | (b == 10))
    kinds, width = b[sep], np.diff(sep, prepend=-1) - 1  # digits before each separator
    line = ~((kinds == 10) & (width == 0) & (np.r_[10, kinds[:-1]] == 10))  # not blank
    kinds, width = kinds[line], width[line]
    if (not kinds.size or np.count_nonzero(b - 48 < 10) + sep.size != b.size
            or kinds.size % 4 or (kinds.reshape(-1, 4) != (9, 9, 9, 10)).any()
            or width.min() < 1 or width.max() > 18):
        return None
    ids = np.fromstring(b, dtype=np.int64, sep=" ").reshape(-1, 4)[:, :2]
    return ids if ids.min() > 0 else None


def load_ml100k(path) -> InteractionDataset:
    """Load a `u.data`-style TSV (user, item, rating, timestamp; 1-based ids).

    Every rated pair becomes one interaction regardless of rating value; duplicates
    collapse. All interactions land in `train` (split separately). A canonical file
    (`_canonical_ids`) is parsed whole, any other line by line: a bad line, a non-ASCII
    byte or an id beyond int64 raises ParseError naming path and line.
    """
    ids = _canonical_ids(path)
    users, items = ids.T if ids is not None else ([], [])
    if ids is None:
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
                if not (0 < u < 2**63 and 0 < i < 2**63):  # ids are parsed into int64
                    raise ParseError(f"{path}: line {lineno}: ids must be in [1, 2**63 - 1]")
                users.append(u)
                items.append(i)
        if not users:
            raise ParseError(f"{path}: no interactions found")
    # dense 0-based re-indexing, deterministic: ascending original id
    orig_users, user_ids = np.unique(np.array(users, dtype=np.int64), return_inverse=True)
    orig_items, item_ids = np.unique(np.array(items, dtype=np.int64), return_inverse=True)
    return InteractionDataset(len(orig_users), len(orig_items),
                              train=np.stack([user_ids, item_ids], axis=1),
                              orig_user_ids=tuple(orig_users.tolist()),
                              orig_item_ids=tuple(orig_items.tolist()))


def split_train_test(dataset: InteractionDataset, ratio: float = 0.8, seed: int = 0) -> InteractionDataset:
    """Per-user random holdout: each user in ascending order draws one permutation of its
    items (ascending); the first floor(ratio * n_u) (at least 1) go to train."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    # their union: both are sorted and distinct, and the constructor rejects overlap
    keys = np.sort(np.concatenate([dataset.train_keys, dataset.test_keys]))
    counts = np.bincount(keys // dataset.num_items, minlength=dataset.num_users)
    # each holding user's first key and count; a user without a key draws nothing
    starts, counts = (np.cumsum(counts) - counts)[counts > 0], counts[counts > 0]
    n_train = np.maximum(1, np.floor(ratio * counts).astype(np.int64))
    rng = np.random.default_rng(seed)
    in_train = np.zeros(len(keys), dtype=bool)
    for start, n, k in zip(starts.tolist(), counts.tolist(), n_train.tolist()):
        in_train[start + rng.permutation(n)[:k]] = True
    return InteractionDataset(dataset.num_users, dataset.num_items,
                              train=keys[in_train], test=keys[~in_train],
                              orig_user_ids=dataset.orig_user_ids,
                              orig_item_ids=dataset.orig_item_ids, as_keys=True)


def build_graph(edges, num_users: int, num_items: int, *, as_keys=False) -> BipartiteGraph:
    """Build A_hat = D^(-1/2) A D^(-1/2) over the stacked user+item node space from
    an (m, 2) integer array or an iterable of (user, item) pairs (duplicates collapse),
    or with as_keys from what `checked_keys` takes."""
    n = num_users + num_items
    # sorted keys put the edges in (user, item) order
    ue, ie = np.divmod((checked_keys if as_keys else pair_keys)(edges, num_users, num_items), num_items)
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
