"""Stochastic graph augmentations (node drop, edge drop, node replication) and
the top-N cosine similarity index that drives replication and positive labeling."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from sclrec.dataset import BipartiteGraph, build_graph, in_sorted, sorted_distinct
from sclrec.gcn import row_blocks
from sclrec.metrics import top_k

SIM_MAGIC = b"SCLSIM1\0"


@dataclass(frozen=True)
class AugmentationConfig:
    rho1: float = 0.1   # node drop probability
    rho2: float = 0.1   # edge drop probability
    rho3: float = 0.1   # node replication probability
    k_segments: int = 4
    top_n: int = 10
    method: str = "NR"  # one of ND, ED, NR

    def __post_init__(self):
        for name in ("rho1", "rho2", "rho3"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.k_segments < 1:
            raise ValueError("k_segments must be >= 1")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")
        if self.method not in ("ND", "ED", "NR"):
            raise ValueError(f"unknown augmentation method {self.method!r}")


@dataclass(frozen=True)
class AugmentedView:
    """A perturbed copy of a graph. Node id space matches the source; dropped
    nodes keep their ids and simply lose all incident edges."""

    graph: BipartiteGraph
    dropped_nodes: tuple = ()            # stacked node ids (ND)
    dropped_edge_indices: tuple = ()     # indices into the source edge tuple (ED)
    replications: tuple = ()             # (node, removed_edges, added_edges) triples (NR)

    def __getattribute__(self, name):  # a function in `replications` makes them on first read
        value = object.__getattribute__(self, name)
        if name == "replications" and callable(value):
            object.__setattr__(self, name, value := value())
        return value


@dataclass(frozen=True, eq=False)
class Neighbors:
    """One side's top-N same-side neighbors by cosine over binary interaction rows.

    Row a of `ids` lists node a's neighbors in its first `counts[a]` entries
    (0 for a degree-0 node), `scores` their cosines, sorted by cosine
    descending, ties broken by ascending id; a node never lists itself.
    """

    ids: np.ndarray     # (n, k) int64
    scores: np.ndarray  # (n, k) float64
    counts: np.ndarray  # (n,) int64

    def pair_matrix(self) -> sp.csr_matrix:
        """Symmetric boolean n x n CSR storing only true entries: (a, b) if either
        lists the other; diagonal true (a node's two views are mutual positives)."""
        n = len(self.counts)
        a = np.repeat(np.arange(n), self.counts)
        b = self.ids[np.arange(self.ids.shape[1]) < self.counts[:, None]]
        m = sp.csr_matrix((np.ones(len(a), dtype=bool), (a, b)), shape=(n, n))
        return m + m.T + sp.eye(n, dtype=bool, format="csr")

    @cached_property
    def tuples(self) -> tuple:
        """Per-node tuples of (id, cosine); for tests only."""
        rows = zip(self.ids.tolist(), self.scores.tolist(), self.counts.tolist())
        return tuple(tuple(zip(ids[:c], scores[:c])) for ids, scores, c in rows)


@dataclass(frozen=True, eq=False)
class SimilarityIndex:
    """Each side's `Neighbors`, computed separately."""

    users: Neighbors
    items: Neighbors
    user_neighbors = property(lambda self: self.users.tuples)  # for tests only
    item_neighbors = property(lambda self: self.items.tuples)


def _top_n_neighbors(counts: np.ndarray, deg: np.ndarray, top_n: int) -> Neighbors:
    """Top-N cosine neighbors per row of an n x n co-occurrence count matrix; self excluded.

    cosine(a, b) = |N(a) ∩ N(b)| / (sqrt(deg a) * sqrt(deg b)); degree-0 rows
    list no one and score 0 against everyone else. Scored and ranked 64 rows at a time
    in gcn's row blocks; top_k is row-local, so the chunks change no byte.
    """
    n = len(deg)
    k = min(top_n, n - 1)
    inv = np.divide(1.0, np.sqrt(deg), out=np.zeros(n), where=deg > 0)
    ids, scores = np.empty((n, k), np.int64), np.empty((n, k))
    def block(a, b):
        for c in range(a, b, 64):
            d = min(c + 64, b)
            s = counts[c:d] * inv[c:d, None]  # float64; rows, then columns, for the scores' bits
            s *= inv[None, :]
            np.fill_diagonal(s[:, c:d], -np.inf)  # self excluded
            ids[c:d] = top_k(s, k)
            scores[c:d] = np.take_along_axis(s, ids[c:d], axis=1)
    row_blocks(block, n)
    return Neighbors(ids=ids, scores=scores, counts=np.where(deg > 0, k, 0))


def compute_similarity(graph: BipartiteGraph, top_n: int) -> SimilarityIndex:
    """User-side and item-side cosine similarity, each side computed separately."""
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    if graph.num_users < 2 or graph.num_items < 2:
        raise ValueError("similarity needs at least 2 users and 2 items")
    nu, deg = graph.num_users, np.diff(graph.norm_adj.indptr)  # a CSR row's length is its degree
    # binary user x item, whose flat index is the edge key; its syrk counts (< 2**24)
    # are exact in float32 at any thread count
    x = np.zeros((nu, graph.num_items), dtype=np.float32)
    x.reshape(-1)[graph.keys] = 1.0
    return SimilarityIndex(users=_top_n_neighbors(x @ x.T, deg[:nu], top_n),
                           items=_top_n_neighbors(x.T @ x, deg[nu:], top_n))


def node_drop(graph: BipartiteGraph, rho1: float, rng: np.random.Generator) -> AugmentedView:
    """Drop each node independently with probability rho1 along with incident edges."""
    if graph.num_nodes == 0:
        raise ValueError("empty graph")
    mask = rng.random(graph.num_nodes) < rho1
    users, items = np.divmod(graph.keys, graph.num_items)
    kept = ~(mask[users] | mask[graph.num_users + items])
    g = build_graph(graph.keys[kept], graph.num_users, graph.num_items, as_keys=True)
    return AugmentedView(graph=g, dropped_nodes=tuple(np.flatnonzero(mask).tolist()))


def edge_drop(graph: BipartiteGraph, rho2: float, rng: np.random.Generator) -> AugmentedView:
    """Drop each edge independently with probability rho2; node set untouched."""
    if graph.num_nodes == 0:
        raise ValueError("empty graph")
    mask = rng.random(len(graph.keys)) < rho2
    g = build_graph(graph.keys[~mask], graph.num_users, graph.num_items, as_keys=True)
    return AugmentedView(graph=g, dropped_edge_indices=tuple(np.flatnonzero(mask).tolist()))


def node_replication(graph: BipartiteGraph, rho3: float, k_segments: int,
                     sim_index: SimilarityIndex, rng: np.random.Generator) -> AugmentedView:
    """Replace one interaction segment of each selected node with edges drawn
    from a similar node.

    For a selected node: its interactions (ordered by counterpart id ascending)
    are cut into k near-equal contiguous segments; one segment's edges are
    removed; a donor is drawn uniformly from the node's top-N neighbors; up to
    |segment| of the donor's interactions not already on the node are added.
    All decisions are made against the source edge set; the view's edges are
    (source - removed) ∪ added.
    """
    if graph.num_nodes == 0:
        raise ValueError("empty graph")
    nu, ni = graph.num_users, graph.num_items
    # a node's partners are its CSR row: stacked ids of the other side, ascending
    indptr, indices = graph.norm_adj.indptr, graph.norm_adj.indices.astype(np.int64)
    selected = rng.random(graph.num_nodes) < rho3
    removed, added, replicated = [], [], []
    for node in np.flatnonzero(selected).tolist():  # users, then items
        as_user = node < nu
        partners = indices[indptr[node]:indptr[node + 1]]
        side, row = (sim_index.users, node) if as_user else (sim_index.items, node - nu)
        count = int(side.counts[row])
        if not len(partners) or not count:
            continue
        k = min(k_segments, len(partners))
        size, extra = divmod(len(partners), k)  # np.array_split's segment sizes
        s = int(rng.integers(k))
        start = s * size + min(s, extra)
        seg = partners[start:start + size + (s < extra)]
        donor = int(side.ids[row, rng.integers(count)]) + (0 if as_user else nu)
        donor_partners = indices[indptr[donor]:indptr[donor + 1]]
        novel = donor_partners[~in_sorted(partners, donor_partners)]
        n_add = min(len(seg), len(novel))
        picks = rng.choice(len(novel), size=n_add, replace=False) if n_add else []
        for others, out in ((seg, removed), (np.sort(novel[picks]), added)):
            out.append(node * ni + others - nu if as_user else others * ni + node - nu)
        replicated.append(node)
    keys = graph.keys
    if removed:  # two selected nodes can add the same edge
        kept = keys[~in_sorted(np.sort(np.concatenate(removed)), keys)]
        keys = sorted_distinct(np.concatenate([kept, *added]))
    g = build_graph(keys, nu, ni, as_keys=True)

    def replications():  # each edge key back to its (user, item) pair
        return tuple((node, *(tuple(zip(*(a.tolist() for a in np.divmod(k, ni)))) for k in ra))
                     for node, *ra in zip(replicated, removed, added))
    return AugmentedView(graph=g, replications=replications)


def make_views(graph: BipartiteGraph, config: AugmentationConfig,
               sim_index, rng: np.random.Generator):
    """Two independent augmented views with the configured method."""
    def one():
        if config.method == "ND":
            return node_drop(graph, config.rho1, rng)
        if config.method == "ED":
            return edge_drop(graph, config.rho2, rng)
        return node_replication(graph, config.rho3, config.k_segments, sim_index, rng)
    return one(), one()


def save_similarity(index: SimilarityIndex, path) -> None:
    """For inspection only: nothing reads it back. Binary format: magic, user/item counts,
    then per-node neighbor lists as (count: u32 LE, then pairs of id: u32 LE, score: f32 LE)."""
    with open(path, "wb") as fh:
        fh.write(SIM_MAGIC)
        fh.write(struct.pack("<II", len(index.users.counts), len(index.items.counts)))
        for side in (index.users, index.items):
            pairs = np.empty(side.ids.shape, dtype=[("id", "<u4"), ("score", "<f4")])
            pairs["id"], pairs["score"] = side.ids, side.scores
            for count, row in zip(side.counts.tolist(), pairs):
                fh.write(struct.pack("<I", count) + row[:count].tobytes())
