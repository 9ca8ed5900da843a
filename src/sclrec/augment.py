"""Stochastic graph augmentations (node drop, edge drop, node replication) and
the top-N cosine similarity index that drives replication and positive labeling."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from sclrec.dataset import BipartiteGraph, build_graph, key_pairs
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
        keys = np.sort(np.concatenate([a * n + b, b * n + a, np.arange(n) * (n + 1)]))
        keys = keys[np.diff(keys, prepend=-1) != 0]  # each pair once
        return sp.csr_matrix((np.ones(len(keys), dtype=bool), keys % n,
                              np.searchsorted(keys, np.arange(n + 1) * n)), shape=(n, n))

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
    list no one and score 0 against everyone else.
    """
    n = len(deg)
    inv = np.zeros(n)
    inv[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    scores = counts * inv[:, None]  # float64; rows, then columns, for the scores' bits
    scores *= inv[None, :]
    np.fill_diagonal(scores, -np.inf)  # self excluded
    top = top_k(scores, min(top_n, n - 1))
    return Neighbors(ids=top, scores=np.take_along_axis(scores, top, axis=1),
                     counts=np.where(deg > 0, top.shape[1], 0))


def compute_similarity(graph: BipartiteGraph, top_n: int) -> SimilarityIndex:
    """User-side and item-side cosine similarity, each side computed separately."""
    if graph.num_users < 2 or graph.num_items < 2:
        raise ValueError("similarity needs at least 2 users and 2 items")
    nu, ni = graph.num_users, graph.num_items
    users, items = graph.edge_array().T
    # binary user x item; its syrk counts (< 2**24) are exact in float32 at any thread count
    x = np.zeros((nu, ni), dtype=np.float32)
    x[users, items] = 1.0
    return SimilarityIndex(
        users=_top_n_neighbors(x @ x.T, np.bincount(users, minlength=nu), top_n),
        items=_top_n_neighbors(x.T @ x, np.bincount(items, minlength=ni), top_n),
    )


def node_drop(graph: BipartiteGraph, rho1: float, rng: np.random.Generator) -> AugmentedView:
    """Drop each node independently with probability rho1 along with incident edges."""
    if graph.num_nodes == 0:
        raise ValueError("empty graph")
    mask = rng.random(graph.num_nodes) < rho1
    edges = graph.edge_array()
    kept = ~(mask[edges[:, 0]] | mask[graph.num_users + edges[:, 1]])
    g = build_graph(edges[kept], graph.num_users, graph.num_items)
    return AugmentedView(graph=g, dropped_nodes=tuple(np.flatnonzero(mask).tolist()))


def edge_drop(graph: BipartiteGraph, rho2: float, rng: np.random.Generator) -> AugmentedView:
    """Drop each edge independently with probability rho2; node set untouched."""
    if graph.num_nodes == 0:
        raise ValueError("empty graph")
    edges = graph.edge_array()
    mask = rng.random(len(edges)) < rho2
    g = build_graph(edges[~mask], graph.num_users, graph.num_items)
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
    is_partner = np.zeros(graph.num_nodes, dtype=bool)
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
        is_partner[partners] = True
        donor_partners = indices[indptr[donor]:indptr[donor + 1]]
        novel = donor_partners[~is_partner[donor_partners]]
        is_partner[partners] = False
        n_add = min(len(seg), len(novel))
        picks = rng.choice(len(novel), size=n_add, replace=False) if n_add else []
        for others, out in ((seg, removed), (np.sort(novel[picks]), added)):
            users, items = ((np.full(len(others), node), others - nu) if as_user
                            else (others, np.full(len(others), node - nu)))
            out.append(users * ni + items)
        replicated.append(node)
    edges = graph.edge_array()
    keys = edges[:, 0] * ni + edges[:, 1]
    if removed:
        keys = np.concatenate([keys[~np.isin(keys, np.concatenate(removed))], *added])
    g = build_graph(key_pairs(keys, ni), nu, ni)

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
