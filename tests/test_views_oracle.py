"""The array-native graph build and augmentations against the set-based
versions they replaced, kept here as oracles with their algorithms unchanged:
same views, same adjacency arrays, same random draws."""

import numpy as np
import pytest
import scipy.sparse as sp

from sclrec.augment import (AugmentedView, SimilarityIndex, compute_similarity, edge_drop,
                            node_drop, node_replication)
from sclrec.dataset import BipartiteGraph, build_graph


def build_graph_reference(edges, num_users, num_items):
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
        rows = np.concatenate([ue, ie])
        cols = np.concatenate([ie, ue])
        data = np.concatenate([w, w])
        adj = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    else:
        adj = sp.csr_matrix((n, n), dtype=np.float64)
    return BipartiteGraph(num_users=num_users, num_items=num_items, norm_adj=adj)


def node_drop_reference(graph, rho1, rng):
    mask = rng.random(graph.num_nodes) < rho1
    dropped = np.flatnonzero(mask)
    dropped_set = set(int(x) for x in dropped)
    kept = [e for e in graph.edges
            if e[0] not in dropped_set and graph.num_users + e[1] not in dropped_set]
    g = build_graph_reference(kept, graph.num_users, graph.num_items)
    return AugmentedView(graph=g, dropped_nodes=tuple(int(x) for x in dropped))


def edge_drop_reference(graph, rho2, rng):
    mask = rng.random(len(graph.edges)) < rho2
    kept = [e for e, m in zip(graph.edges, mask) if not m]
    g = build_graph_reference(kept, graph.num_users, graph.num_items)
    return AugmentedView(graph=g, dropped_edge_indices=tuple(int(x) for x in np.flatnonzero(mask)))


def node_replication_reference(graph, rho3, k_segments, sim_index, rng):
    user_items = [[] for _ in range(graph.num_users)]
    item_users = [[] for _ in range(graph.num_items)]
    for u, i in graph.edges:
        user_items[u].append(i)
        item_users[i].append(u)

    selected = rng.random(graph.num_nodes) < rho3
    removed, added, provenance = set(), set(), []

    def replicate(node, partners, neighbors, as_user):
        if not partners or not neighbors:
            return
        k = min(k_segments, len(partners))
        segments = np.array_split(np.array(sorted(partners)), k)
        seg = segments[int(rng.integers(k))]
        donor = neighbors[int(rng.integers(len(neighbors)))][0]
        donor_partners = user_items[donor] if as_user else item_users[donor]
        novel = sorted(set(donor_partners) - set(partners))
        n_add = min(len(seg), len(novel))
        picks = rng.choice(len(novel), size=n_add, replace=False) if n_add else []
        if as_user:
            rem = {(node, int(p)) for p in seg}
            add = {(node, novel[int(p)]) for p in picks}
        else:
            rem = {(int(p), node) for p in seg}
            add = {(novel[int(p)], node) for p in picks}
        removed.update(rem)
        added.update(add)
        provenance.append((int(node) if as_user else graph.num_users + int(node),
                           tuple(sorted(rem)), tuple(sorted(add))))

    for u in range(graph.num_users):
        if selected[u]:
            replicate(u, user_items[u], sim_index.user_neighbors[u], as_user=True)
    for i in range(graph.num_items):
        if selected[graph.num_users + i]:
            replicate(i, item_users[i], sim_index.item_neighbors[i], as_user=False)

    new_edges = (set(graph.edges) - removed) | added
    g = build_graph_reference(new_edges, graph.num_users, graph.num_items)
    return AugmentedView(graph=g, replications=tuple(provenance))


def assert_same_adjacency(graph, ref):
    a, b = graph.norm_adj, ref.norm_adj
    assert a.shape == b.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.dtype == b.dtype and a.indices.dtype == b.indices.dtype


def assert_same_view(view, ref):
    assert view.graph.edges == ref.graph.edges
    assert view.dropped_nodes == ref.dropped_nodes
    assert view.dropped_edge_indices == ref.dropped_edge_indices
    assert view.replications == ref.replications
    assert_same_adjacency(view.graph, ref.graph)


def random_graphs(seed, count):
    """Graphs with isolated nodes on both sides, dense and sparse ones, and a
    complete one, where no donor has a novel partner."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        nu, ni = int(rng.integers(2, 30)), int(rng.integers(2, 30))
        p = float(rng.choice([0.05, 0.2, 0.5, 0.9]))
        edges = [(u, i) for u in range(nu - 1) for i in range(ni - 1) if rng.random() < p]
        yield build_graph(edges, nu, ni)  # the last user and item are isolated
    yield build_graph([(u, i) for u in range(6) for i in range(5)], 6, 5)


@pytest.mark.parametrize("rho", [0.0, 0.1, 0.5, 1.0])
def test_drops_match_set_based_reference(rho):
    for k, g in enumerate(random_graphs(1, 40)):
        for new, ref in ((node_drop, node_drop_reference), (edge_drop, edge_drop_reference)):
            rng_new, rng_ref = np.random.default_rng(k), np.random.default_rng(k)
            assert_same_view(new(g, rho, rng_new), ref(g, rho, rng_ref))
            assert rng_new.random() == rng_ref.random()  # same number of draws


@pytest.mark.parametrize("rho", [0.0, 0.1, 0.5, 1.0])
@pytest.mark.parametrize("k_segments", [1, 3, 50])
def test_node_replication_matches_set_based_reference(rho, k_segments):
    for k, g in enumerate(random_graphs(2, 40)):
        sim = compute_similarity(g, 3)
        rng_new, rng_ref = np.random.default_rng(k), np.random.default_rng(k)
        view = node_replication(g, rho, k_segments, sim, rng_new)
        ref = node_replication_reference(g, rho, k_segments, sim, rng_ref)
        assert_same_view(view, ref)
        assert rng_new.random() == rng_ref.random()


def test_node_replication_reference_cases_occur():
    # the comparison above covers isolated nodes (random_graphs adds them),
    # segments cut below k_segments (k = 50), donors with and without a novel partner
    added = [bool(a) for k, g in enumerate(random_graphs(2, 40))
             for _node, _removed, a in node_replication(
                 g, 1.0, 50, compute_similarity(g, 3), np.random.default_rng(k)).replications]
    assert any(added) and not all(added)


def test_node_replication_donor_without_neighbors_or_partners():
    # a user with no neighbors draws nothing; a donor with no partners adds nothing
    g = build_graph([(0, 0), (0, 1), (1, 1)], 3, 2)
    sim = SimilarityIndex(user_neighbors=(((2, 0.0),), (), ((0, 1.0),)),
                          item_neighbors=(((1, 0.5),), ((0, 0.5),)))
    for seed in range(20):
        rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert_same_view(node_replication(g, 1.0, 2, sim, rng_new),
                         node_replication_reference(g, 1.0, 2, sim, rng_ref))
        assert rng_new.random() == rng_ref.random()


def test_build_graph_matches_set_based_reference():
    for g in random_graphs(3, 40):
        edges = list(g.edges)
        rng = np.random.default_rng(len(edges))
        shuffled = [edges[j] for j in rng.permutation(len(edges))] + edges[:5]  # with repeats
        ref = build_graph_reference(shuffled, g.num_users, g.num_items)
        for given in (shuffled, np.array(shuffled, dtype=np.int64).reshape(-1, 2)):
            built = build_graph(given, g.num_users, g.num_items)
            assert built.edges == ref.edges
            assert_same_adjacency(built, ref)


def test_build_graph_array_and_iterable_agree():
    pairs = [(2, 0), (0, 1), (2, 0), (1, 3), (0, 1), (0, 0)]
    from_list = build_graph(pairs, 3, 4)
    from_gen = build_graph(((u, i) for u, i in pairs), 3, 4)
    from_array = build_graph(np.array(pairs, dtype=np.int32), 3, 4)
    assert from_list.edges == ((0, 0), (0, 1), (1, 3), (2, 0))  # duplicates collapse
    assert from_list.norm_adj.nnz == 8
    for g in (from_gen, from_array):
        assert g.edges == from_list.edges
        assert_same_adjacency(g, from_list)


@pytest.mark.parametrize("edges, message", [
    ([(0, 5)], "edge (0,5) out of range"),
    ([(1, 1), (3, 0), (2, 9), (0, 2)], "edge (2,9) out of range"),  # first bad in sorted order
    ([(1, 1), (4, 0), (3, -1), (0, 2)], "edge (3,-1) out of range"),
    ([(0, 0), (-1, 7), (-1, 2)], "edge (-1,2) out of range"),
])
def test_build_graph_out_of_range_message(edges, message):
    for given in (edges, np.array(edges)):
        with pytest.raises(ValueError) as exc:
            build_graph(given, 2, 3)
        assert str(exc.value) == message
        with pytest.raises(ValueError) as exc:
            build_graph_reference(edges, 2, 3)
        assert str(exc.value) == message


def test_build_graph_empty_inputs():
    for given in ([], (), np.empty((0, 2), dtype=np.int64)):
        g = build_graph(given, 3, 4)
        assert g.edges == () and g.norm_adj.shape == (7, 7) and g.norm_adj.nnz == 0
        assert_same_adjacency(g, build_graph_reference([], 3, 4))
