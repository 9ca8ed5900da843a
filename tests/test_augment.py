import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sclrec.augment import (AugmentationConfig, _top_n_neighbors, compute_similarity, edge_drop,
                            node_drop, node_replication, save_similarity)
from sclrec.dataset import build_graph, key_pairs

from conftest import POOLS, blocks_of, random_bipartite, similarity_from_tuples
from oracles import save_similarity_reference, top_n_neighbors_reference
from test_train import similar_pairs_matrix_loop


def dense_cosine_users(edges, num_users, num_items):
    """Brute-force cosine of binary interaction rows; oracle for compute_similarity."""
    mat = np.zeros((num_users, num_items))
    for u, i in edges:
        mat[u, i] = 1.0
    out = np.zeros((num_users, num_users))
    for a in range(num_users):
        for b in range(num_users):
            na, nb = np.linalg.norm(mat[a]), np.linalg.norm(mat[b])
            out[a, b] = mat[a] @ mat[b] / (na * nb) if na and nb else 0.0
    return out


def test_config_validation():
    AugmentationConfig()
    with pytest.raises(ValueError):
        AugmentationConfig(rho1=1.5)
    with pytest.raises(ValueError):
        AugmentationConfig(k_segments=0)
    with pytest.raises(ValueError):
        AugmentationConfig(top_n=0)
    with pytest.raises(ValueError):
        AugmentationConfig(method="RW")


def test_node_drop_identity(rng):
    g = random_bipartite(rng)
    v = node_drop(g, 0.0, rng)
    assert v.graph.edges == g.edges
    assert v.dropped_nodes == ()


def test_node_drop_all(rng):
    g = build_graph([(0, 0), (0, 1), (1, 1)], 2, 2)
    v = node_drop(g, 1.0, rng)
    assert v.graph.edges == ()
    assert len(v.dropped_nodes) == 4


def test_node_drop_no_incident_edges(rng):
    for _ in range(20):
        g = random_bipartite(rng)
        v = node_drop(g, 0.3, rng)
        dropped = set(v.dropped_nodes)
        for u, i in v.graph.edges:
            assert u not in dropped
            assert g.num_users + i not in dropped


def test_node_drop_rate_concentration():
    rng = np.random.default_rng(0)
    edges = [(u, u % 500) for u in range(500)] + [(u % 500, i) for i, u in enumerate(range(500))]
    g = build_graph(edges, 500, 500)
    fractions = [len(node_drop(g, 0.1, rng).dropped_nodes) / g.num_nodes for _ in range(200)]
    assert 0.08 <= np.mean(fractions) <= 0.12  # binomial expectation 0.1


def test_edge_drop_identity_and_all(rng):
    g = random_bipartite(rng)
    assert edge_drop(g, 0.0, rng).graph.edges == g.edges
    v = edge_drop(g, 1.0, rng)
    assert v.graph.edges == ()
    assert v.graph.num_nodes == g.num_nodes  # node count unchanged


def test_edge_drop_rate_concentration():
    rng = np.random.default_rng(1)
    edges = [(u, i) for u in range(100) for i in range(100)]
    g = build_graph(edges, 100, 100)
    kept = [len(edge_drop(g, 0.1, rng).graph.edges) / len(edges) for _ in range(200)]
    assert 0.88 <= np.mean(kept) <= 0.92


def test_similarity_identical_rows():
    g = build_graph([(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)], 3, 3)
    sim = compute_similarity(g, top_n=2)
    assert sim.user_neighbors[0][0] == (1, pytest.approx(1.0))
    assert sim.user_neighbors[1][0] == (0, pytest.approx(1.0))


def test_similarity_hand_value():
    # A={i0,i1}, B={i0,i2}: cosine = 1/sqrt(2*2) = 0.5
    g = build_graph([(0, 0), (0, 1), (1, 0), (1, 2)], 2, 3)
    sim = compute_similarity(g, top_n=1)
    assert sim.user_neighbors[0][0] == (1, pytest.approx(0.5))


def test_similarity_never_lists_self_and_sorted(rng):
    for _ in range(20):
        g = random_bipartite(rng, max_users=15, max_items=15)
        if g.num_users < 2 or g.num_items < 2:
            continue
        sim = compute_similarity(g, top_n=5)
        for a, neigh in enumerate(sim.user_neighbors):
            ids = [b for b, _ in neigh]
            scores = [s for _, s in neigh]
            assert a not in ids
            assert all(0.0 <= s <= 1.0 + 1e-12 for s in scores)
            assert scores == sorted(scores, reverse=True)
            # ties broken by ascending id
            for (b1, s1), (b2, s2) in zip(neigh, neigh[1:]):
                if s1 == s2:
                    assert b1 < b2


def test_similarity_zero_degree_node_empty():
    g = build_graph([(0, 0), (1, 0)], 3, 2)
    sim = compute_similarity(g, top_n=2)
    assert sim.user_neighbors[2] == ()


def test_similarity_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(15):
        nu = int(rng.integers(2, 20))
        ni = int(rng.integers(2, 20))
        edges = [(u, i) for u in range(nu) for i in range(ni) if rng.random() < 0.35]
        g = build_graph(edges, nu, ni)
        sim = compute_similarity(g, top_n=nu)
        ref = dense_cosine_users(edges, nu, ni)
        deg = np.zeros(nu)
        for u, _ in edges:
            deg[u] += 1
        for a in range(nu):
            if deg[a] == 0:
                assert sim.user_neighbors[a] == ()
                continue
            for b, score in sim.user_neighbors[a]:
                assert score == pytest.approx(ref[a, b], abs=1e-12)
            # exact ranking under the tie-break rule
            others = [b for b in range(nu) if b != a]
            expected = sorted(others, key=lambda b: (-ref[a, b], b))[: len(sim.user_neighbors[a])]
            assert [b for b, _ in sim.user_neighbors[a]] == expected


@st.composite
def binary_rows(draw):
    """2-200 interaction rows over a few columns: empty rows, repeated rows and tied scores."""
    n, m = draw(st.integers(2, 200)), draw(st.integers(1, 10))
    x = draw(hnp.arrays(np.bool_, (n, m)))
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20))
    for a, b in copies:
        x[b] = x[a]
    return x


@settings(derandomize=True, max_examples=150, deadline=None)
@given(binary_rows(), st.sampled_from([np.float32, np.float64]), st.integers(1, 210))
def test_top_n_neighbors_row_chunks_match_the_whole_matrix(x, dtype, top_n):
    # 64-row chunks cut by 1-4 blocks score, exclude self and rank as the n x n matrix does
    x = x.astype(dtype)
    counts, deg = x @ x.T, np.count_nonzero(x, axis=1)
    want = top_n_neighbors_reference(counts, deg, top_n)
    for blocks in POOLS:
        with blocks_of(blocks):
            got = _top_n_neighbors(counts, deg, top_n)
        for name in ("ids", "scores", "counts"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_similarity_requires_two_per_side():
    g = build_graph([(0, 0)], 1, 2)
    with pytest.raises(ValueError):
        compute_similarity(g, top_n=1)


@pytest.mark.parametrize("top_n", [0, -1])
def test_similarity_rejects_top_n_below_1(top_n):
    g = build_graph([(0, 0), (0, 1), (1, 0), (1, 2)], 2, 3)
    with pytest.raises(ValueError, match=f"^top_n must be >= 1, got {top_n}$"):
        compute_similarity(g, top_n)


def test_node_replication_identity(rng):
    g = build_graph([(0, 0), (0, 1), (1, 0), (1, 2)], 2, 3)
    sim = compute_similarity(g, top_n=2)
    v = node_replication(g, 0.0, 2, sim, rng)
    assert v.graph.edges == g.edges
    assert v.replications == ()


def test_node_replication_donor_shares_all():
    # node with 4 interactions, k=4, donor shares all 4: segment removed, degree drops by 1
    edges = [(0, i) for i in range(4)] + [(1, i) for i in range(4)]
    g = build_graph(edges, 2, 4)
    sim = compute_similarity(g, top_n=1)
    hit = False
    for seed in range(60):
        rng = np.random.default_rng(seed)
        v = node_replication(g, 0.5, 4, sim, rng)
        for node, removed, added in v.replications:
            if node < 2:  # user-side op
                assert len(removed) == 1 and added == ()
                hit = True
    assert hit


def test_node_replication_enumerated_outcomes():
    # user0={i0,i1}, user1={i0,i2}; replicating only user0 with k=2 and donor
    # user1 (its sole top-1 neighbor), the novel pool is {i2}, so the exhaustive
    # outcome set is: segment {i0} removed -> {i1,i2}; segment {i1} removed -> {i0,i2}
    g = build_graph([(0, 0), (0, 1), (1, 0), (1, 2)], 2, 3)
    sim = compute_similarity(g, top_n=1)
    seen = set()
    for seed in range(400):
        rng = np.random.default_rng(seed)
        v = node_replication(g, 0.3, 2, sim, rng)
        if [node for node, _, _ in v.replications] != [0]:
            continue  # condition on exactly user0 being selected
        user0_items = frozenset(i for u, i in v.graph.edges if u == 0)
        assert user0_items in (frozenset({1, 2}), frozenset({0, 2}))
        seen.add(user0_items)
    assert seen == {frozenset({1, 2}), frozenset({0, 2})}


def test_node_replication_degree_bound(rng):
    for _ in range(20):
        g = random_bipartite(rng, max_users=15, max_items=15)
        if g.num_users < 2 or g.num_items < 2 or not g.edges:
            continue
        sim = compute_similarity(g, top_n=3)
        v = node_replication(g, 0.4, 3, sim, rng)
        for node, removed, added in v.replications:
            assert len(added) <= len(removed)  # refill capped at segment size
        # node id space never changes
        assert v.graph.num_nodes == g.num_nodes


def test_node_replication_k_clamped():
    g = build_graph([(0, 0), (1, 0), (1, 1), (1, 2)], 2, 3)
    sim = compute_similarity(g, top_n=1)
    rng = np.random.default_rng(0)
    # user0 has 1 interaction; k=4 must clamp, not crash
    v = node_replication(g, 1.0, 4, sim, rng)
    assert v.graph.num_nodes == g.num_nodes


def test_view_determinism(rng):
    g = random_bipartite(rng, max_users=20, max_items=20)
    if g.num_users < 2 or g.num_items < 2:
        g = build_graph([(0, 0), (0, 1), (1, 0), (1, 1)], 2, 2)
    sim = compute_similarity(g, top_n=3)
    for fn in (lambda r: node_drop(g, 0.3, r),
               lambda r: edge_drop(g, 0.3, r),
               lambda r: node_replication(g, 0.3, 2, sim, r)):
        a = fn(np.random.default_rng(99))
        b = fn(np.random.default_rng(99))
        assert a.graph.edges == b.graph.edges
        assert np.array_equal(a.graph.norm_adj.toarray(), b.graph.norm_adj.toarray())


def test_similarity_round_trip(tmp_path, rng):
    # the array writer against the per-pair one, byte for byte, on graphs with
    # trailing degree-0 users and items, and on an index with uneven list lengths
    def assert_same_file(sim):
        save_similarity(sim, tmp_path / "sim.sclsim")
        save_similarity_reference(sim, tmp_path / "ref.sclsim")
        assert (tmp_path / "sim.sclsim").read_bytes() == (tmp_path / "ref.sclsim").read_bytes()

    for _ in range(10):
        g = random_bipartite(rng, max_users=12, max_items=12)
        g = build_graph(key_pairs(g.keys, g.num_items), g.num_users + 2, g.num_items + 1)
        sim = compute_similarity(g, top_n=4)
        assert sim.user_neighbors[-1] == () and sim.item_neighbors[-1] == ()
        assert_same_file(sim)
    assert_same_file(similarity_from_tuples((((2, 0.0),), (), ((0, 1.0), (1, 0.25))),
                                            (((1, 0.5),), ((0, 0.5),))))


@st.composite
def similarity_graphs(draw):
    """Small graphs with degree-0 nodes and possibly a user holding every item,
    and a top_n that may reach past the side sizes."""
    nu, ni = draw(st.integers(2, 9)), draw(st.integers(2, 9))
    held = draw(st.lists(st.lists(st.booleans(), min_size=ni, max_size=ni),
                         min_size=nu, max_size=nu))
    if draw(st.booleans()):
        held[draw(st.integers(0, nu - 1))] = [True] * ni
    edges = [(u, i) for u in range(nu) for i in range(ni) if held[u][i]]
    return build_graph(edges, nu, ni), draw(st.integers(1, 12))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(similarity_graphs())
def test_similarity_index_arrays_property(case):
    g, top_n = case
    sim = compute_similarity(g, top_n)
    users, items = np.divmod(g.keys, g.num_items)
    for side, neighbors, deg in (
            (sim.users, sim.user_neighbors, np.bincount(users, minlength=g.num_users)),
            (sim.items, sim.item_neighbors, np.bincount(items, minlength=g.num_items))):
        n = len(deg)
        assert side.ids.dtype == np.int64 and side.scores.dtype == np.float64
        assert np.array_equal(side.counts == 0, deg == 0)
        assert set(side.counts[deg > 0].tolist()) <= {min(top_n, n - 1)}
        for a, neigh in enumerate(neighbors):
            assert a not in [b for b, _ in neigh]
            assert list(neigh) == sorted(neigh, key=lambda pair: (-pair[1], pair[0]))
        pair = side.pair_matrix()
        assert pair.dtype == bool and pair.shape == (n, n)
        assert pair.nnz == pair.count_nonzero()  # no stored False entry
        assert (pair != pair.T).nnz == 0 and pair.diagonal().all()
        assert np.array_equal(pair.toarray(), similar_pairs_matrix_loop(neighbors, n))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(similarity_graphs(), st.floats(0.0, 1.0), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_views_keep_to_the_source_edges_property(case, rho, k_segments, seed):
    g, top_n = case
    source, rng = set(g.edges), np.random.default_rng(seed)
    view = node_drop(g, rho, rng)
    dropped = set(view.dropped_nodes)
    assert set(view.graph.edges) <= {(u, i) for u, i in source
                                     if u not in dropped and g.num_users + i not in dropped}
    assert set(edge_drop(g, rho, rng).graph.edges) <= source
    view = node_replication(g, rho, k_segments, compute_similarity(g, top_n), rng)
    deg = np.diff(g.norm_adj.indptr).tolist()
    removed_all, added_all = set(), set()
    for node, removed, added in view.replications:
        # one of the node's k near-equal segments goes, and at most as many edges come back
        k = min(k_segments, deg[node])
        assert len(removed) in {deg[node] // k, -(-deg[node] // k)} and len(added) <= len(removed)
        side = 0 if node < g.num_users else 1
        assert {e[side] for e in removed + added} == {node - side * g.num_users}
        assert set(removed) <= source and not set(added) & source
        removed_all |= set(removed)
        added_all |= set(added)
    assert set(view.graph.edges) == (source - removed_all) | added_all
