import struct

import numpy as np
import pytest

from sclrec.augment import (AugmentationConfig, compute_similarity, edge_drop,
                            load_similarity, node_drop, node_replication,
                            save_similarity)
from sclrec.dataset import build_graph

from conftest import random_bipartite


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


def test_similarity_requires_two_per_side():
    g = build_graph([(0, 0)], 1, 2)
    with pytest.raises(ValueError):
        compute_similarity(g, top_n=1)


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
    g = random_bipartite(rng, max_users=12, max_items=12)
    if g.num_users < 2 or g.num_items < 2:
        g = build_graph([(0, 0), (0, 1), (1, 0), (1, 1)], 2, 2)
    sim = compute_similarity(g, top_n=4)
    path = tmp_path / "sim.sclsim"
    save_similarity(sim, path)
    assert path.read_bytes()[:8] == b"SCLSIM1\0"
    loaded = load_similarity(path)
    assert len(loaded.user_neighbors) == len(sim.user_neighbors)
    for a, neigh in enumerate(sim.user_neighbors):
        got = loaded.user_neighbors[a]
        assert [b for b, _ in got] == [b for b, _ in neigh]
        for (_, s1), (_, s2) in zip(got, neigh):
            assert s1 == pytest.approx(s2, rel=1e-6)  # f32 storage


def test_similarity_load_bad_magic(tmp_path):
    path = tmp_path / "bad.sclsim"
    path.write_bytes(b"NOTSIM00" + b"\0" * 8)
    with pytest.raises(ValueError, match="magic"):
        load_similarity(path)


def test_similarity_load_rejects_cut_and_extended_files(tmp_path):
    g = build_graph([(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)], 3, 2)
    path = tmp_path / "sim.sclsim"
    save_similarity(compute_similarity(g, top_n=2), path)
    data = path.read_bytes()
    boundaries, offset = [8, 16], 16
    for _ in range(3 + 2):  # one neighbor list per user, then per item
        (count,) = struct.unpack_from("<I", data, offset)
        offset += 4 + 8 * count
        boundaries += [offset - 8 * count, offset]
    assert offset == len(data)
    cuts = {c for b in boundaries for c in (b - 1, b, b + 1) if 0 <= c < len(data)}
    for size, content in [(c, data[:c]) for c in sorted(cuts)] + [(len(data) + 1, data + b"\0")]:
        path.write_bytes(content)
        with pytest.raises(ValueError) as info:
            load_similarity(path)
        assert str(info.value).startswith(f"{path}: similarity file is {size} bytes, expected ")
