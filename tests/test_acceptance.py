"""Acceptance gate. Each test is one numbered criterion; the conftest summary
hook prints one PASS/FAIL line per criterion at the end of the run.

Criteria 4 and 5 train on the real MovieLens-100K file (see conftest.ml100k_path);
they fail with a pointer when the file is absent.
"""

import numpy as np
import pytest

from sclrec.augment import (AugmentationConfig, compute_similarity, edge_drop,
                            node_drop, node_replication)
from sclrec.dataset import build_graph, dense_norm_adj, load_ml100k, split_train_test
from sclrec.gcn import EmbeddingState, init_embeddings, propagate
from sclrec.loss import ContrastBatch, LossConfig, bpr_loss, info_nce, s_info_nce
from sclrec.metrics import evaluate, map_at_k, mrr_at_k, ndcg_at_k
from sclrec.train import TrainConfig, finetune, pretrain

from conftest import ML100K_MISSING, dataset_from_pairs, ml100k_path
from test_loss import fd_grad, random_contrast_batch
from test_metrics import brute_ap_at_k, brute_ndcg_at_k

PAPER_LIGHTGCN_NDCG10 = 21.82  # percent
SEEDS = (0, 1, 2)


# --- criterion 1: property suite -------------------------------------------

def test_criterion_1_loss_gradients_vs_finite_differences():
    rng = np.random.default_rng(100)
    for _ in range(50):
        t = int(rng.integers(1, 6))
        yp, yn = rng.normal(size=t), rng.normal(size=t)
        _, gp, gn = bpr_loss(yp, yn, 0.0, 0.0)
        assert np.allclose(gp, fd_grad(lambda y: bpr_loss(y, yn, 0.0, 0.0)[0], yp, 1e-4),
                           rtol=1e-4, atol=1e-8)
        assert np.allclose(gn, fd_grad(lambda y: bpr_loss(yp, y, 0.0, 0.0)[0], yn, 1e-4),
                           rtol=1e-4, atol=1e-8)
    for _ in range(50):
        n = 2 * int(rng.integers(2, 5))
        z = rng.normal(size=(n, 4))
        tau = float(rng.uniform(0.2, 1.5))
        _, g = info_nce(z, tau)
        assert np.allclose(g, fd_grad(lambda zz: info_nce(zz, tau)[0], z, 1e-4),
                           rtol=1e-4, atol=1e-7)
    for _ in range(50):
        batch = random_contrast_batch(rng, int(rng.integers(2, 5)), 4)
        tau = float(rng.uniform(0.2, 1.5))
        _, g = s_info_nce(batch, tau)

        def f(zz, b=batch, t=tau):
            return s_info_nce(ContrastBatch(zz, b.positive_mask), t)[0]

        assert np.allclose(g, fd_grad(f, batch.z, 1e-4), rtol=1e-4, atol=1e-7)


def test_criterion_1_cosine_scale_invariance():
    rng = np.random.default_rng(101)
    for _ in range(20):
        n = 2 * int(rng.integers(2, 6))
        z = rng.normal(size=(n, 5))
        scale = rng.uniform(0.1, 10.0, size=n)[:, None]
        li, _ = info_nce(z, 0.3)
        li2, _ = info_nce(z * scale, 0.3)
        assert li2 == pytest.approx(li, rel=1e-10)
        batch = random_contrast_batch(rng, n // 2, 5)
        ls, _ = s_info_nce(batch, 0.3)
        ls2, _ = s_info_nce(ContrastBatch(batch.z * scale, batch.positive_mask), 0.3)
        assert ls2 == pytest.approx(ls, rel=1e-10)


def test_criterion_1_metric_identities_and_oracles():
    rng = np.random.default_rng(102)
    for _ in range(1000):
        n = int(rng.integers(1, 11))
        ranked = list(rng.permutation(n))
        relevant = {int(x) for x in rng.choice(n, size=int(rng.integers(1, n + 1)),
                                               replace=False)}
        k = int(rng.integers(1, 11))
        assert map_at_k(ranked, relevant, k) == brute_ap_at_k(ranked, relevant, k)
        assert ndcg_at_k(ranked, relevant, k) == pytest.approx(
            brute_ndcg_at_k(ranked, relevant, k), rel=1e-12)
        for m in (map_at_k, mrr_at_k, ndcg_at_k):
            assert 0.0 <= m(ranked, relevant, k) <= 1.0 + 1e-12
        mrrs = [mrr_at_k(ranked, relevant, kk) for kk in (3, 5, 10)]
        assert mrrs == sorted(mrrs)
        if len(relevant) <= k:
            ideal = sorted(relevant) + [x for x in ranked if x not in relevant]
            assert ndcg_at_k(ideal, relevant, k) == pytest.approx(1.0)


def test_criterion_1_sparse_dense_propagation_equivalence():
    rng = np.random.default_rng(103)
    for _ in range(100):
        nu = int(rng.integers(1, 26))
        ni = int(rng.integers(1, 26))
        edges = [(u, i) for u in range(nu) for i in range(ni) if rng.random() < 0.3]
        g = build_graph(edges, nu, ni)
        assert np.array_equal(g.norm_adj.toarray(), dense_norm_adj(edges, nu, ni))
        d, L = 6, int(rng.integers(0, 4))
        e0 = rng.normal(size=(nu + ni, d))
        st = EmbeddingState(e0[:nu], e0[nu:], d, L)
        sparse_out = propagate(st, g).final
        dense = g.norm_adj.toarray()
        e, acc = e0.copy(), e0.copy()
        for _ in range(L):
            e = dense @ e
            acc += e
        assert np.allclose(sparse_out, acc / (L + 1), rtol=1e-10, atol=1e-14)


def test_criterion_1_similarity_brute_force_agreement():
    from test_augment import dense_cosine_users

    rng = np.random.default_rng(104)
    for _ in range(20):
        nu = int(rng.integers(2, 51))
        ni = int(rng.integers(2, 51))
        edges = [(u, i) for u in range(nu) for i in range(ni) if rng.random() < 0.25]
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
                assert abs(score - ref[a, b]) <= 1e-12
            others = [b for b in range(nu) if b != a]
            expected = sorted(others, key=lambda b: (-ref[a, b], b))
            got = [b for b, _ in sim.user_neighbors[a]]
            exp_scores = [ref[a, b] for b in expected[: len(got)]]
            for p, b in enumerate(got):
                # positional score agreement always; exact id only where the
                # ranking is unambiguous (float near-ties may reorder)
                assert abs(ref[a, b] - exp_scores[p]) <= 1e-9
                sep_above = p == 0 or exp_scores[p - 1] - ref[a, b] > 1e-9
                sep_below = p + 1 >= len(exp_scores) or ref[a, b] - exp_scores[p + 1] > 1e-9
                if sep_above and sep_below:
                    assert b == expected[p]


# --- criterion 2: augmentation statistics ----------------------------------

def _big_graph(rng, num_users=500, num_items=500, num_edges=10000):
    edges = set()
    while len(edges) < num_edges:
        edges.add((int(rng.integers(num_users)), int(rng.integers(num_items))))
    return build_graph(edges, num_users, num_items)


def test_criterion_2_drop_rates_within_two_points():
    rng = np.random.default_rng(200)
    g = _big_graph(rng)
    node_fracs = [len(node_drop(g, 0.1, rng).dropped_nodes) / g.num_nodes
                  for _ in range(200)]
    assert abs(np.mean(node_fracs) - 0.1) <= 0.02
    edge_fracs = [len(edge_drop(g, 0.1, rng).dropped_edge_indices) / len(g.edges)
                  for _ in range(200)]
    assert abs(np.mean(edge_fracs) - 0.1) <= 0.02
    sim = compute_similarity(g, 10)
    rep_fracs = [len(node_replication(g, 0.1, 4, sim, rng).replications) / g.num_nodes
                 for _ in range(200)]
    assert abs(np.mean(rep_fracs) - 0.1) <= 0.02


def test_criterion_2_node_drop_incident_edges_exhaustive():
    rng = np.random.default_rng(201)
    g = _big_graph(rng, 200, 200, 3000)
    for _ in range(10):
        v = node_drop(g, 0.15, rng)
        dropped = set(v.dropped_nodes)
        for u, i in v.graph.edges:
            assert u not in dropped and g.num_users + i not in dropped


def test_criterion_2_node_replication_degree_delta_bound():
    rng = np.random.default_rng(202)
    g = _big_graph(rng, 200, 200, 3000)
    sim = compute_similarity(g, 10)
    for _ in range(10):
        v = node_replication(g, 0.2, 4, sim, rng)
        for node, removed, added in v.replications:
            assert len(added) <= len(removed)  # own-op degree delta in [-|seg|, 0]
            assert len(removed) >= 1
        assert v.graph.num_nodes == g.num_nodes


# --- criterion 3: trivial values --------------------------------------------

def test_criterion_3_trivial_values():
    z = np.tile(np.array([0.2, -1.0, 0.4]), (4, 1))
    loss, _ = info_nce(z, 1.0)
    assert loss == pytest.approx(np.log(3), abs=1e-9)

    loss, _, _ = bpr_loss(np.array([2.5]), np.array([2.5]), 0.0, 0.0)
    assert loss == pytest.approx(np.log(2), abs=1e-12)

    pair = np.eye(2, dtype=bool)
    pos = np.kron(pair, np.ones((2, 2), dtype=bool))
    np.fill_diagonal(pos, False)
    batch = ContrastBatch(z=z, positive_mask=pos)
    loss, _ = s_info_nce(batch, 1.0)
    assert loss == pytest.approx(np.log(2), abs=1e-9)


# --- criteria 4 and 5: ML-100K reproduction ---------------------------------

_run_cache = {}


def _ml100k_dataset(seed):
    path = ml100k_path()
    if path is None:
        pytest.fail(ML100K_MISSING)
    ds = split_train_test(load_ml100k(path), ratio=0.8, seed=seed)
    assert ds.num_users == 943 and ds.num_items == 1682
    assert len(ds.train) + len(ds.test) == 100000
    return ds


def _run_method(method, seed):
    key = (method, seed)
    if key in _run_cache:
        return _run_cache[key]
    ds = _ml100k_dataset(seed)
    train_cfg = TrainConfig(lr=0.001, batch_size=1024, pretrain_epochs=200,
                            finetune_epochs=400, seed=seed, eval_every=10,
                            patience=50, dtype="float32")
    loss_cfg = LossConfig(tau=0.2, lambda_l2=1e-4)
    state = init_embeddings(ds.num_users, ds.num_items, 128, seed,
                            dtype=train_cfg.np_dtype)
    state.L = 3
    if method != "lightgcn":
        graph = build_graph(ds.train, ds.num_users, ds.num_items)
        sim = compute_similarity(graph, 10)
        aug_method = {"sgl": "ED", "scl-nd": "ND", "scl-ed": "ED", "scl-nr": "NR"}[method]
        aug = AugmentationConfig(rho1=0.1, rho2=0.1, rho3=0.1, k_segments=4,
                                 top_n=10, method=aug_method)
        state, _, _ = pretrain(ds, None if method == "sgl" else sim, aug, state, loss_cfg,
                               train_cfg)
    state, _, _ = finetune(ds, state, loss_cfg, train_cfg)
    graph = build_graph(ds.train, ds.num_users, ds.num_items)
    prop = propagate(state, graph)
    report = evaluate(prop.final_user, prop.final_item, ds)
    _run_cache[key] = report
    return report


def test_criterion_4_lightgcn_baseline_reproduction():
    ndcgs = [100.0 * _run_method("lightgcn", s).ndcg_at[10] for s in SEEDS]
    mean = float(np.mean(ndcgs))
    assert abs(mean - PAPER_LIGHTGCN_NDCG10) <= 3.0, \
        f"mean NDCG@10 {mean:.2f} outside {PAPER_LIGHTGCN_NDCG10} +/- 3.0 (seeds: {ndcgs})"


def test_criterion_5_scl_nr_non_degradation(tmp_path):
    base = float(np.mean([100.0 * _run_method("lightgcn", s).ndcg_at[10] for s in SEEDS]))
    nr = float(np.mean([100.0 * _run_method("scl-nr", s).ndcg_at[10] for s in SEEDS]))
    # comparison CSV over all methods regardless of outcome (single seed for
    # the non-gated variants to bound runtime)
    rows = []
    header = None
    for method, seeds in (("lightgcn", SEEDS), ("sgl", SEEDS[:1]), ("scl-nd", SEEDS[:1]),
                          ("scl-ed", SEEDS[:1]), ("scl-nr", SEEDS)):
        report = _run_method(method, seeds[0])
        header = report.csv_header()
        rows.append(report.csv_row(method))
    csv_path = tmp_path / "comparison.csv"
    csv_path.write_text(header + "\n" + "\n".join(rows) + "\n")
    print(csv_path.read_text())
    assert nr >= base, f"SCL-NR mean NDCG@10 {nr:.2f} < LightGCN baseline {base:.2f}"


# --- criterion 6: separation property ---------------------------------------

def _cloned_user_dataset(num_users=40, num_items=60, seed=0):
    """5 clone pairs (users 0..9 pairwise identical rows), the rest random."""
    rng = np.random.default_rng(seed)
    train = set()
    profiles = {}
    for u in range(num_users):
        if u < 10 and u % 2 == 1:
            items = profiles[u - 1]
        else:
            items = tuple(int(x) for x in rng.choice(num_items, size=6, replace=False))
            profiles[u] = items
        for i in items:
            train.add((u, i))
    return dataset_from_pairs(num_users, num_items, train)


def test_criterion_6_clone_separation():
    ds = _cloned_user_dataset()
    graph = build_graph(ds.train, ds.num_users, ds.num_items)
    sim = compute_similarity(graph, 10)
    state = init_embeddings(ds.num_users, ds.num_items, 32, seed=1)
    aug = AugmentationConfig(method="ED", rho2=0.1, top_n=10)
    cfg = TrainConfig(lr=0.01, batch_size=64, pretrain_epochs=100, seed=1,
                      dtype="float64")
    state, _, _ = pretrain(ds, sim, aug, state, LossConfig(tau=0.2), cfg)
    final = propagate(state, graph).final_user
    unit = final / np.linalg.norm(final, axis=1, keepdims=True)
    cos = unit @ unit.T
    clone_pairs = [(2 * t, 2 * t + 1) for t in range(5)]
    clone_set = set(clone_pairs)
    clone_cos = np.mean([cos[a, b] for a, b in clone_pairs])
    non_clone = [cos[a, b] for a in range(ds.num_users) for b in range(a + 1, ds.num_users)
                 if (a, b) not in clone_set]
    for a, b in clone_pairs:
        assert cos[a, b] >= np.mean(non_clone) + 0.1, \
            f"clone pair ({a},{b}) cosine {cos[a, b]:.3f} vs mean {np.mean(non_clone):.3f}"
    assert clone_cos > np.mean(non_clone) + 0.1


# --- criterion 7: determinism ------------------------------------------------

def test_criterion_7_byte_identical_runs(tmp_path):
    from sclrec.cli import main

    rng = np.random.default_rng(7)
    data = tmp_path / "u.data"
    lines = []
    for u in range(1, 21):
        for i in rng.choice(np.arange(1, 31), size=8, replace=False):
            lines.append(f"{u}\t{i}\t{int(rng.integers(1, 6))}\t0\n")
    data.write_text("".join(lines))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"data_path = {data}\nmethod = scl-nr\nd = 16\nlayers = 2\n"
        "pretrain_epochs = 3\nfinetune_epochs = 3\neval_every = 1\n"
        "batch_size = 32\ntop_n = 5\nseed = 9\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("checkpoint.sclckpt", "report.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
