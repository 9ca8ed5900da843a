import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sclrec.augment import AugmentationConfig, compute_similarity
from sclrec.dataset import build_graph
from sclrec.gcn import init_embeddings, init_head
from sclrec.loss import GRAM_PAD, LossConfig, bpr_loss, s_info_nce
from sclrec.train import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, TrainConfig, Workspace,
                          adam_step, bpr_loss_and_grads, contrastive_loss_and_grads, finetune,
                          pretrain)

from conftest import POOLS, blocks_of, dataset_from_pairs, similarity_from_tuples


def toy_dataset(num_users=8, num_items=10, seed=0, with_test=True):
    rng = np.random.default_rng(seed)
    train, test = set(), set()
    for u in range(num_users):
        items = rng.choice(num_items, size=4, replace=False)
        for k, i in enumerate(items):
            (test if with_test and k == 3 else train).add((u, int(i)))
    return dataset_from_pairs(num_users, num_items, train, test)


def small_train_config(**kw):
    defaults = dict(lr=0.01, batch_size=16, pretrain_epochs=5, finetune_epochs=5,
                    seed=0, eval_every=1, patience=100, dtype="float64")
    defaults.update(kw)
    return TrainConfig(**defaults)


def test_adam_zero_gradient():
    p = {"x": np.array([1.0, 2.0])}
    st = AdamState(p)
    adam_step(p, {"x": np.zeros(2)}, st, TrainConfig())
    assert np.array_equal(p["x"], np.array([1.0, 2.0]))
    assert st.step == 1


def test_adam_first_step_hand_formula():
    cfg = TrainConfig(lr=0.01)
    g = np.array([0.3, -1.7])
    p = {"x": np.zeros(2)}
    adam_step(p, {"x": g}, AdamState(p), cfg)
    # with zero moments, m_hat = g and v_hat = g^2 after bias correction
    expected = -cfg.lr * g / (np.abs(g) + ADAM_EPS)
    assert np.allclose(p["x"], expected, rtol=1e-12)


def test_adam_deterministic():
    g = np.array([0.5, 0.1])
    results = []
    for _ in range(2):
        p = {"x": np.array([1.0, -1.0])}
        st = AdamState(p)
        for _ in range(3):
            adam_step(p, {"x": g}, st, TrainConfig(lr=0.05))
        results.append(p["x"].copy())
    assert np.array_equal(results[0], results[1])


def test_adam_nonfinite_gradient():
    p = {"emb": np.zeros(2)}
    with pytest.raises(FloatingPointError, match="emb"):
        adam_step(p, {"emb": np.array([np.nan, 0.0])}, AdamState(p), TrainConfig())


def test_adam_nonfinite_gradient_changes_nothing():
    # the bad gradient is the second parameter's: the first keeps its value and moments too
    p = {"a": np.ones((3, 2)), "b": np.zeros(2)}
    st = AdamState(p)
    adam_step(p, {"a": np.full((3, 2), 0.5), "b": np.ones(2)}, st, TrainConfig())
    before = [p["a"].copy(), p["b"].copy(), st.m["a"].copy(), st.v["a"].copy(), st.m["b"].copy()]
    with pytest.raises(FloatingPointError, match="'b'"):
        adam_step(p, {"a": np.ones((3, 2)), "b": np.array([np.nan, 0.0])}, st, TrainConfig())
    after = [p["a"], p["b"], st.m["a"], st.v["a"], st.m["b"]]
    assert st.step == 1 and all(np.array_equal(x, y) for x, y in zip(after, before))


def adam_reference(params, grads, state, lr, b1=ADAM_BETA1, b2=ADAM_BETA2, eps=ADAM_EPS):
    """adam_step on whole arrays, one operation at a time in its order."""
    state.step += 1
    t = state.step
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= b1
        m += g * (1 - b1)
        v *= b2
        v += g * (1 - b2) * g
        p -= m / (1 - b1 ** t) * lr / (np.sqrt(v / (1 - b2 ** t)) + eps)


def test_adam_step_uses_the_papers_constants_to_the_last_bit():
    # float64 gradients of about 1e-8 put sqrt(v_hat) next to eps, so one ulp on beta1, beta2
    # or eps changes the update's bytes; the reference spells the constants out
    rng = np.random.default_rng(51)
    grads = [{"x": rng.uniform(0.5e-8, 2e-8, 4096) * rng.choice([-1.0, 1.0], 4096)}
             for _ in range(3)]
    got = {"x": rng.normal(0, 0.1, 4096)}
    want = {"x": got["x"].copy()}
    state, ref = AdamState(got), AdamState(want)
    for g in grads:
        adam_step(got, g, state, TrainConfig(lr=0.01))
        adam_reference(want, g, ref, 0.01, b1=0.9, b2=0.999, eps=1e-8)
    assert got["x"].tobytes() == want["x"].tobytes()


@st.composite
def adam_problem(draw):
    """0-d, 1-D and 2-D parameters (some with fewer rows than blocks) and three gradients."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shapes = draw(st.lists(st.sampled_from([(), (0,), (1,), (2,), (7,), (3, 2), (9, 4)]),
                           min_size=1, max_size=4))
    floats = st.floats(-10, 10, width=32)
    params = {f"p{i}": draw(hnp.arrays(dtype, s, elements=floats)) for i, s in enumerate(shapes)}
    grads = [{k: draw(hnp.arrays(dtype, v.shape, elements=floats)) for k, v in params.items()}
             for _ in range(3)]
    return params, grads


@settings(derandomize=True, max_examples=150, deadline=None)
@given(adam_problem())
def test_adam_step_row_blocks_are_bit_identical_to_whole_arrays(problem):
    params, grads = problem
    want = {k: v.copy() for k, v in params.items()}
    ref = AdamState(want)
    for g in grads:
        adam_reference(want, g, ref, 0.01)
    for n in POOLS:
        got = {k: v.copy() for k, v in params.items()}
        state = AdamState(got)
        with blocks_of(n):
            for g in grads:
                adam_step(got, g, state, TrainConfig(lr=0.01))
        assert state.step == 3
        for k in params:
            for x, y in ((got[k], want[k]), (state.m[k], ref.m[k]), (state.v[k], ref.v[k])):
                assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def test_a_bpr_step_and_its_adam_step_allocate_less_than_one_embedding_matrix():
    # after the first batch every n x d and 3nb x d array of a step is the workspace's;
    # without it a step and its Adam step allocate about 7.4 n x d arrays
    rng = np.random.default_rng(13)
    nu, ni, d, nb = 300, 400, 64, 128
    adj = build_graph(np.sort(rng.choice(nu * ni, 6000, replace=False)), nu, ni).norm_adj
    e0 = rng.normal(0, 0.1, size=(nu + ni, d))
    params = {"emb": e0}
    work = Workspace(nu + ni, d, 4, e0.dtype, nb=nb)
    adam = AdamState(params, {"emb": tuple(work.slots[-2:])})

    def step():
        bu, (bi, bj) = rng.integers(0, nu, nb), nu + rng.integers(0, ni, (2, nb))
        _, grad = bpr_loss_and_grads(e0, adj, 3, bu, bi, bj, 0.01, work)
        adam_step(params, {"emb": grad}, adam, TrainConfig())

    step()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < e0.nbytes


@pytest.mark.parametrize("supervised", [True, False], ids=["scl", "sgl"])
def test_a_contrastive_step_and_its_adam_step_allocate_less_than_the_gram_buffer(supervised):
    # after the first batch the padded 2b x (2b + GRAM_PAD) Gram (2 MB here), the propagations'
    # n x d arrays and Adam's are the workspace's; without it every step allocates them
    rng = np.random.default_rng(17)
    nu, ni, d, b = 300, 400, 8, 250
    graph = build_graph(np.sort(rng.choice(nu * ni, 6000, replace=False)), nu, ni)
    pair = compute_similarity(graph, 5).users.pair_matrix() if supervised else None
    e0 = rng.normal(0, 0.1, size=(nu + ni, d))
    head = init_head(d, d, d, seed=2)
    head.b1[:] = 1.0  # every hidden unit live, so no row projects to zero
    params = {"emb": e0, "w1": head.w1, "b1": head.b1, "w2": head.w2, "b2": head.b2}
    work = Workspace(nu + ni, d, 6, e0.dtype, b=b)
    adam = AdamState(params, {"emb": tuple(work.slots[-2:])})

    def step():
        nodes = rng.permutation(nu)[:b]
        loss, grad, head_grads = contrastive_loss_and_grads(
            e0, graph.norm_adj, graph.norm_adj, 3, head, nodes, (0, nu), pair, 0.2, work)
        assert loss is not None
        adam_step(params, {"emb": grad, **head_grads}, adam, TrainConfig())

    step()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < 2 * b * (2 * b + GRAM_PAD) * e0.itemsize


def test_neither_stages_adam_holds_an_embedding_sized_buffer_of_its_own(monkeypatch):
    # each stage allocates one workspace; emb's two Adam work buffers are its slots, apart
    # from each other and from the gradient that the Adam step reads
    import sclrec.train as train

    works, stages = [], []

    class RecordingWorkspace(Workspace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            works.append(self)

    def checked_adam_step(params, grads, state, config):
        buffers = state.buffers["emb"]
        assert works and all(np.shares_memory(x, works[-1].buf) for x in buffers)
        assert not any(np.shares_memory(x, y) for x, y in
                       [buffers, *((x, grads["emb"]) for x in buffers)])
        stages.append(len(works))
        adam_step(params, grads, state, config)

    monkeypatch.setattr(train, "Workspace", RecordingWorkspace)
    monkeypatch.setattr(train, "adam_step", checked_adam_step)
    ds = toy_dataset(num_users=150, num_items=140, seed=22, with_test=False)
    sim = compute_similarity(build_graph(ds.train, ds.num_users, ds.num_items), 5)
    cfg = small_train_config(pretrain_epochs=1, finetune_epochs=1, batch_size=96)
    state = init_embeddings(ds.num_users, ds.num_items, 16, seed=3, dtype=cfg.np_dtype)
    state, _, _ = pretrain(ds, sim, AugmentationConfig(method="NR"), state, LossConfig(), cfg,
                           log_fn=lambda line: None)
    finetune(ds, state, LossConfig(), cfg, log_fn=lambda line: None)
    assert len(works) == 2 and set(stages) == {1, 2}


def test_finetune_allocates_for_the_pairs_there_are_not_the_nominal_batch():
    # a batch of 10**6 triples at d = 4 would hold two 3 x 10**6 x 4 float64 arrays (192 MB)
    ds = toy_dataset(seed=5)
    state = init_embeddings(ds.num_users, ds.num_items, 4, seed=1)
    cfg = small_train_config(finetune_epochs=1, batch_size=10**6)
    tracemalloc.start()
    try:
        finetune(ds, state, LossConfig(), cfg, log_fn=lambda line: None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_finetune_is_bit_identical_at_1_to_4_blocks(dtype):
    # without test pairs the returned state is the last epoch's e0
    ds = toy_dataset(num_users=40, num_items=30, seed=21, with_test=False)
    state = init_embeddings(ds.num_users, ds.num_items, 6, seed=2)
    cfg = small_train_config(finetune_epochs=2, batch_size=16, dtype=dtype)
    finals = set()
    for n in POOLS:
        with blocks_of(n):
            out, _, _ = finetune(ds, state, LossConfig(), cfg, log_fn=lambda line: None)
        assert out.user_emb.dtype == np.dtype(dtype)
        finals.add(out.stacked().tobytes())
    assert len(finals) == 1


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_scl_nr_pretrain_is_bit_identical_at_1_and_3_blocks(dtype):
    # 150 users and 140 items: similarity chunks of 64 rows, contrastive batches of 192 rows
    # (a 128-row chunk and a partial one, three symmetrisation pairs) and one-sided layers all split;
    # at d = 16 no projected row is zero, so every batch runs
    ds = toy_dataset(num_users=150, num_items=140, seed=22, with_test=False)
    graph = build_graph(ds.train, ds.num_users, ds.num_items)
    cfg = small_train_config(pretrain_epochs=2, batch_size=96, dtype=dtype)
    runs = set()
    for n in (1, 3):
        lines = []
        with blocks_of(n):
            sim = compute_similarity(graph, 5)
            state = init_embeddings(ds.num_users, ds.num_items, 16, seed=3, dtype=cfg.np_dtype)
            out, head, _ = pretrain(ds, sim, AugmentationConfig(method="NR"), state,
                                    LossConfig(), cfg, log_fn=lines.append)
        assert len(lines) == 2 and not any("skipped" in line for line in lines)
        runs.add((out.stacked().tobytes(), *(getattr(head, k).tobytes()
                                              for k in ("w1", "b1", "w2", "b2"))))
    assert len(runs) == 1


@pytest.mark.parametrize("field", ["pretrain_epochs", "finetune_epochs"])
def test_train_config_rejects_negative_epochs(field):
    with pytest.raises(ValueError, match=r"^epoch counts must be >= 0$"):
        TrainConfig(**{field: -1})


def test_pretrain_zero_epochs_untouched():
    ds = toy_dataset()
    graph = build_graph(ds.train, ds.num_users, ds.num_items)
    sim = compute_similarity(graph, 3)
    state = init_embeddings(ds.num_users, ds.num_items, 8, seed=1)
    before = state.stacked().copy()
    out, head, curve = pretrain(ds, sim, AugmentationConfig(method="ED"),
                                state, LossConfig(), small_train_config(pretrain_epochs=0))
    assert np.array_equal(out.stacked(), before)
    assert curve == []


def test_pretrain_loss_decreases():
    ds = toy_dataset(num_users=10, num_items=10, seed=3)
    graph = build_graph(ds.train, ds.num_users, ds.num_items)
    sim = compute_similarity(graph, 3)
    state = init_embeddings(ds.num_users, ds.num_items, 8, seed=1)
    _, _, curve = pretrain(ds, sim, AugmentationConfig(method="ED", rho2=0.1),
                           state, LossConfig(tau=0.2),
                           small_train_config(pretrain_epochs=50))
    assert curve[-1] < curve[0]


def test_pretrain_deterministic():
    ds = toy_dataset(seed=4)
    graph = build_graph(ds.train, ds.num_users, ds.num_items)
    sim = compute_similarity(graph, 3)
    outs = []
    for _ in range(2):
        state = init_embeddings(ds.num_users, ds.num_items, 6, seed=7)
        out, head, curve = pretrain(ds, sim, AugmentationConfig(method="NR"),
                                    state, LossConfig(),
                                    small_train_config(pretrain_epochs=4))
        outs.append((out.stacked(), head.w1.copy(), tuple(curve)))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert np.array_equal(outs[0][1], outs[1][1])
    assert outs[0][2] == outs[1][2]


def test_pretrain_infonce_objective_runs():
    ds = toy_dataset(seed=5)
    state = init_embeddings(ds.num_users, ds.num_items, 6, seed=1)
    _, _, curve = pretrain(ds, None, AugmentationConfig(method="ED"), state,
                           LossConfig(), small_train_config(pretrain_epochs=3))
    assert len(curve) == 3 and all(np.isfinite(curve))


def test_pretrain_end_to_end_gradient_check():
    # finite differences through views + propagation + head + s-infonce
    ds = toy_dataset(num_users=10, num_items=8, seed=6, with_test=False)
    graph = build_graph(ds.train, ds.num_users, ds.num_items)
    sim = compute_similarity(graph, 1)
    rng = np.random.default_rng(0)
    from sclrec.augment import edge_drop
    adj1 = edge_drop(graph, 0.2, rng).graph.norm_adj
    adj2 = edge_drop(graph, 0.2, rng).graph.norm_adj
    e0 = rng.normal(0, 0.1, size=(graph.num_nodes, 5))
    head = init_head(5, 5, 5, seed=2)
    pair = sim.users.pair_matrix()
    nodes = np.arange(ds.num_users)
    side = (0, ds.num_users)
    loss, grad_e0, _ = contrastive_loss_and_grads(e0, adj1, adj2, 2, head, nodes, side,
                                                  pair, tau=0.5)
    assert loss is not None
    rng2 = np.random.default_rng(1)
    eps = 1e-5
    for _ in range(20):
        r = int(rng2.integers(graph.num_nodes))
        c = int(rng2.integers(5))
        ep, em = e0.copy(), e0.copy()
        ep[r, c] += eps
        em[r, c] -= eps
        lp = contrastive_loss_and_grads(ep, adj1, adj2, 2, head, nodes, side, pair, tau=0.5)[0]
        lm = contrastive_loss_and_grads(em, adj1, adj2, 2, head, nodes, side, pair, tau=0.5)[0]
        num = (lp - lm) / (2 * eps)
        assert num == pytest.approx(grad_e0[r, c], rel=1e-3, abs=1e-8)


def test_contrast_batch_masks_match_per_pair_oracle(monkeypatch):
    # row 2s + a is view a of nodes[s]; rows of distinct views are positives
    # exactly when pair_mat pairs their nodes
    import sclrec.train as train

    ds = toy_dataset(num_users=8, num_items=10, seed=15, with_test=False)
    graph = build_graph(ds.train, ds.num_users, ds.num_items)
    neighbors = [((5, 0.9),), (), ((6, 0.5),), ((7, 0.4), (0, 0.3)), (), (), (), ()]
    pair = similarity_from_tuples(neighbors).users.pair_matrix()
    nodes = np.array([5, 1, 7, 3, 0, 2])
    seen = []
    monkeypatch.setattr(train, "s_info_nce",
                        lambda batch, *a, **kw: seen.append(batch) or s_info_nce(batch, *a, **kw))
    e0 = np.random.default_rng(3).normal(0, 0.1, size=(graph.num_nodes, 4))
    head = init_head(4, 4, 4, seed=1)
    head.b1[:] = 1.0  # every hidden unit live, so no row projects to zero
    loss, _, _ = contrastive_loss_and_grads(e0, graph.norm_adj, graph.norm_adj, 2, head,
                                            nodes, (0, ds.num_users), pair, tau=0.5)
    assert loss is not None and len(seen) == 1
    n = 2 * len(nodes)
    pos = np.zeros((n, n), dtype=bool)
    for r in range(n):
        for c in range(n):
            pos[r, c] = r != c and pair[nodes[r // 2], nodes[c // 2]]
    assert pos.any() and not pos.all(axis=1).any()
    assert np.array_equal(seen[0].positive_mask.toarray(), pos)


def test_bpr_end_to_end_gradient_check():
    # finite differences of full-graph propagation + inner product + BPR,
    # written out independently, against the gradient bpr_loss_and_grads returns
    from sclrec.gcn import layer_mean

    rng = np.random.default_rng(2)
    nu, ni, d, L = 6, 7, 4, 3
    edges = [(u, i) for u in range(nu) for i in range(ni) if rng.random() < 0.4]
    adj = build_graph(edges, nu, ni).norm_adj
    e0 = rng.normal(0, 0.1, size=(nu + ni, d))
    bu = np.array([0, 1, 2])
    bi = np.array([nu + 1, nu + 2, nu + 0])
    bj = np.array([nu + 3, nu + 4, nu + 5])
    lam = 0.01

    def loss_of(e):
        final = layer_mean(e, adj, L)
        yp = np.einsum("td,td->t", final[bu], final[bi])
        yn = np.einsum("td,td->t", final[bu], final[bj])
        sq = float((e[bu] ** 2).sum() + (e[bi] ** 2).sum() + (e[bj] ** 2).sum())
        return bpr_loss(yp, yn, sq, lam)[0] / len(bu)

    work = Workspace(*e0.shape, 4, e0.dtype, nb=len(bu))
    loss, grad = bpr_loss_and_grads(e0, adj, L, bu, bi, bj, lam, work)
    assert loss == pytest.approx(loss_of(e0), rel=1e-12)
    eps = 1e-6
    for r in range(nu + ni):
        for c in range(d):
            ep, em = e0.copy(), e0.copy()
            ep[r, c] += eps
            em[r, c] -= eps
            num = (loss_of(ep) - loss_of(em)) / (2 * eps)
            assert num == pytest.approx(grad[r, c], rel=1e-5, abs=1e-10)


def test_bpr_loss_and_grads_finite_differences():
    # users 0 and 2 repeat, positive item 1 repeats, item 2 is a positive in
    # one triple and a negative in two others
    rng = np.random.default_rng(5)
    nu, ni, d, L = 4, 6, 3, 2
    edges = [(u, i) for u in range(nu) for i in range(ni) if rng.random() < 0.5]
    adj = build_graph(edges, nu, ni).norm_adj
    e0 = rng.normal(0, 0.3, size=(nu + ni, d))
    bu = np.array([0, 0, 1, 2, 0, 2])
    bi = nu + np.array([1, 1, 2, 3, 4, 1])
    bj = nu + np.array([2, 5, 0, 2, 5, 3])
    lam = 0.05

    def bpr(e):  # each call its own workspace: a shared one would write over `grad`
        return bpr_loss_and_grads(e, adj, L, bu, bi, bj, lam,
                                  Workspace(*e.shape, 4, e.dtype, nb=len(bu)))

    loss, grad = bpr(e0)
    dense = adj.toarray()
    final = sum(np.linalg.matrix_power(dense, k) for k in range(L + 1)) @ e0 / (L + 1)
    margin = (final[bu] * (final[bi] - final[bj])).sum(axis=1)
    sq = (e0[bu] ** 2).sum() + (e0[bi] ** 2).sum() + (e0[bj] ** 2).sum()
    assert loss == pytest.approx((np.log1p(np.exp(-margin)).sum() + lam * sq) / len(bu),
                                 rel=1e-12)
    eps = 1e-6
    for r in range(nu + ni):
        for c in range(d):
            ep, em = e0.copy(), e0.copy()
            ep[r, c] += eps
            em[r, c] -= eps
            num = (bpr(ep)[0] - bpr(em)[0]) / (2 * eps)
            assert num == pytest.approx(grad[r, c], rel=1e-5, abs=1e-10)


def reference_finetune(dataset, state, lambda_l2, cfg):
    """Fine-tuning as first written, for a dataset without test pairs: per-user
    item sets, six np.add.at scatters per batch, Adam with temporaries."""
    nu, ni = dataset.num_users, dataset.num_items
    dtype = cfg.np_dtype
    adj = build_graph(dataset.train, nu, ni).norm_adj.astype(dtype)
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 202]))
    e0 = state.stacked().astype(dtype)
    m, v = np.zeros_like(e0), np.zeros_like(e0)
    train_sets = [set() for _ in range(nu)]
    for u, i in dataset.train:
        train_sets[u].add(i)
    pairs = [(u, i) for u, i in sorted(dataset.train) if len(train_sets[u]) < ni]
    users = np.array([u for u, _ in pairs], dtype=np.int64)
    items = np.array([i for _, i in pairs], dtype=np.int64)

    def propagate_raw(x):
        acc, e = x.copy(), x
        for _ in range(state.L):
            e = adj @ e
            acc += e
        return acc / (state.L + 1)

    def rejected(ts, neg):
        return np.array([t for t in ts if neg[t] in train_sets[users[t]]], dtype=np.int64)

    step = 0
    for _ in range(cfg.finetune_epochs):
        neg = rng.integers(0, ni, size=len(users))
        idx = rejected(range(len(users)), neg)
        while idx.size:
            neg[idx] = rng.integers(0, ni, size=idx.size)
            idx = rejected(idx, neg)
        order = rng.permutation(len(users))
        for start in range(0, len(users), cfg.batch_size):
            sel = order[start:start + cfg.batch_size]
            bu, bi, bj = users[sel], items[sel] + nu, neg[sel] + nu
            final = propagate_raw(e0)
            fu, fi, fj = final[bu], final[bi], final[bj]
            eu, ei, ej = e0[bu], e0[bi], e0[bj]
            sq = float((eu * eu).sum() + (ei * ei).sum() + (ej * ej).sum())
            _, g_pos, g_neg = bpr_loss(np.einsum("td,td->t", fu, fi),
                                       np.einsum("td,td->t", fu, fj), sq, lambda_l2)
            nb = len(sel)
            g_pos = (g_pos / nb).astype(dtype)
            g_neg = (g_neg / nb).astype(dtype)
            grad_final = np.zeros_like(e0)
            np.add.at(grad_final, bu, g_pos[:, None] * fi + g_neg[:, None] * fj)
            np.add.at(grad_final, bi, g_pos[:, None] * fu)
            np.add.at(grad_final, bj, g_neg[:, None] * fu)
            g = propagate_raw(grad_final)
            reg = 2.0 * lambda_l2 / nb
            np.add.at(g, bu, reg * eu)
            np.add.at(g, bi, reg * ei)
            np.add.at(g, bj, reg * ej)
            step += 1
            b1, b2 = ADAM_BETA1, ADAM_BETA2
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            m_hat = m / (1 - b1 ** step)
            v_hat = v / (1 - b2 ** step)
            e0 -= cfg.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return e0


def test_finetune_bit_identical_to_reference():
    # user 0 holds every item; small batches repeat users and items within a batch
    rng = np.random.default_rng(21)
    nu, ni = 9, 11
    train = {(0, i) for i in range(ni)}
    for u in range(1, nu):
        train |= {(u, int(i)) for i in rng.choice(ni, size=int(rng.integers(2, 8)),
                                                   replace=False)}
    ds = dataset_from_pairs(nu, ni, train)
    cfg = small_train_config(finetune_epochs=2, batch_size=7, lr=0.05, dtype="float32")
    state = init_embeddings(nu, ni, 6, seed=4, dtype=np.float32)
    out, report, _ = finetune(ds, state, LossConfig(lambda_l2=0.01), cfg)
    assert report is None  # no test interactions to evaluate
    expected = reference_finetune(ds, state, 0.01, cfg)
    assert out.stacked().dtype == np.float32
    assert np.array_equal(out.stacked(), expected)


def test_pretrain_does_not_mutate_inputs():
    ds = toy_dataset(seed=8)
    graph = build_graph(ds.train, ds.num_users, ds.num_items)
    sim = compute_similarity(graph, 3)
    sim_before = (tuple(sim.user_neighbors), tuple(sim.item_neighbors))
    train_before = set(ds.train)
    state = init_embeddings(ds.num_users, ds.num_items, 4, seed=1)
    pretrain(ds, sim, AugmentationConfig(method="NR"), state, LossConfig(),
             small_train_config(pretrain_epochs=2))
    assert set(ds.train) == train_before
    assert (tuple(sim.user_neighbors), tuple(sim.item_neighbors)) == sim_before


def test_finetune_zero_epochs_evaluates_initial():
    ds = toy_dataset(seed=9)
    state = init_embeddings(ds.num_users, ds.num_items, 4, seed=1)
    out, _, history = finetune(ds, state, LossConfig(), small_train_config(finetune_epochs=0))
    assert len(history) == 1
    assert history[0][0] == 0 and history[0][2] is not None
    assert np.allclose(out.stacked(), state.stacked())


def test_finetune_loss_decreases():
    ds = toy_dataset(num_users=5, num_items=5, seed=10)
    state = init_embeddings(ds.num_users, ds.num_items, 8, seed=1)
    _, _, history = finetune(ds, state, LossConfig(lambda_l2=0.0),
                             small_train_config(finetune_epochs=10, lr=0.05))
    losses = [h[1] for h in history if h[1] is not None]
    assert losses[-1] < losses[0]
    assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:])) or losses[-1] < losses[0]


def test_finetune_deterministic():
    ds = toy_dataset(seed=11)
    outs = []
    for _ in range(2):
        state = init_embeddings(ds.num_users, ds.num_items, 4, seed=2)
        out, _, history = finetune(ds, state, LossConfig(), small_train_config(finetune_epochs=3))
        outs.append((out.stacked(), tuple((e, l) for e, l, _ in history)))
    assert np.array_equal(outs[0][0], outs[1][0])
    assert outs[0][1] == outs[1][1]


def test_finetune_user_with_all_items_skipped():
    # user0 interacts with every item: no negative exists, its triples are dropped
    train = {(0, i) for i in range(3)} | {(1, 0)}
    ds = dataset_from_pairs(2, 3, train, test={(1, 1)})
    state = init_embeddings(2, 3, 4, seed=1)
    out, _, history = finetune(ds, state, LossConfig(), small_train_config(finetune_epochs=2))
    assert all(np.isfinite(h[1]) for h in history if h[1] is not None)


def test_finetune_parameters_stay_finite():
    ds = toy_dataset(seed=12)
    state = init_embeddings(ds.num_users, ds.num_items, 6, seed=3)
    out, _, _ = finetune(ds, state, LossConfig(), small_train_config(finetune_epochs=5, lr=0.1))
    assert np.isfinite(out.stacked()).all()


def test_finetune_log_lines(capsys):
    ds = toy_dataset(seed=13)
    state = init_embeddings(ds.num_users, ds.num_items, 4, seed=1)
    lines = []
    finetune(ds, state, LossConfig(), small_train_config(finetune_epochs=2),
             log_fn=lines.append)
    assert any(line.startswith("stage=finetune epoch=1 loss=") for line in lines)
    assert any("ndcg10=" in line for line in lines)


def test_pretrain_log_lines():
    ds = toy_dataset(seed=14)
    graph = build_graph(ds.train, ds.num_users, ds.num_items)
    sim = compute_similarity(graph, 3)
    state = init_embeddings(ds.num_users, ds.num_items, 4, seed=1)
    lines = []
    pretrain(ds, sim, AugmentationConfig(method="ND"), state, LossConfig(),
             small_train_config(pretrain_epochs=2), log_fn=lines.append)
    # at d = 4 every batch has a dead-relu row: each is skipped, so each epoch's loss is nan
    skip = ("epoch {}: degenerate contrastive batch at offset {} (no valid negatives "
            "or zero-norm projection), skipped")
    assert lines == [skip.format(1, 0), skip.format(1, 8), "stage=pretrain epoch=1 loss=nan",
                     skip.format(2, 0), skip.format(2, 8), "stage=pretrain epoch=2 loss=nan"]


def _contrastive_case(seed=16):
    ds = toy_dataset(num_users=9, num_items=12, seed=seed, with_test=False)
    graph = build_graph(ds.train, ds.num_users, ds.num_items)
    sim = compute_similarity(graph, 2)
    rng = np.random.default_rng(seed)
    from sclrec.augment import edge_drop
    adj1 = edge_drop(graph, 0.2, rng).graph.norm_adj
    adj2 = edge_drop(graph, 0.2, rng).graph.norm_adj
    e0 = rng.normal(0, 0.1, size=(graph.num_nodes, 4))
    head = init_head(4, 4, 4, seed=3)
    head.b1[:] = 1.0  # every hidden unit live, so no row projects to zero
    batches = [(np.array([4, 0, 7, 2, 8]), (0, 9), sim.users.pair_matrix()),
               (np.array([11, 3, 5, 0, 6, 9]), (9, 21), sim.items.pair_matrix())]
    return ds, e0, adj1, adj2, head, batches


def test_contrastive_one_sided_backward_matches_full(monkeypatch):
    # the one-sided backward against the full two-sided one, bit for bit, for a
    # user and an item batch, SCL and SGL
    import sclrec.gcn as gcn
    import sclrec.train as train

    ds, e0, adj1, adj2, head, batches = _contrastive_case()
    cases = [(nodes, side, pair_mat)
             for nodes, side, pair in batches for pair_mat in (pair, None)]

    def run(nodes, side, pair_mat):
        return contrastive_loss_and_grads(e0, adj1, adj2, 2, head, nodes, side, pair_mat, 0.5)

    one_sided = [run(*case) for case in cases]
    monkeypatch.setattr(train, "_propagate_raw", lambda e, adj, L, side=None, rows=None, work=None:
                        gcn.layer_mean(e, adj, L, rows=rows, work=work))
    for case, (loss, grad, head_grads) in zip(cases, one_sided):
        ref_loss, ref_grad, ref_head = run(*case)
        assert loss is not None and loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()
        assert all(np.array_equal(head_grads[name], ref_head[name]) for name in ref_head)
    assert len(cases) == 4


def test_finetune_stops_patience_epochs_after_first_best():
    ds = toy_dataset(seed=1)
    state = init_embeddings(ds.num_users, ds.num_items, 4, seed=1)
    cfg = small_train_config(finetune_epochs=20, patience=2, lr=0.05)
    out, _, history = finetune(ds, state, LossConfig(), cfg)
    ndcgs = [ndcg for _, _, ndcg in history]
    best = ndcgs.index(max(ndcgs))
    assert best + 2 < cfg.finetune_epochs
    assert [epoch for epoch, _, _ in history] == list(range(best + 3))
    # the returned state is the one evaluated at `best`, not the last one
    at_best, _, _ = finetune(ds, state, LossConfig(),
                          small_train_config(finetune_epochs=best, lr=0.05))
    assert np.array_equal(out.stacked(), at_best.stacked())


def test_finetune_evaluates_after_the_last_epoch():
    # 5 epochs at eval_every = 2: epochs 0, 2 and 4 on schedule, and 5, the last
    ds = toy_dataset(seed=1)
    state = init_embeddings(ds.num_users, ds.num_items, 4, seed=1)
    lines = []
    _, _, history = finetune(ds, state, LossConfig(),
                             small_train_config(finetune_epochs=5, eval_every=2, lr=0.05),
                             log_fn=lines.append)
    assert [epoch for epoch, _, ndcg in history if ndcg is not None] == [0, 2, 4, 5]
    assert " ndcg10=" in lines[-1]
    # evaluation draws nothing from the rng: epoch 5 scores as in an every-epoch run
    _, _, every = finetune(ds, state, LossConfig(),
                           small_train_config(finetune_epochs=5, eval_every=1, lr=0.05))
    assert history[-1] == every[-1]


def test_finetune_returns_the_report_of_the_best_state():
    # eval_every = 2, stopped at epoch 20 after its best at epoch 16: the report
    # is the best state's evaluation, not the initial or the last one
    from sclrec.gcn import layer_mean
    from sclrec.metrics import evaluate

    ds = toy_dataset(seed=1)
    state = init_embeddings(ds.num_users, ds.num_items, 4, seed=1)
    cfg = small_train_config(finetune_epochs=30, patience=4, eval_every=2, lr=0.05)
    out, report, history = finetune(ds, state, LossConfig(), cfg)
    ndcgs = [ndcg for _, _, ndcg in history if ndcg is not None]
    assert len(history) - 1 < cfg.finetune_epochs
    assert report.ndcg_at[10] == max(ndcgs) and max(ndcgs) not in (ndcgs[0], ndcgs[-1])
    final = layer_mean(out.stacked(), ds.train_graph.norm_adj, state.L)
    assert report == evaluate(final[:ds.num_users], final[ds.num_users:], ds)


def test_finetune_stops_early_only_on_an_evaluated_epoch():
    # patience 5 with evaluations every 10 epochs: a stop at epoch 5 would return the
    # untrained state that the evaluation before the first epoch chose
    ds = toy_dataset(seed=1)
    state = init_embeddings(ds.num_users, ds.num_items, 4, seed=1)
    cfg = small_train_config(finetune_epochs=20, patience=5, eval_every=10, lr=0.05)
    _, report, history = finetune(ds, state, LossConfig(), cfg, log_fn=lambda line: None)
    last_epoch, _, last_ndcg = history[-1]
    assert last_epoch >= 10 and last_ndcg is not None
    assert report.ndcg_at[10] == max(ndcg for _, _, ndcg in history if ndcg is not None)


def test_contrastive_batch_pairing_every_node_is_skipped(monkeypatch):
    import sclrec.train as train

    ds, e0, adj1, adj2, head, batches = _contrastive_case()
    nodes, side, _pair = batches[0]
    everyone = np.ones((ds.num_users, ds.num_users), dtype=bool)
    assert contrastive_loss_and_grads(e0, adj1, adj2, 2, head, nodes, side, everyone,
                                      0.5) == (None, None, None)
    # one node pairing with every other is enough; one pair fewer and the batch runs
    one = np.eye(ds.num_users, dtype=bool)
    one[nodes[0], nodes] = one[nodes, nodes[0]] = True
    assert contrastive_loss_and_grads(e0, adj1, adj2, 2, head, nodes, side, one,
                                      0.5) == (None, None, None)
    one[nodes[0], nodes[-1]] = one[nodes[-1], nodes[0]] = False
    assert contrastive_loss_and_grads(e0, adj1, adj2, 2, head, nodes, side, one,
                                      0.5)[0] is not None
    # pretrain: the one user batch (every user lists every other) is skipped,
    # so only the item batch of each epoch takes an Adam step
    ds = toy_dataset(seed=2, with_test=False)
    sim = compute_similarity(build_graph(ds.train, ds.num_users, ds.num_items), 1)
    users = tuple(tuple((b, 1.0) for b in range(ds.num_users) if b != a)
                  for a in range(ds.num_users))
    steps = []  # counted, not taken
    monkeypatch.setattr(train, "adam_step", lambda *args: steps.append(args))
    state = init_embeddings(ds.num_users, ds.num_items, 16, seed=1)  # wide: no dead-relu row
    lines = []
    pretrain(ds, similarity_from_tuples(users, sim.item_neighbors), AugmentationConfig(method="ED"),
             state, LossConfig(), small_train_config(pretrain_epochs=3), log_fn=lines.append)
    assert len(steps) == 3
    assert lines[0::2] == [
        f"epoch {epoch}: degenerate contrastive batch at offset 0 (no valid negatives "
        "or zero-norm projection), skipped" for epoch in (1, 2, 3)]
    assert [line.split(" loss=")[0] for line in lines[1::2]] == [
        f"stage=pretrain epoch={epoch}" for epoch in (1, 2, 3)]


def test_pretrain_rejects_one_node_batches():
    ds = toy_dataset(seed=3, with_test=False)
    state = init_embeddings(ds.num_users, ds.num_items, 4, seed=1)
    with pytest.raises(ValueError, match="batch_size must be >= 2 to pretrain, got 1"):
        pretrain(ds, None, AugmentationConfig(method="ED"), state, LossConfig(),
                 small_train_config(batch_size=1))


def test_pretrain_skips_a_trailing_one_node_batch(monkeypatch):
    import sclrec.train as train

    sizes = []

    def record(e0, adj1, adj2, L, head, nodes, side, *args):
        sizes.append((side, len(nodes)))
        return contrastive_loss_and_grads(e0, adj1, adj2, L, head, nodes, side, *args)

    monkeypatch.setattr(train, "contrastive_loss_and_grads", record)
    ds = toy_dataset(num_users=5, num_items=8, seed=3, with_test=False)
    sim = compute_similarity(build_graph(ds.train, ds.num_users, ds.num_items), 1)
    state = init_embeddings(ds.num_users, ds.num_items, 4, seed=1)
    pretrain(ds, sim, AugmentationConfig(method="ED"), state, LossConfig(),
             small_train_config(pretrain_epochs=1, batch_size=2))
    assert sizes == [((0, 5), 2)] * 2 + [((5, 13), 2)] * 4


def similar_pairs_matrix_loop(neighbors, n):
    """`Neighbors.pair_matrix` as a dense per-node loop over the tuple view; oracle."""
    mat = np.eye(n, dtype=bool)
    for a, neigh in enumerate(neighbors):
        mat[a, [b for b, _score in neigh]] = True
    return mat | mat.T


def test_similar_pairs_matrix_matches_per_node_loop():
    rng = np.random.default_rng(21)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        neighbors = tuple(
            () if rng.random() < 0.3 else
            tuple((int(b), float(rng.random()))
                  for b in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            for _ in range(n))
        got = similarity_from_tuples(neighbors).users.pair_matrix()
        assert got.dtype == bool and np.array_equal(got.toarray(),
                                                    similar_pairs_matrix_loop(neighbors, n))
    # the index of a real graph, with degree-0 users (empty neighbour lists)
    ds = dataset_from_pairs(6, 5, {(0, 0), (0, 1), (1, 1), (2, 1), (2, 4), (3, 4)})
    sim = compute_similarity(ds.train_graph, 2)
    assert sim.user_neighbors[4] == () and sim.user_neighbors[5] == ()
    for side, neighbors, n in ((sim.users, sim.user_neighbors, 6),
                               (sim.items, sim.item_neighbors, 5)):
        assert np.array_equal(side.pair_matrix().toarray(), similar_pairs_matrix_loop(neighbors, n))
