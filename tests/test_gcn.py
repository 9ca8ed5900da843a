import numpy as np
import pytest

from sclrec.dataset import build_graph
from sclrec.gcn import (EmbeddingState, ProjectionHead, init_embeddings, init_head,
                        load_checkpoint, predict, project, project_backward,
                        project_forward, propagate, propagate_backward,
                        save_checkpoint)

from conftest import random_bipartite


def dense_propagate(e0, adj_dense, L):
    """Dense matmul reference for the layer-mean propagation."""
    e = e0.copy()
    acc = e0.copy()
    for _ in range(L):
        e = adj_dense @ e
        acc += e
    return acc / (L + 1)


def test_init_deterministic():
    a = init_embeddings(5, 7, 8, seed=3)
    b = init_embeddings(5, 7, 8, seed=3)
    assert np.array_equal(a.user_emb, b.user_emb)
    assert np.array_equal(a.item_emb, b.item_emb)


def test_init_scale():
    st = init_embeddings(2000, 2000, 128, seed=0)
    assert st.user_emb.std() == pytest.approx(0.1, rel=0.05)
    assert abs(st.user_emb.mean()) < 0.01


def test_init_degenerate():
    st = init_embeddings(0, 3, 4, seed=0)
    assert st.user_emb.shape == (0, 4)
    with pytest.raises(ValueError):
        init_embeddings(1, 1, 0, seed=0)


def test_propagate_L0_identity():
    g = build_graph([(0, 0)], 1, 1)
    st = init_embeddings(1, 1, 4, seed=0)
    st.L = 0
    out = propagate(st, g)
    assert np.allclose(out.final_user, st.user_emb)
    assert np.allclose(out.final_item, st.item_emb)


def test_propagate_single_pair():
    # deg-1 pair, L=1: final_user = (u0 + v0) / 2
    g = build_graph([(0, 0)], 1, 1)
    st = init_embeddings(1, 1, 4, seed=1)
    st.L = 1
    out = propagate(st, g)
    assert np.allclose(out.final_user, (st.user_emb + st.item_emb) / 2)


def test_propagate_matches_dense(rng):
    for _ in range(20):
        g = random_bipartite(rng, max_users=15, max_items=15)
        st = init_embeddings(g.num_users, g.num_items, 6, seed=int(rng.integers(1000)))
        st.L = int(rng.integers(0, 4))
        out = propagate(st, g)
        ref = dense_propagate(st.stacked(), g.norm_adj.toarray(), st.L)
        assert np.allclose(out.final, ref, rtol=1e-10, atol=1e-14)


def test_propagate_linear_in_e0(rng):
    g = random_bipartite(rng)
    st = init_embeddings(g.num_users, g.num_items, 5, seed=2)
    out1 = propagate(st, g).final
    st2 = EmbeddingState(3.5 * st.user_emb, 3.5 * st.item_emb, st.d, st.L)
    out2 = propagate(st2, g).final
    assert np.allclose(out2, 3.5 * out1, rtol=1e-10)


def test_propagate_isolated_node():
    # item1 isolated: its layer-l output is zero for l >= 1, final = e0 / (L+1)
    g = build_graph([(0, 0)], 1, 2)
    st = init_embeddings(1, 2, 4, seed=5)
    out = propagate(st, g)
    assert np.array_equal(out.final_item[1], st.item_emb[1] / (st.L + 1))


def test_propagate_dimension_mismatch():
    g = build_graph([(0, 0)], 1, 1)
    st = init_embeddings(2, 2, 4, seed=0)
    with pytest.raises(ValueError):
        propagate(st, g)


def test_propagate_backward_is_adjoint(rng):
    # <propagate(e0), g> == <e0, propagate_backward(g)> since A_hat is symmetric
    g = random_bipartite(rng)
    n, d = g.num_nodes, 4
    e0 = rng.normal(size=(n, d))
    grad = rng.normal(size=(n, d))
    st = EmbeddingState(e0[:g.num_users], e0[g.num_users:], d, 3)
    fwd = propagate(st, g).final
    bwd = propagate_backward(grad, g, 3)
    assert np.sum(fwd * grad) == pytest.approx(np.sum(e0 * bwd), rel=1e-10)


def test_project_zero_head():
    head = ProjectionHead(np.zeros((3, 3)), np.zeros(3), np.zeros((3, 3)), np.zeros(3))
    assert np.array_equal(project(np.ones(3), head), np.zeros(3))


def test_project_identity_passthrough():
    head = ProjectionHead(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
    h = np.array([0.5, 2.0, 0.0])
    assert np.allclose(project(h, head), h)


def test_project_matches_handrolled(rng):
    d, dh, dp = 5, 7, 4
    head = init_head(d, dh, dp, seed=8)
    h = rng.normal(size=d)
    ref = head.w2.T @ np.maximum(head.w1.T @ h + head.b1, 0.0) + head.b2
    assert np.allclose(project(h, head), ref, rtol=1e-12)


def test_project_backward_finite_differences(rng):
    d, dh, dp = 4, 6, 3
    head = init_head(d, dh, dp, seed=9)
    h = rng.normal(size=(3, d))
    z, cache = project_forward(h, head)
    gz = rng.normal(size=z.shape)
    grad_h, grads = project_backward(cache, head, gz)
    eps = 1e-6
    for idx in np.ndindex(h.shape):
        hp, hm = h.copy(), h.copy()
        hp[idx] += eps
        hm[idx] -= eps
        num = ((project_forward(hp, head)[0] * gz).sum()
               - (project_forward(hm, head)[0] * gz).sum()) / (2 * eps)
        assert num == pytest.approx(grad_h[idx], rel=1e-4, abs=1e-8)
    for name in ("w1", "b1", "w2", "b2"):
        arr = getattr(head, name)
        for idx in list(np.ndindex(arr.shape))[:6]:
            orig = arr[idx]
            arr[idx] = orig + eps
            up = (project_forward(h, head)[0] * gz).sum()
            arr[idx] = orig - eps
            dn = (project_forward(h, head)[0] * gz).sum()
            arr[idx] = orig
            assert (up - dn) / (2 * eps) == pytest.approx(grads[name][idx], rel=1e-4, abs=1e-8)


def test_predict():
    e = np.zeros(4)
    e[2] = 1.0
    assert predict(e, e) == 1.0
    assert predict(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert predict(np.array([1.0, 2.0]), np.array([3.0, -1.0])) == 1.0
    with pytest.raises(ValueError):
        predict(np.zeros(2), np.zeros(3))


def test_checkpoint_round_trip(tmp_path):
    st = init_embeddings(4, 6, 5, seed=11, dtype=np.float32)
    head = init_head(5, 5, 5, seed=12, dtype=np.float32)
    path = tmp_path / "model.sclckpt"
    save_checkpoint(path, st, head)
    assert path.read_bytes()[:8] == b"SCLCKPT1"
    st2, head2 = load_checkpoint(path)
    assert np.array_equal(st.user_emb, st2.user_emb)
    assert np.array_equal(st.item_emb, st2.item_emb)
    assert (st2.d, st2.L) == (5, 3)
    assert np.array_equal(head.w1, head2.w1) and np.array_equal(head.b2, head2.b2)


def test_checkpoint_without_head(tmp_path):
    st = init_embeddings(2, 2, 3, seed=0, dtype=np.float32)
    path = tmp_path / "bare.sclckpt"
    save_checkpoint(path, st)
    st2, head2 = load_checkpoint(path)
    assert head2 is None
    assert np.array_equal(st.user_emb, st2.user_emb)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.sclckpt"
    path.write_bytes(b"WRONGMAG" + b"\0" * 16)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_size_mismatch_names_sizes(tmp_path):
    st = init_embeddings(3, 4, 5, seed=0, dtype=np.float32)
    head = init_head(5, 6, 2, seed=1, dtype=np.float32)
    path = tmp_path / "model.sclckpt"
    save_checkpoint(path, st, head)
    full = path.read_bytes()
    body = 24 + 4 * (3 + 4) * 5
    sections = [8, 16, 4 * 3 * 5, 4 * 4 * 5, 12, 4 * 5 * 6, 4 * 6, 4 * 6 * 2, 4 * 2]
    boundaries = np.cumsum(sections)
    assert boundaries[3] == body and boundaries[-1] == len(full)
    cuts = sorted({int(b) + delta for b in boundaries for delta in (-1, 0, 1)}
                  - {body, len(full), len(full) + 1})
    for n in cuts + [None]:
        data = full[:n] if n is not None else full + b"\0"
        path.write_bytes(data)
        with pytest.raises(ValueError) as err:
            load_checkpoint(path)
        message = str(err.value)
        assert str(path) in message and f"{len(data)} bytes" in message and "expected" in message
    path.write_bytes(full[:body])
    st2, head2 = load_checkpoint(path)
    assert head2 is None and np.array_equal(st2.item_emb, st.item_emb)


def test_init_layers():
    assert init_embeddings(2, 3, 4, seed=0).L == 3
    assert init_embeddings(2, 3, 4, seed=0, L=1).L == 1
