"""The in-place contrastive kernels against the out-of-place algebra they
replaced, kept here as oracles with their operations unchanged but for the Gram
and the gradient's product, which take gcn.matmul's fixed 128-row chunks: the
same loss and the same gradient, bit for bit, at sizes on and off the 128-row
blocks."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sclrec.train as train
from sclrec.augment import edge_drop
from sclrec.dataset import build_graph
from sclrec.gcn import init_head
from sclrec.loss import ContrastBatch, _normalize_rows, info_nce, s_info_nce
from sclrec.train import contrastive_loss_and_grads

from conftest import POOLS, blocks_of, similarity_from_tuples
from oracles import layer_mean_reference


def chunked_matmul(a, b):
    """a @ b as one product per fixed 128-row chunk of a, the rule gcn.matmul keeps."""
    return np.concatenate([a[c:c + 128] @ b for c in range(0, len(a), 128)])


def cosine_backward_reference(grad_s, z_hat, norms):
    grad_hat = chunked_matmul(grad_s + grad_s.T, z_hat)
    radial = (grad_hat * z_hat).sum(axis=1, keepdims=True)
    return (grad_hat - radial * z_hat) / norms[:, None]


def s_info_nce_reference(batch, tau, denominator="negatives", buf=None):  # buf: s_info_nce's, unused
    if sp.issparse(batch.positive_mask):
        batch = ContrastBatch(z=batch.z, positive_mask=batch.positive_mask.toarray())
    if denominator not in ("negatives", "all"):
        raise ValueError(f"unknown denominator mode {denominator!r}")
    z = np.asarray(batch.z, dtype=np.result_type(batch.z, np.float32))  # as s_info_nce's
    n = z.shape[0]
    if not batch.positive_mask.any(axis=1).all():
        raise ValueError("every anchor needs at least one positive")
    neg = ~(batch.positive_mask | np.eye(n, dtype=bool))  # k != i and not pos[i, k]
    if denominator == "negatives" and not neg.any(axis=1).all():
        raise ValueError("anchor with empty denominator")
    z_hat, norms = _normalize_rows(z)
    s = chunked_matmul(z_hat, np.ascontiguousarray(z_hat.T)) / tau
    rows, cols = np.nonzero(batch.positive_mask)
    starts = np.searchsorted(rows, np.arange(n))
    s_pos = s[rows, cols]
    m_pos = np.maximum.reduceat(s_pos, starts)
    ex_pos = np.exp(s_pos - m_pos[rows])
    total_pos = np.add.reduceat(ex_pos, starts)
    if denominator == "negatives":
        s[rows, cols] = -np.inf
    np.fill_diagonal(s, -np.inf)
    m = s.max(axis=1, keepdims=True)
    s -= m
    np.exp(s, out=s)
    total = s.sum(axis=1, keepdims=True)
    s /= total
    lse_pos = m_pos + np.log(total_pos)
    lse_neg = (m + np.log(total)).ravel()
    loss = float((lse_neg - lse_pos).mean())
    s[rows, cols] -= ex_pos / total_pos[rows]
    s /= n * tau
    return loss, cosine_backward_reference(s, z_hat, norms)


def info_nce_reference(z, tau, buf=None):
    z = np.asarray(z, dtype=np.float64)
    n = z.shape[0]
    if n < 2 or n % 2 != 0:
        raise ValueError("need an even number >= 2 of rows")
    pos = np.zeros((n, n), dtype=bool)
    pos[np.arange(n), np.arange(n) ^ 1] = True
    return s_info_nce_reference(ContrastBatch(z=z, positive_mask=pos), tau, "all")


def coview_batch(n, seed):
    """n rows (n / 2 anchors, two views each, interleaved) with about ten
    similar anchors each, so every row keeps a negative once n > 2."""
    rng = np.random.default_rng(seed)
    anchors = n // 2
    pair = rng.random((anchors, anchors)) < min(0.3, 10 / anchors)
    pair |= pair.T
    np.fill_diagonal(pair, True)
    pos = np.kron(pair, np.ones((2, 2), dtype=bool))
    np.fill_diagonal(pos, False)
    z = rng.normal(size=(n, 24))
    return ContrastBatch(z=z, positive_mask=pos)


def assert_same(got, want):
    loss, grad = got
    ref_loss, ref_grad = want
    assert loss == ref_loss
    assert grad.dtype == ref_grad.dtype and np.array_equal(grad, ref_grad)


SIZES = [2, 6, 130, 258, 1316, 2048]


# two rows are one anchor, whose only other row is its positive: no negatives
@pytest.mark.parametrize("n, denominator", [(n, mode) for n in SIZES
                                            for mode in ("negatives", "all")
                                            if (n, mode) != (2, "negatives")])
def test_s_info_nce_matches_out_of_place_algebra(n, denominator):
    batch = coview_batch(n, seed=n)
    assert_same(s_info_nce(batch, 0.2, denominator), s_info_nce_reference(batch, 0.2, denominator))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from([2, 6, 130, 258, 1316]), st.sampled_from([np.float32, np.float64]),
       st.sampled_from(["negatives", "all"]), st.integers(0, 2**16), st.sampled_from([1.0, 0.2, 0.03]))
def test_s_info_nce_row_chunks_are_bit_identical_at_1_to_4_blocks(n, dtype, denominator, seed, tau):
    # fewer rows than a chunk, a partial last chunk, chunks cut by the blocks: each row's passes
    # and each symmetrised block pair give the whole-array algebra's bytes, in z's dtype
    batch = coview_batch(n, seed)
    assume(denominator == "all" or batch.positive_mask.sum(axis=1).max() < n - 1)
    batch = ContrastBatch(z=batch.z.astype(dtype), positive_mask=sp.csr_matrix(batch.positive_mask))
    want = s_info_nce_reference(batch, tau, denominator)
    assert want[1].dtype == dtype
    for blocks in POOLS:
        with blocks_of(blocks):
            assert_same(s_info_nce(batch, tau, denominator), want)


@pytest.mark.parametrize("n", SIZES)
def test_info_nce_matches_out_of_place_algebra(n):
    z = np.random.default_rng(n + 1).normal(size=(n, 24))
    assert_same(info_nce(z, 0.5), info_nce_reference(z, 0.5))


@pytest.mark.parametrize("n", SIZES)
def test_s_info_nce_csr_mask_matches_dense_twin(n):
    # CSC lists its entries column-major; the batch puts them in row-major order
    batch = coview_batch(n, seed=n + 2)
    for form in (sp.csr_matrix, sp.csc_matrix):
        twin = ContrastBatch(z=batch.z, positive_mask=form(batch.positive_mask))
        assert np.array_equal(twin.rows, batch.rows) and np.array_equal(twin.cols, batch.cols)
        for denominator in ("negatives", "all"):
            if (n, denominator) != (2, "negatives"):
                assert_same(s_info_nce(twin, 0.2, denominator), s_info_nce(batch, 0.2, denominator))


@pytest.mark.parametrize("n", SIZES)
def test_float32_kernels_stay_float32_near_float64(n):
    # the products run in float32; the float64 run of the same rows is the yardstick
    batch = coview_batch(n, seed=n + 3)
    batch32 = ContrastBatch(z=batch.z.astype(np.float32), positive_mask=batch.positive_mask)
    for tau in (0.2, 0.01):
        pairs = [(info_nce(batch32.z, tau), info_nce(batch32.z.astype(np.float64), tau))]
        if n > 2:
            pairs.append((s_info_nce(batch32, tau), s_info_nce(
                ContrastBatch(batch32.z.astype(np.float64), batch.positive_mask), tau)))
        for (loss, grad), (ref_loss, ref_grad) in pairs:
            assert grad.dtype == np.float32 and np.isfinite(grad).all()
            assert loss == pytest.approx(ref_loss, rel=1e-4)
            assert np.allclose(grad, ref_grad, rtol=1e-4, atol=1e-5 * np.abs(ref_grad).max())


def test_anti_aligned_small_tau_matches_out_of_place_algebra():
    v = np.array([0.6, -0.8, 0.0])
    z = np.stack([v, 2.0 * v, -v, -0.5 * v])
    pos = np.kron(np.eye(2, dtype=bool), ~np.eye(2, dtype=bool))
    batch = ContrastBatch(z=z, positive_mask=pos)
    for denominator in ("negatives", "all"):
        assert_same(s_info_nce(batch, 0.01, denominator),
                    s_info_nce_reference(batch, 0.01, denominator))
    assert_same(info_nce(z, 0.01), info_nce_reference(z, 0.01))


def test_contrastive_loss_and_grads_matches_out_of_place_algebra(monkeypatch):
    # a user and an item batch of 130 rows each (65 nodes), SCL and SGL, through
    # the one-sided backward, against the copying losses and half-block slices
    rng = np.random.default_rng(4)
    nu, ni, d = 90, 110, 8
    edges = [(u, i) for u in range(nu) for i in rng.choice(ni, 6, replace=False)]
    graph = build_graph(edges, nu, ni)
    adj1 = edge_drop(graph, 0.2, rng).graph.norm_adj
    adj2 = edge_drop(graph, 0.2, rng).graph.norm_adj

    def neighbors(count):
        return [tuple((int(b), 0.5) for b in rng.choice(count, 3, replace=False) if b != a)
                for a in range(count)]

    sim = similarity_from_tuples(neighbors(nu), neighbors(ni))
    e0 = rng.normal(0, 0.1, size=(nu + ni, d))
    head = init_head(d, d, d, seed=2)
    head.b1[:] = 1.0  # every hidden unit live, so no row projects to zero
    batches = [(rng.permutation(nu)[:65], (0, nu), sim.users),
               (rng.permutation(ni)[:65], (nu, nu + ni), sim.items)]
    cases = [(nodes, side, sim_side) for nodes, side, index in batches for sim_side in (index, None)]

    def run(nodes, side, sim_side):
        return contrastive_loss_and_grads(e0, adj1, adj2, 3, head, nodes, side, sim_side, 0.3)

    got = [run(*case) for case in cases]
    monkeypatch.setattr(train, "s_info_nce", s_info_nce_reference)
    monkeypatch.setattr(train, "info_nce", info_nce_reference)
    monkeypatch.setattr(train, "_propagate_raw", layer_mean_reference)
    for case, (loss, grad, head_grads) in zip(cases, got):
        ref_loss, ref_grad, ref_head = run(*case)
        assert loss is not None and loss == ref_loss
        assert grad.tobytes() == ref_grad.tobytes()
        assert all(np.array_equal(head_grads[k], ref_head[k]) for k in ref_head)
