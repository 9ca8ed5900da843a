import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sclrec import gcn
from sclrec.dataset import build_graph
from sclrec.gcn import (EmbeddingState, ProjectionHead, init_embeddings, init_head,
                        layer_mean, load_checkpoint, project_backward, project_forward,
                        propagate, propagate_backward, save_checkpoint, spmm)

from conftest import POOLS, blocks_of, random_bipartite
from oracles import layer_mean_reference


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
    assert np.array_equal(project_forward(np.ones(3), head)[0], np.zeros(3))


def test_project_identity_passthrough():
    head = ProjectionHead(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3))
    h = np.array([0.5, 2.0, 0.0])
    assert np.allclose(project_forward(h, head)[0], h)


def test_project_matches_handrolled(rng):
    d, dh, dp = 5, 7, 4
    head = init_head(d, dh, dp, seed=8)
    h = rng.normal(size=d)
    ref = head.w2.T @ np.maximum(head.w1.T @ h + head.b1, 0.0) + head.b2
    assert np.allclose(project_forward(h, head)[0], ref, rtol=1e-12)


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


@pytest.mark.parametrize("L", [0, 1, 2, 3, 4])
def test_layer_mean_one_side_is_bit_identical_to_full(L):
    # e0 supported on one side: multiplying only the other side's rows per layer
    # gives the full call's bytes, zeros' signs included, on either side
    rng = np.random.default_rng(L)
    for _ in range(12):
        g = random_bipartite(rng)
        nu, n = g.num_users, g.num_nodes
        for side in ((0, nu), (nu, n)):
            for dtype in (np.float32, np.float64):
                e0 = np.zeros((n, 5), dtype=dtype)
                rows = np.arange(*side)
                rows = rows[rng.random(len(rows)) < 0.7]
                e0[rows] = rng.normal(size=(len(rows), 5))
                if len(rows):
                    e0[rows[0], 0] = -0.0
                before = e0.copy()
                adj = g.norm_adj.astype(dtype)
                full = layer_mean(e0, adj, L)
                one = layer_mean(e0, adj, L, side=side)
                assert one.dtype == full.dtype and one.tobytes() == full.tobytes()
                assert np.array_equal(e0, before)


@pytest.mark.parametrize("L", [0, 1, 2, 3])
def test_layer_mean_rows_is_bit_identical_to_full(L):
    # only the last layer is restricted to the asked rows; CSR rows sum
    # independently, so the rows keep the full call's bytes in the asked order
    rng = np.random.default_rng(10 + L)
    for _ in range(12):
        g = random_bipartite(rng)
        nu, n = g.num_users, g.num_nodes
        for dtype in (np.float32, np.float64):
            e0 = rng.normal(size=(n, 5)).astype(dtype)
            before = e0.copy()
            adj = g.norm_adj.astype(dtype)
            full = layer_mean(e0, adj, L)
            for pool in (np.arange(nu), np.arange(nu, n), np.arange(n)):
                rows = rng.permutation(pool)[:max(1, len(pool) // 2)]
                got = layer_mean(e0, adj, L, rows=rows)
                assert got.dtype == dtype and got.tobytes() == full[rows].tobytes()
            assert np.array_equal(e0, before)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@st.composite
def csr_and_dense(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    m, n, k = draw(st.integers(0, 12)), draw(st.integers(1, 12)), draw(st.integers(1, 6))
    values = draw(hnp.arrays(dtype, (m, n), elements=st.floats(-2, 2, width=32)))
    mask = draw(hnp.arrays(np.bool_, (m, n)))
    layout = draw(st.sampled_from(["any", "one row", "no entries"]))
    if layout == "one row" and m:
        mask[:] = False  # every entry in one row, so some blocks are empty
        mask[draw(st.integers(0, m - 1))] = True
    elif layout == "no entries":
        mask[:] = False
    adj = sp.csr_matrix(np.where(mask, values, 0).astype(dtype))
    base = draw(hnp.arrays(dtype, (n + 3, 2 * k), elements=st.floats(-2, 2, width=32)))
    shape = draw(st.sampled_from(["contiguous", "columns ::2", "rows", "fortran"]))
    if shape == "contiguous":
        e = np.ascontiguousarray(base[:n, :k])
    elif shape == "columns ::2":
        e = base[:n, ::2]
    elif shape == "rows":
        e = base[draw(st.permutations(range(n + 3)))[:n]][:, :k]
    else:
        e = np.asfortranarray(base[:n, :k])
    return adj, e


@st.composite
def one_hot_and_out(draw):
    """S[rows[k], k] = 1 with rows repeating, terms to scatter, and a nonzero out."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    m, k = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    rows = np.array(draw(st.lists(st.integers(0, m - 1), max_size=30)), dtype=np.int64)
    scatter = sp.csr_matrix((np.ones(len(rows), dtype), (rows, np.arange(len(rows)))),
                            shape=(m, len(rows)))
    floats = st.floats(-1e3, 1e3, width=32)
    return scatter, rows, draw(hnp.arrays(dtype, (len(rows), k), elements=floats)), \
        draw(hnp.arrays(dtype, (m, k), elements=floats.filter(bool)))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(csr_and_dense(), one_hot_and_out())
def test_spmm_is_bit_identical_to_scipy_at_1_to_4_blocks(case, scatter_case):
    # each block sums its rows in adj @ e's order: no row is dropped, repeated or reordered;
    # into a given out it adds entry by entry in CSR order, which for a one-hot adj is np.add.at's
    adj, e = case
    want = adj @ e
    scatter, rows, terms, base = scatter_case
    scattered = base.copy()
    np.add.at(scattered, rows, terms)
    for n in POOLS:
        with blocks_of(n):
            assert_same_bytes(spmm(adj, e), want)
            out = base.copy()
            assert spmm(scatter, terms, out=out) is out
            assert_same_bytes(out, scattered)


@st.composite
def square_csr_and_e0(draw):
    """A square CSR with empty rows, from 0 rows (fewer than the blocks) up, and its layer-0 e0."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    m, k = draw(st.integers(0, 12)), draw(st.integers(1, 5))
    values = draw(hnp.arrays(dtype, (m, m), elements=st.floats(-1, 1, width=32)))
    mask = draw(hnp.arrays(np.bool_, (m, m)))
    mask[draw(hnp.arrays(np.bool_, m))] = False
    adj = sp.csr_matrix(np.where(mask, values, 0).astype(dtype))
    e0 = draw(hnp.arrays(dtype, (m, k), elements=st.floats(-2, 2, width=32)))
    return adj, np.asfortranarray(e0) if draw(st.booleans()) else e0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(square_csr_and_e0())
def test_layer_mean_row_blocks_are_bit_identical_to_scipy_layer_by_layer(case):
    # each block zeroes, fills, adds and scales its own rows: the bytes of adj @ e per layer,
    # summed and divided on whole arrays
    adj, e0 = case
    before = e0.copy()
    for L in (0, 1, 3):
        want, e = e0.copy(), e0
        for _ in range(L):
            e = adj @ e
            want += e
        want /= L + 1
        for n in POOLS:
            with blocks_of(n):
                assert_same_bytes(layer_mean(e0, adj, L), want)
    assert_same_bytes(e0, before)


@st.composite
def bipartite_and_e0(draw):
    """A bipartite norm_adj, a side, an e0 zero (some -0.0) off that side, a full e0 and rows."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    nu, ni, k = draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(st.integers(1, 4))
    mask = draw(hnp.arrays(np.bool_, (nu, ni)))
    adj = build_graph(np.argwhere(mask), nu, ni).norm_adj.astype(dtype)
    floats = st.floats(-2, 2, width=32)
    full = draw(hnp.arrays(dtype, (nu + ni, k), elements=floats))
    side = draw(st.sampled_from([(0, nu), (nu, nu + ni)]))
    one = np.zeros_like(full)
    one[slice(*side)] = full[slice(*side)]
    one[draw(hnp.arrays(np.bool_, nu + ni))] *= -0.0  # signed zeros, on and off the side
    rows = draw(st.permutations(range(nu + ni)))[:draw(st.integers(1, nu + ni))]
    return adj, side, one, full, np.array(rows)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(bipartite_and_e0())
def test_layer_mean_side_and_rows_blocks_match_the_reference(case):
    # the one-sided and last-layer-rows paths, fused into blocks cut by a half's nnz or by rows,
    # give whole-array scipy layers' bytes, zeros' signs included
    adj, side, one, full, rows = case
    before = one.copy(), full.copy()
    for L in (0, 1, 2, 3):
        want_side = layer_mean_reference(one, adj, L, side=side)
        want_rows = layer_mean_reference(full, adj, L, rows=rows)
        for n in POOLS:
            with blocks_of(n):
                assert_same_bytes(layer_mean(one, adj, L, side=side), want_side)
                assert_same_bytes(layer_mean(full, adj, L, rows=rows), want_rows)
    assert_same_bytes(one, before[0])
    assert_same_bytes(full, before[1])


@pytest.mark.parametrize("n", list(POOLS))
def test_spmm_writes_a_half_block_in_place_as_layer_mean_builds_it(n):
    rng = np.random.default_rng(40 + n)
    for _ in range(12):
        g = random_bipartite(rng)
        nu, total = g.num_users, g.num_nodes
        for dtype in (np.float32, np.float64):
            adj = g.norm_adj.astype(dtype)
            p = adj.indptr
            e = rng.normal(size=(total, 7)).astype(dtype)
            for a, b in ((0, nu), (nu, total)):
                block = sp.csr_matrix((adj.data[p[a]:p[b]], adj.indices[p[a]:p[b]],
                                       p[a:b + 1] - p[a]), shape=(b - a, total), copy=False)
                e_next = np.zeros_like(e)
                with blocks_of(n):
                    assert spmm(block, e, out=e_next[a:b]).base is e_next
                assert_same_bytes(e_next[a:b], block @ e)
                assert not e_next[:a].any() and not e_next[b:].any()


def test_row_blocks_run_under_the_callers_numpy_error_state():
    # numpy keeps one error state per thread; the block on the pool's worker takes the caller's
    adj = sp.csr_matrix(np.diag([1.0, -1.0]))  # one entry per row: row 1 is the second block
    e0 = np.array([[1.0], [np.inf]])  # layer 1 adds -inf to row 1's inf
    with blocks_of(2):
        with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
            layer_mean(e0, adj, 1)
        with np.errstate(invalid="ignore"):  # no RuntimeWarning, which pytest makes an error
            assert np.isnan(layer_mean(e0, adj, 1)[1, 0])


def test_spmm_rejects_what_the_kernel_cannot_take_before_it_runs(monkeypatch):
    class NoKernel:
        def csr_matvecs(self, *args):
            raise AssertionError("the kernel ran")

    monkeypatch.setattr(gcn, "_sparsetools", NoKernel())
    adj = sp.random(6, 4, density=0.5, format="csr", dtype=np.float32, random_state=0)
    e = np.ones((4, 3), np.float32)
    with pytest.raises(ValueError) as scipy_error:
        adj @ np.ones((5, 3), np.float32)
    for n in POOLS:
        with blocks_of(n):
            # adj.shape[1] != e.shape[0]: the kernel would read past e
            with pytest.raises(ValueError) as err:
                spmm(adj, np.ones((5, 3), np.float32))
            assert str(err.value) == str(scipy_error.value)
            with pytest.raises(ValueError, match="dimension mismatch"):
                spmm(adj, np.ones(4, np.float32))
            bad = [
                (adj.astype(np.int64), e.astype(np.int64), None),  # an integer product
                (adj, e.astype(np.complex64), None),
                (adj, e, np.zeros((6, 3), np.float64)),  # float32 operands, float64 out
                (adj.astype(np.float64), e, np.zeros((6, 3), np.float32)),
                (adj, e, np.zeros((5, 3), np.float32)),  # the kernel would write past out
                (adj, e, np.zeros((6, 6), np.float32)[:, ::2]),  # ravel would copy out
                (adj.tocsc(), e, None),  # indptr over columns
            ]
            for a, x, out in bad:
                with pytest.raises(ValueError, match="spmm needs"):
                    spmm(a, x, out=out)


def test_spmm_from_more_callers_than_cores_shares_the_pool():
    # every caller hands its blocks to the same workers; each out is written only by its own
    rng = np.random.default_rng(5)
    adj = sp.random(400, 300, density=0.05, format="csr", dtype=np.float32, random_state=rng)
    es = [rng.normal(size=(300, 6)).astype(np.float32) for _ in range(8)]
    wants = [adj @ e for e in es]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blocks_of(3), ThreadPoolExecutor(6) as callers:
            jobs = [callers.submit(spmm, adj, es[i % 8]) for i in range(64)]
            for i, job in enumerate(jobs):
                assert_same_bytes(job.result(timeout=60), wants[i % 8])
    finally:
        sys.setswitchinterval(interval)


def test_layer_mean_from_more_callers_than_cores_shares_the_pool():
    # each call's blocks write only its own layers and sum; a block that ran on another
    # call's buffers, or a layer that started before the last one ended, would change bytes
    rng = np.random.default_rng(6)
    adj = sp.random(300, 300, density=0.05, format="csr", dtype=np.float32, random_state=rng)
    es = [rng.normal(size=(300, 6)).astype(np.float32) for _ in range(8)]
    with blocks_of(1):
        wants = [layer_mean(e, adj, 3) for e in es]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with blocks_of(3), ThreadPoolExecutor(6) as callers:
            jobs = [callers.submit(layer_mean, es[i % 8], adj, 3) for i in range(64)]
            for i, job in enumerate(jobs):
                assert_same_bytes(job.result(timeout=60), wants[i % 8])
    finally:
        sys.setswitchinterval(interval)


FORK_PROBE = """
import os, signal, warnings
import numpy as np, scipy.sparse as sp
from sclrec.gcn import spmm
warnings.simplefilter("ignore", DeprecationWarning)  # forking a process that has threads
adj = sp.random(300, 300, density=0.1, format="csr", random_state=0)
e = np.ones((300, 4))
want = spmm(adj, e)  # starts the pool's threads, which a forked child does not inherit
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    os._exit(0 if np.array_equal(spmm(adj, e), want) else 1)
print(os.waitpid(pid, 0)[1])
"""


def test_spmm_in_a_forked_child_gets_a_new_pool():
    env = {**os.environ, "SCL_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(p for p in (str(Path(gcn.__file__).parents[1]),
                                                     os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", FORK_PROBE], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"
