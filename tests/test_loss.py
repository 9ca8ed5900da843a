import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sclrec.loss import (ContrastBatch, LossConfig, bpr_loss, info_nce,
                         info_nce_reference, s_info_nce, s_info_nce_reference)


def random_contrast_batch(rng, n_anchors, d):
    """Random rows plus random symmetric masks satisfying the invariants."""
    n = 2 * n_anchors
    z = rng.normal(size=(n, d))
    pair = rng.random((n_anchors, n_anchors)) < 0.4
    pair = pair | pair.T
    np.fill_diagonal(pair, True)  # co-views are mutual positives
    pos = np.kron(pair, np.ones((2, 2), dtype=bool))
    np.fill_diagonal(pos, False)
    neg = ~(pos | np.eye(n, dtype=bool))
    if not neg.any(axis=1).all():
        pair[0, :] = pair[:, 0] = False
        pair[0, 0] = True
        pos = np.kron(pair, np.ones((2, 2), dtype=bool))
        np.fill_diagonal(pos, False)
    return ContrastBatch(z=z, positive_mask=pos)


def fd_grad(f, z, eps=1e-6):
    g = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        zp, zm = z.copy(), z.copy()
        zp[idx] += eps
        zm[idx] -= eps
        g[idx] = (f(zp) - f(zm)) / (2 * eps)
    return g


def test_loss_config_validation():
    LossConfig()
    with pytest.raises(ValueError):
        LossConfig(tau=0.0)
    with pytest.raises(ValueError):
        LossConfig(lambda_l2=-1.0)


def test_bpr_zero_margin():
    loss, _, _ = bpr_loss(np.array([1.0]), np.array([1.0]), 0.0, 0.0)
    assert loss == pytest.approx(np.log(2), abs=1e-12)


def test_bpr_large_margin():
    loss, _, _ = bpr_loss(np.array([100.0]), np.array([0.0]), 0.0, 0.0)
    assert loss == pytest.approx(0.0, abs=1e-12)
    # and stays finite deep into saturation
    loss, gp, gn = bpr_loss(np.array([1e4]), np.array([-1e4]), 0.0, 0.0)
    assert np.isfinite(loss) and np.isfinite(gp).all() and np.isfinite(gn).all()


def test_bpr_hand_value():
    loss, _, _ = bpr_loss(np.array([1.0]), np.array([0.0]), 0.0, 0.0)
    assert loss == pytest.approx(np.log(1 + np.exp(-1)), abs=1e-12)  # softplus(-1)


def test_bpr_regularizer_term():
    loss0, _, _ = bpr_loss(np.array([1.0]), np.array([0.0]), 7.0, 0.0)
    loss1, _, _ = bpr_loss(np.array([1.0]), np.array([0.0]), 7.0, 0.5)
    assert loss1 - loss0 == pytest.approx(3.5)


def test_bpr_shape_mismatch():
    with pytest.raises(ValueError):
        bpr_loss(np.array([1.0, 2.0]), np.array([1.0]), 0.0, 0.0)


def test_bpr_gradient_finite_differences():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = int(rng.integers(1, 8))
        yp = rng.normal(size=t)
        yn = rng.normal(size=t)
        _, gp, gn = bpr_loss(yp, yn, 0.0, 0.0)
        num_p = fd_grad(lambda y: bpr_loss(y, yn, 0.0, 0.0)[0], yp, eps=1e-4)
        num_n = fd_grad(lambda y: bpr_loss(yp, y, 0.0, 0.0)[0], yn, eps=1e-4)
        assert np.allclose(gp, num_p, rtol=1e-4, atol=1e-8)
        assert np.allclose(gn, num_n, rtol=1e-4, atol=1e-8)


def test_info_nce_all_equal_rows():
    z = np.tile(np.array([1.0, 2.0, 0.5]), (4, 1))
    loss, _ = info_nce(z, tau=1.0)
    assert loss == pytest.approx(np.log(3), abs=1e-9)  # uniform over 2N-1 = 3


def test_info_nce_single_pair():
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, _ = info_nce(z, tau=0.7)
    assert loss == pytest.approx(0.0, abs=1e-12)  # denominator is the co-view alone


def test_info_nce_matches_reference():
    rng = np.random.default_rng(1)
    for _ in range(20):
        z = rng.normal(size=(8, 8))
        tau = float(rng.uniform(0.1, 2.0))
        loss, _ = info_nce(z, tau)
        assert loss == pytest.approx(info_nce_reference(z, tau), rel=1e-10)


def test_info_nce_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(30):
        z = rng.normal(size=(2 * int(rng.integers(1, 6)), 5))
        loss, _ = info_nce(z, 0.3)
        assert loss >= -1e-12


def test_info_nce_zero_norm_row():
    z = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="zero-norm"):
        info_nce(z, 1.0)


def test_info_nce_gradient_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = 2 * int(rng.integers(2, 5))
        z = rng.normal(size=(n, 4))
        tau = float(rng.uniform(0.2, 1.5))
        _, grad = info_nce(z, tau)
        num = fd_grad(lambda zz: info_nce(zz, tau)[0], z, eps=1e-4)
        assert np.allclose(grad, num, rtol=1e-4, atol=1e-7)


def test_s_info_nce_equal_sims_count_ratio():
    # 2 anchors, all rows identical, 1 positive + 2 negatives per anchor:
    # loss = -log(e / 2e) = log 2
    z = np.tile(np.array([0.3, -0.7, 1.1]), (4, 1))
    pair = np.eye(2, dtype=bool)
    pos = np.kron(pair, np.ones((2, 2), dtype=bool))
    np.fill_diagonal(pos, False)
    batch = ContrastBatch(z=z, positive_mask=pos)
    loss, _ = s_info_nce(batch, tau=1.0)
    assert loss == pytest.approx(np.log(2), abs=1e-9)


def test_s_info_nce_coview_all_denominator_reduces_to_info_nce():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(8, 5))
    pair = np.eye(4, dtype=bool)
    pos = np.kron(pair, np.ones((2, 2), dtype=bool))
    np.fill_diagonal(pos, False)
    batch = ContrastBatch(z=z, positive_mask=pos)
    loss_s, grad_s = s_info_nce(batch, tau=0.5, denominator="all")
    loss_i, grad_i = info_nce(z, tau=0.5)
    assert loss_s == pytest.approx(loss_i, rel=1e-12)
    assert np.allclose(grad_s, grad_i, rtol=1e-10)


def test_s_info_nce_matches_reference():
    rng = np.random.default_rng(5)
    for _ in range(20):
        batch = random_contrast_batch(rng, n_anchors=3, d=6)
        tau = float(rng.uniform(0.2, 1.5))
        for mode in ("negatives", "all"):
            loss, _ = s_info_nce(batch, tau, denominator=mode)
            assert loss == pytest.approx(
                s_info_nce_reference(batch, tau, denominator=mode), rel=1e-10)


def test_s_info_nce_gradient_finite_differences():
    rng = np.random.default_rng(6)
    for _ in range(50):
        batch = random_contrast_batch(rng, n_anchors=int(rng.integers(2, 5)), d=4)
        tau = float(rng.uniform(0.2, 1.5))
        _, grad = s_info_nce(batch, tau)

        def f(zz, b=batch, t=tau):
            return s_info_nce(ContrastBatch(zz, b.positive_mask), t)[0]

        num = fd_grad(f, batch.z, eps=1e-4)
        assert np.allclose(grad, num, rtol=1e-4, atol=1e-7)


def test_s_info_nce_can_be_negative():
    # positives far more similar than negatives: numerator > denominator
    rng = np.random.default_rng(7)
    base = rng.normal(size=3)
    z = np.stack([base, base * 2.0, -base, -base * 0.5])
    pair = np.eye(2, dtype=bool)
    pos = np.kron(pair, np.ones((2, 2), dtype=bool))
    np.fill_diagonal(pos, False)
    loss, _ = s_info_nce(ContrastBatch(z, pos), tau=0.1)
    assert loss < 0.0


def test_s_info_nce_monotone_in_similarity():
    # raising a positive's cosine to its anchor lowers the loss; a negative's raises it
    rng = np.random.default_rng(8)
    anchor = np.array([1.0, 0.0, 0.0])
    pos_dir = np.array([0.6, 0.8, 0.0])
    neg_dir = np.array([-0.3, 0.2, 0.9])

    def make(pos_mix, neg_mix):
        zp = pos_mix * anchor + (1 - pos_mix) * pos_dir
        zn = neg_mix * anchor + (1 - neg_mix) * neg_dir
        z = np.stack([anchor, zp, neg_dir, zn])
        pair = np.eye(2, dtype=bool)
        pos = np.kron(pair, np.ones((2, 2), dtype=bool))
        np.fill_diagonal(pos, False)
        return s_info_nce(ContrastBatch(z, pos), tau=0.5)[0]

    assert make(0.9, 0.2) < make(0.1, 0.2)   # positive closer -> loss down
    assert make(0.5, 0.9) > make(0.5, 0.1)   # negative closer -> loss up


def test_cosine_scale_invariance():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(8, 5))
    scales = rng.uniform(0.1, 10.0, size=8)
    zs = z * scales[:, None]
    li, _ = info_nce(z, 0.4)
    li2, _ = info_nce(zs, 0.4)
    assert li2 == pytest.approx(li, rel=1e-10)
    batch = random_contrast_batch(rng, 4, 5)
    ls, _ = s_info_nce(batch, 0.4)
    ls2, _ = s_info_nce(ContrastBatch(batch.z * scales[:, None], batch.positive_mask), 0.4)
    assert ls2 == pytest.approx(ls, rel=1e-10)


def test_contrast_batch_invariants_enforced():
    z = np.zeros((4, 2)) + 1.0
    eye = np.eye(4, dtype=bool)
    pos = np.zeros((4, 4), dtype=bool)
    pos[0, 1] = pos[1, 0] = pos[2, 3] = pos[3, 2] = True
    ContrastBatch(z, pos)  # valid
    with pytest.raises(ValueError, match="diagonal"):
        ContrastBatch(z, pos | eye)
    with pytest.raises(ValueError, match="symmetric"):
        asym = pos.copy()
        asym[0, 2] = True  # one-directional positive
        ContrastBatch(z, asym)


def test_s_info_nce_error_cases():
    z = np.ones((4, 2))
    eye = np.eye(4, dtype=bool)
    pos = ~eye  # everything positive -> no negatives anywhere
    batch = ContrastBatch(z, pos)
    with pytest.raises(ValueError, match="denominator"):
        s_info_nce(batch, 1.0)
    # row 0 pairs with every other row, and only row 0 lacks a negative
    pos = np.zeros((4, 4), dtype=bool)
    pos[0, 1:] = pos[1:, 0] = pos[2, 3] = pos[3, 2] = True
    batch = ContrastBatch(np.random.default_rng(12).normal(size=(4, 3)), pos)
    with pytest.raises(ValueError, match=r"^anchor with empty denominator$"):
        s_info_nce(batch, 0.5)
    assert s_info_nce(batch, 0.5, denominator="all")[0] == pytest.approx(
        s_info_nce_reference(batch, 0.5, denominator="all"), rel=1e-12)


def test_contrast_batch_rejects_odd_rows_and_misshaped_masks():
    pos = np.zeros((4, 4), dtype=bool)
    pos[0, 1] = pos[1, 0] = pos[2, 3] = pos[3, 2] = True
    with pytest.raises(ValueError, match=r"^z must hold an even number of rows"):
        ContrastBatch(np.ones((3, 2)), pos[:3, :3])
    with pytest.raises(ValueError, match=r"^positive_mask shape \(4, 3\) != \(4, 4\)$"):
        ContrastBatch(np.ones((4, 2)), pos[:, :3])


def test_contrast_batch_csr_mask_raises_the_dense_errors():
    z = np.ones((4, 2))
    pos = np.zeros((4, 4), dtype=bool)
    pos[0, 1] = pos[1, 0] = pos[2, 3] = pos[3, 2] = True
    asym = pos.copy()
    asym[0, 2] = True
    for mask, message in ((pos[:, :3], r"^positive_mask shape \(4, 3\) != \(4, 4\)$"),
                          (pos | np.eye(4, dtype=bool), r"^positive_mask has true diagonal entries$"),
                          (asym, r"^positive_mask must be symmetric$")):
        for form in (mask, sp.csr_matrix(mask)):
            with pytest.raises(ValueError, match=message):
                ContrastBatch(z, form)
    # a stored false entry is no positive, on the diagonal or off it
    stored = sp.csr_matrix(pos | np.eye(4, dtype=bool) | asym)
    stored[0, 2] = False
    stored.setdiag(False)
    batch = ContrastBatch(z, stored)
    assert stored.nnz == 9
    assert np.array_equal(batch.rows, [0, 1, 2, 3]) and np.array_equal(batch.cols, [1, 0, 3, 2])
    # a COO entry stored twice is one positive
    twice = sp.coo_matrix((np.ones(5, dtype=bool), ([0, 1, 2, 3, 0], [1, 0, 3, 2, 1])), shape=(4, 4))
    batch = ContrastBatch(z, twice)
    assert np.array_equal(batch.rows, [0, 1, 2, 3]) and np.array_equal(batch.cols, [1, 0, 3, 2])


@pytest.mark.parametrize("rows", [0, 3])
def test_info_nce_rejects_odd_or_empty_rows(rows):
    with pytest.raises(ValueError, match=r"^need an even number >= 2 of rows$"):
        info_nce(np.ones((rows, 2)), 1.0)


def test_s_info_nce_rejects_unknown_denominator_and_anchor_without_positive():
    pos = np.zeros((4, 4), dtype=bool)
    pos[0, 1] = pos[1, 0] = True  # rows 2 and 3 have no positive
    batch = ContrastBatch(np.eye(4, 3), pos)
    with pytest.raises(ValueError, match=r"^unknown denominator mode 'none'$"):
        s_info_nce(batch, 1.0, denominator="none")
    with pytest.raises(ValueError, match=r"^every anchor needs at least one positive$"):
        s_info_nce(batch, 1.0)


@st.composite
def contrast_cases(draw):
    """Random symmetric positive masks over interleaved co-view pairs (every
    row keeps its partner), so rows range from one positive to a single
    negative; rows, tau and the denominator mode drawn alongside."""
    n = 2 * draw(st.integers(1, 5))
    upper = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    pos = np.zeros((n, n), dtype=bool)
    pos[np.triu_indices(n, 1)] = upper
    pos |= pos.T
    pos[np.arange(n), np.arange(n) ^ 1] = True
    neg = ~(pos | np.eye(n, dtype=bool))
    mode = draw(st.sampled_from(("negatives", "all")))
    if mode == "negatives":
        assume(neg.any(axis=1).all())
    z = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, 3))
    tau = draw(st.floats(0.01, 2.0))
    return ContrastBatch(z=z, positive_mask=pos), tau, mode


def assert_radial_free(grad, z):
    # the losses are scale-invariant in each row, so each row's gradient is
    # orthogonal to the row
    scale = np.abs(grad).sum(axis=1) * np.abs(z).sum(axis=1)
    assert np.all(np.abs((grad * z).sum(axis=1)) <= 1e-12 * (1.0 + scale))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(contrast_cases())
def test_s_info_nce_and_info_nce_match_references_property(case):
    batch, tau, mode = case
    loss, grad = s_info_nce(batch, tau, denominator=mode)
    ref = s_info_nce_reference(batch, tau, denominator=mode)
    assert loss == pytest.approx(ref, rel=1e-9, abs=1e-9)
    assert_radial_free(grad, batch.z)
    loss_i, grad_i = info_nce(batch.z, tau)
    assert loss_i == pytest.approx(info_nce_reference(batch.z, tau), rel=1e-9, abs=1e-9)
    assert_radial_free(grad_i, batch.z)


def test_s_info_nce_anti_aligned_negatives_small_tau():
    # each anchor: one positive at cosine 1, two negatives at cosine -1, so
    # loss = log(2 e^-100) - log(e^100) = log 2 - 200 at tau = 0.01; the
    # negatives' terms are e^-200 of the positive's
    v = np.array([0.6, -0.8, 0.0])
    z = np.stack([v, 2.0 * v, -v, -0.5 * v])
    pos = np.kron(np.eye(2, dtype=bool), ~np.eye(2, dtype=bool))
    batch = ContrastBatch(z=z, positive_mask=pos)
    loss, grad = s_info_nce(batch, 0.01)
    assert loss == pytest.approx(np.log(2.0) - 200.0, rel=1e-12)
    assert loss == pytest.approx(s_info_nce_reference(batch, 0.01), rel=1e-12)
    assert np.isfinite(grad).all()


def peak_bytes(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_contrastive_losses_peak_memory_bound():
    # 1,024 anchors, two views each: the losses hold at most three n x n
    # float64 arrays at once (bound 96 MiB)
    rng = np.random.default_rng(10)
    n_anchors = 1024
    n = 2 * n_anchors
    z = rng.normal(size=(n, 16))
    pair = rng.random((n_anchors, n_anchors)) < 10 / n_anchors
    pair |= pair.T
    np.fill_diagonal(pair, True)
    pos = np.kron(pair, np.ones((2, 2), dtype=bool))
    np.fill_diagonal(pos, False)
    batch = ContrastBatch(z=z, positive_mask=pos)
    bound = 3 * n * n * 8
    assert peak_bytes(s_info_nce, batch, 0.2) <= bound
    assert peak_bytes(info_nce, z, 0.2) <= bound


def test_contrast_batch_rejects_one_asymmetric_entry_far_off_diagonal():
    # blocks of 600 rows: the entry and its mirror sit in different block pairs
    n = 600
    pos = np.zeros((n, n), dtype=bool)
    pos[np.arange(n), np.arange(n) ^ 1] = True
    z = np.ones((n, 2))
    ContrastBatch(z, pos)  # symmetric: valid
    for r, c in ((3, 590), (590, 3), (300, 10), (255, 256), (5, 100)):
        asym = pos.copy()
        asym[r, c] = True
        with pytest.raises(ValueError, match="positive_mask must be symmetric"):
            ContrastBatch(z, asym)


def test_contrastive_losses_hold_one_dense_matrix():
    # 1,024 anchors: the scaled cosines, the softmax, dL/dS and its
    # symmetrisation share one n x n float64 array (bound 1.5 of them)
    rng = np.random.default_rng(11)
    n_anchors = 1024
    n = 2 * n_anchors
    z = rng.normal(size=(n, 16))
    pair = rng.random((n_anchors, n_anchors)) < 10 / n_anchors
    pair |= pair.T
    np.fill_diagonal(pair, True)
    pos = np.kron(pair, np.ones((2, 2), dtype=bool))
    np.fill_diagonal(pos, False)
    batch = ContrastBatch(z=z, positive_mask=pos)
    bound = 1.5 * n * n * 8
    assert peak_bytes(s_info_nce, batch, 0.2) <= bound
    assert peak_bytes(info_nce, z, 0.2) <= bound
