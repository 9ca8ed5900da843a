"""Two-stage optimization: contrastive pretraining of the layer-0 embeddings,
then BPR fine-tuning, both driven by a from-scratch Adam."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from sclrec.augment import Neighbors, make_views
from sclrec.dataset import in_sorted
from sclrec.gcn import (EmbeddingState, ProjectionHead, init_head, project_backward,
                        project_forward, row_blocks, spmm)
from sclrec.gcn import layer_mean as _propagate_raw  # benchmarks/tracer.py wraps this name
from sclrec.loss import GRAM_PAD, ContrastBatch, LossConfig, bpr_loss, info_nce, s_info_nce
from sclrec.metrics import evaluate

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class TrainConfig:
    lr: float = 0.001
    batch_size: int = 1024
    pretrain_epochs: int = 200
    finetune_epochs: int = 400
    seed: int = 0
    eval_every: int = 10
    patience: int = 50  # epochs without NDCG@10 improvement before stopping
    dtype: str = "float32"

    def __post_init__(self):
        if not 0 < self.lr < np.inf:  # NaN fails too
            raise ValueError("lr must be positive and finite")
        for name in ("batch_size", "eval_every", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.pretrain_epochs < 0 or self.finetune_epochs < 0:
            raise ValueError("epoch counts must be >= 0")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.dtype(self.dtype)


class AdamState:
    """First/second moments shaped like each parameter plus a step counter, and per parameter
    a bool array for the finiteness check and two work buffers (buffers[name], or its own)."""

    def __init__(self, params: dict, buffers=None):
        buffers = buffers or {}
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.buffers = {k: buffers[k] if k in buffers else (np.empty_like(v), np.empty_like(v))
                        for k, v in params.items()}
        self.finite = {k: np.empty_like(v, dtype=bool) for k, v in params.items()}
        self.step = 0


def adam_step(params: dict, grads: dict, state: AdamState, config: TrainConfig):
    """Standard Adam update with bias correction; params updated in place, or
    none of them when a gradient is not finite.

    The update p -= lr * m_hat / (sqrt(v_hat) + eps) is evaluated one operation at
    a time, in that order, into the state's work buffers, on gcn's row blocks."""
    for name in params:
        if not np.isfinite(grads[name], out=state.finite[name]).all():
            raise FloatingPointError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    b1, b2, t = ADAM_BETA1, ADAM_BETA2, state.step
    for name, p in params.items():
        arrays = [np.atleast_1d(x) for x in (p, grads[name], state.m[name], state.v[name],
                                             *state.buffers[name])]  # of a 0-d array, a 1-row view
        def block(a, b):
            p, g, m, v, step, denom = (x[a:b] for x in arrays)
            m *= b1
            np.multiply(g, 1 - b1, out=step)
            m += step
            v *= b2
            np.multiply(g, 1 - b2, out=step)
            step *= g
            v += step
            np.divide(m, 1 - b1 ** t, out=step)
            step *= config.lr
            np.divide(v, 1 - b2 ** t, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            p -= step
        row_blocks(block, len(arrays[0]))


class Workspace:
    """A training stage's arrays for an n x d e0, allocated once per run: k n x d `slots` over
    the head of one flat `buf`, which holds s_info_nce's padded Gram for up to b nodes too, and
    BPR's gathered rows for up to nb triples. A BPR step takes 4 slots, a contrastive step 6; the
    last two, its propagations' ping-pong layers, are dead once it returns: Adam borrows them."""

    def __init__(self, n: int, d: int, k: int, dtype, b: int = 0, nb: int = 0):
        self.buf = np.empty(max(2 * b * (2 * b + GRAM_PAD), k * n * d), dtype)
        self.slots = self.buf[:k * n * d].reshape(k, n, d)
        self.f, self.e = np.empty((2, 3 * nb, d), dtype)  # the batch's final and e0 rows
        self.sq = np.empty((nb, d), dtype)


def contrastive_loss_and_grads(e0: np.ndarray, adj1, adj2, L: int,
                               head: ProjectionHead, nodes: np.ndarray, side: tuple,
                               sim: Neighbors | None, tau: float, work: Workspace | None = None):
    """One contrastive mini-batch over distinct same-side nodes, end to end.

    `nodes` index the rows side = (start, stop) of e0. Propagates e0 through
    both view adjacencies to the batch rows, projects them (interleaved),
    applies supervised InfoNCE over the pairs `sim` (that side's index) lists
    or, when it is None, SGL's InfoNCE, and chains the gradient back to e0 (on
    that side) and the head parameters. `work` (a 6-slot `Workspace` for len(nodes) nodes or more;
    a new one when None) holds the forward propagations, then the Gram, then the backward ones.

    Returns (loss, grad_e0, head_grads), grad_e0 in `work`, which the next call
    writes over; (None, None, None) when the batch has an anchor without any negative.
    """
    rows = nodes + side[0]
    (n, d), b = e0.shape, len(nodes)
    work = Workspace(n, d, 6, e0.dtype, b=b) if work is None else work
    part = work.slots  # the propagations' n x d arrays
    h = np.empty((2 * b, d), dtype=e0.dtype)
    h[0::2] = _propagate_raw(e0, adj1, L, rows=rows, work=(part[0], part[1:3]))
    h[1::2] = _propagate_raw(e0, adj2, L, rows=rows, work=(part[0], part[1:3]))
    z, cache = project_forward(h, head)
    if (np.linalg.norm(z, axis=1) == 0).any():
        return None, None, None  # dead-relu row, cosine undefined for this batch
    if sim is None:
        loss, grad_z = info_nce(z, tau, buf=work.buf)
    else:  # batch nodes s and t pair when either lists the other; each node pairs with itself
        at = np.full(len(sim.counts), -1)  # each side node's place in the batch, -1 outside it
        at[nodes] = np.arange(b)
        s, k = np.nonzero(np.arange(sim.ids.shape[1]) < sim.counts[nodes, None])  # listed entries
        t = at[sim.ids[nodes[s], k]]
        s, t = s[t >= 0], t[t >= 0]  # neighbours inside the batch
        s, t = np.r_[s, t, :b], np.r_[t, s, :b]
        p = sp.csr_matrix((np.ones(len(s), dtype=bool), (s, t)), shape=(b, b))
        if (p.getnnz(axis=1) == b).any():  # p's diagonal is true: a full row has no negative
            return None, None, None
        # row 2s + a is view a of nodes[s]
        pos = sp.kron(p, np.ones((2, 2), dtype=bool), format="csr")
        pos.setdiag(False)  # stored zeros, which nonzero() skips
        loss, grad_z = s_info_nce(ContrastBatch(z=z, positive_mask=pos), tau, buf=work.buf)
    grad_h, head_grads = project_backward(cache, head, grad_z.astype(e0.dtype, copy=False))
    grad_final1, grad_final2, acc1, acc2 = part[:4]
    part[:2] = 0  # the gradient scatters' targets, over the Gram's bytes
    # nodes are distinct, so each row takes one term and needs no scatter-add
    grad_final1[rows] = grad_h[0::2]
    grad_final2[rows] = grad_h[1::2]
    grad_e0 = _propagate_raw(grad_final1, adj1, L, side=side, work=(acc1, part[4:]))
    grad_e0 += _propagate_raw(grad_final2, adj2, L, side=side, work=(acc2, part[4:]))
    return loss, grad_e0, head_grads


def pretrain(dataset, sim_index, aug_config, state: EmbeddingState,
             loss_config: LossConfig, train_config: TrainConfig, log_fn=print):
    """Contrastive pretraining of the layer-0 embeddings and a fresh projection head.

    Per epoch: two fresh augmented views; users and items batched separately
    (shuffled); each batch projects both views' propagated embeddings and
    applies supervised InfoNCE over `sim_index`'s pairs or, when it is None,
    SGL's InfoNCE; Adam updates e0 and the head. Each epoch line and each
    skipped batch's notice goes to `log_fn`.

    Returns (state, head, loss_curve) with one mean batch loss per epoch.
    """
    if train_config.batch_size < 2:  # a one-node batch has no negative
        raise ValueError(f"batch_size must be >= 2 to pretrain, got {train_config.batch_size}")
    dtype = train_config.np_dtype
    graph = dataset.train_graph
    rng = np.random.default_rng(np.random.SeedSequence([train_config.seed, 101]))
    e0 = state.stacked().astype(dtype)
    head = init_head(state.d, state.d, state.d, train_config.seed, dtype=dtype)
    params = {"emb": e0, "w1": head.w1, "b1": head.b1, "w2": head.w2, "b2": head.b2}
    nu, ni = dataset.num_users, dataset.num_items
    work = Workspace(*e0.shape, 6, dtype, b=min(train_config.batch_size, max(nu, ni)))
    adam = AdamState(params, {"emb": tuple(work.slots[-2:])})
    sims = (None, None) if sim_index is None else (sim_index.users, sim_index.items)
    loss_curve = []
    for epoch in range(1, train_config.pretrain_epochs + 1):
        v1, v2 = make_views(graph, aug_config, sim_index, rng)
        adj1 = v1.graph.norm_adj.astype(dtype, copy=False)
        adj2 = v2.graph.norm_adj.astype(dtype, copy=False)
        batch_losses = []
        for side, sim in zip(((0, nu), (nu, nu + ni)), sims):
            order = rng.permutation(side[1] - side[0])
            for start in range(0, len(order), train_config.batch_size):
                nodes = order[start:start + train_config.batch_size]
                if len(nodes) < 2:
                    continue
                loss, grad_e0, head_grads = contrastive_loss_and_grads(
                    e0, adj1, adj2, state.L, head, nodes, side, sim, loss_config.tau, work)
                if loss is None:
                    log_fn(f"epoch {epoch}: degenerate contrastive batch at offset {side[0]} "
                           "(no valid negatives or zero-norm projection), skipped")
                    continue
                try:
                    adam_step(params, {"emb": grad_e0, **head_grads}, adam, train_config)
                except FloatingPointError as exc:
                    raise FloatingPointError(f"pretrain epoch {epoch}: {exc}") from exc
                batch_losses.append(loss)
        epoch_loss = float(np.mean(batch_losses)) if batch_losses else float("nan")
        loss_curve.append(epoch_loss)
        log_fn(f"stage=pretrain epoch={epoch} loss={epoch_loss:.6f}")
        del v1, v2, adj1, adj2  # freed before the next epoch's views are drawn
    return replace(state, user_emb=e0[:nu].copy(), item_emb=e0[nu:].copy()), head, loss_curve


def bpr_loss_and_grads(e0: np.ndarray, adj, L: int, bu: np.ndarray, bi: np.ndarray,
                       bj: np.ndarray, lambda_l2: float, work: Workspace):
    """One BPR mini-batch end to end: mean loss over the triples and its
    gradient with respect to e0.

    bu, bi, bj are stacked node ids (items offset by num_users) of each
    triple's user, positive and negative item. Scores are inner products of
    the propagated embeddings; the L2 term covers the layer-0 rows the batch
    touches, once per occurrence. The gradient is `work.slots[1]`, which the next call writes over.
    """
    nb = len(bu)
    final, grad, layers = work.slots[0], work.slots[1], work.slots[2:]
    final = _propagate_raw(e0, adj, L, work=(final, layers))
    # ids are in range; mode="raise" would buffer `out` through a temporary of its size
    f = np.take(final, np.concatenate([bu, bi, bj]), axis=0, out=work.f[:3 * nb], mode="clip")
    fu, fi, fj = f[:nb], f[nb:2 * nb], f[2 * nb:]
    y_pos = np.einsum("td,td->t", fu, fi)
    y_neg = np.einsum("td,td->t", fu, fj)
    # the gradient terms overwrite f below, the user's in fi's rows and the positive's
    # in fu's, so the scatter and the L2 term take the batch's rows in this order
    rows = np.concatenate([bi, bu, bj])
    e = np.take(e0, rows, axis=0, out=work.e[:3 * nb], mode="clip")
    ei, eu, ej = e[:nb], e[nb:2 * nb], e[2 * nb:]
    # each square a contiguous nb x d array, so each sum is (eu * eu).sum()'s pairwise one
    sq = float(sum(np.multiply(x, x, out=work.sq[:nb]).sum() for x in (eu, ei, ej)))
    loss, g_pos, g_neg = bpr_loss(y_pos, y_neg, sq, lambda_l2)
    g_pos = (g_pos / nb).astype(e0.dtype)[:, None]
    g_neg = (g_neg / nb).astype(e0.dtype)[:, None]
    # S[rows[k], k] = 1, each row's columns in ascending k: spmm adds a row's
    # batch terms into its out row in batch order, as np.add.at does.
    scatter = sp.csr_matrix((np.ones(3 * nb, e0.dtype), (rows, np.arange(3 * nb))),
                            shape=(len(e0), 3 * nb))
    def block(a, b):  # in place; each product rounded, then added, as in g_pos * fi + g_neg * fj
        fj[a:b] *= g_neg[a:b]
        fi[a:b] *= g_pos[a:b]
        fi[a:b] += fj[a:b]  # the user's term
        np.multiply(g_neg[a:b], fu[a:b], out=fj[a:b])  # the negative's
        fu[a:b] *= g_pos[a:b]  # the positive's
    row_blocks(block, nb)
    final[...] = 0  # dead once gathered: the scatter's target
    grad_e0 = _propagate_raw(spmm(scatter, f, out=final), adj, L, work=(grad, layers))
    spmm(scatter, np.multiply(e, 2.0 * lambda_l2 / nb, out=e), out=grad_e0)  # e is a gathered copy
    return loss / nb, grad_e0


def _sample_negatives(users, train_keys, num_items, rng):
    """One uniform non-interacted item per training interaction (rejection);
    rejected draws are redrawn together, in ascending index order."""
    neg = rng.integers(0, num_items, size=len(users))
    idx = np.flatnonzero(in_sorted(train_keys, users * num_items + neg))
    while idx.size:
        neg[idx] = rng.integers(0, num_items, size=idx.size)
        idx = idx[in_sorted(train_keys, users[idx] * num_items + neg[idx])]
    return neg


def finetune(dataset, state: EmbeddingState, loss_config: LossConfig,
             train_config: TrainConfig, log_fn=print):
    """BPR fine-tuning on the full training graph; only e0 is updated.

    Evaluates NDCG@10 before the first epoch, every eval_every-th epoch and
    after the last, and early-stops on it (patience in epochs); each epoch
    line goes to `log_fn`. Returns (best_state, best_report, history): the
    best-scoring state, the `RankingReport` of the evaluation that chose it
    (None without test interactions), and the metric history as a list of
    (epoch, mean_loss, ndcg10-or-None).
    """
    dtype = train_config.np_dtype
    adj = dataset.train_graph.norm_adj.astype(dtype, copy=False)
    rng = np.random.default_rng(np.random.SeedSequence([train_config.seed, 202]))
    nu = dataset.num_users
    e0 = state.stacked().astype(dtype)
    params = {"emb": e0}
    train_keys = dataset.train_keys
    users_all, items_all = np.divmod(train_keys, dataset.num_items)
    # a user holding every item admits no negative; drop its triples up front
    keep = np.bincount(users_all, minlength=nu)[users_all] < dataset.num_items
    users_all, items_all = users_all[keep], items_all[keep]
    n_pairs = len(users_all)
    work = Workspace(*e0.shape, 4, dtype, nb=min(train_config.batch_size, n_pairs))
    adam = AdamState(params, {"emb": tuple(work.slots[-2:])})

    def snapshot():
        return replace(state, user_emb=e0[:nu].copy(), item_emb=e0[nu:].copy())

    def eval_report(epoch):
        final = _propagate_raw(e0, adj, state.L, work=(work.slots[0], work.slots[2:]))
        try:
            return evaluate(final[:nu], final[nu:], dataset)
        except ValueError as exc:  # non-finite scores: training diverged
            raise FloatingPointError(f"finetune epoch {epoch}: {exc}") from exc

    can_eval = len(dataset.test_keys) > 0
    best_report = eval_report(0) if can_eval else None
    best_state = snapshot()
    best_epoch = 0
    history = [(0, None, best_report.ndcg_at[10] if can_eval else None)]
    for epoch in range(1, train_config.finetune_epochs + 1):
        neg_all = _sample_negatives(users_all, train_keys, dataset.num_items, rng)
        order = rng.permutation(n_pairs)
        losses = []
        for start in range(0, n_pairs, train_config.batch_size):
            sel = order[start:start + train_config.batch_size]
            loss, grad_e0 = bpr_loss_and_grads(
                e0, adj, state.L, users_all[sel], items_all[sel] + nu, neg_all[sel] + nu,
                loss_config.lambda_l2, work)
            losses.append(loss)
            try:
                adam_step(params, {"emb": grad_e0}, adam, train_config)
            except FloatingPointError as exc:
                raise FloatingPointError(f"finetune epoch {epoch}: {exc}") from exc
        epoch_loss = float(np.mean(losses)) if losses else float("nan")
        ndcg = None
        if can_eval and (epoch % train_config.eval_every == 0
                         or epoch == train_config.finetune_epochs):
            report = eval_report(epoch)
            ndcg = report.ndcg_at[10]
            if ndcg > best_report.ndcg_at[10]:
                best_report, best_state, best_epoch = report, snapshot(), epoch
        history.append((epoch, epoch_loss, ndcg))
        line = f"stage=finetune epoch={epoch} loss={epoch_loss:.6f}"
        if ndcg is not None:
            line += f" ndcg10={ndcg:.6f}"
        log_fn(line)
        if ndcg is not None and epoch - best_epoch >= train_config.patience:
            break
    if not can_eval:
        best_state = snapshot()
    return best_state, best_report, history
