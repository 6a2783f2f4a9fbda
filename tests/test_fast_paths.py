"""The vectorized hot paths against the loops they replaced.

The reference implementations below are the earlier per-element versions
of ``Tape.gather``'s backward (``np.add.at`` into zeros),
``evaluation.evaluate`` (candidate rows redrawn on every call and ranked
one user at a time), ``evaluation.negative_pools`` (``np.setdiff1d``),
the node aggregation (gather, row scaling and group sum as three tape ops),
the meta-path fusion (per path a ``pick``, a scaling and an ``add``),
``Var.accumulate`` (zeros, then ``+=``), ``metapath.sample_view`` (one
``rng.choice`` per node) and ``metapath.materialize_subgraph`` (a boolean
sparse product over all ``num_nodes x num_nodes`` relation matrices, sliced
to the start type and sorted with ``lexsort``). MF's references live in
``reference_ops``: ``draw_negatives`` tests each user's items with
``np.isin``, one user at a time, and ``mf_pretrain`` is the per-batch loop
that draws each batch's negatives that way and scatters with ``np.add.at``.
``autodiff.scatter_rows``, which both ``Tape.gather``'s backward and MF
scatter through, is held to the row-indexed ``op.at`` directly: on even
widths, which it moves as complex128 pairs, and odd ones, on a table 8
bytes off a 16-byte boundary, on strided values, and on signed zeros,
infinities and nan; at widths 1 to 66 with no rows, one row and 512; and
past the most rows its lane offsets have held. A spy pins which widths
take the pairs, and MF is checked at odd widths and at d = 64 too.
The data set-up's references live there too: ``synth_tsvs`` (one user at a
time, with ``np.unique`` and ``np.setdiff1d``), ``load_tsvs`` (one line at a
time) and ``split_leave_one_out`` (one user at a time).

Most fast paths must reproduce their reference bit for bit, down to the
state of the random generator they share. Three are held to a looser
contract instead. The sampler draws other (equally uniform) subsets than
``rng.choice``, so its views are checked for shape, membership, the
self-loop, determinism and uniformity, and in every byte against
``reference_ops.sample_view_rows``, the same Floyd draws held row by row.
The aggregation's forward sums each group in another order, so it is
checked to 1e-13, with its gradients still byte-equal. The ranking scores every pair from one product of the
embedding tables, and its metrics must equal the per-user reference.
"""
from __future__ import annotations

import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

import logging
from itertools import combinations

from hinrec import autodiff, cli, evaluation, metapath, recommender, synth
from hinrec.autodiff import Tape, Var, scatter_rows
from hinrec.evaluation import embedding_scorer, split_leave_one_out
from hinrec.hin import GraphLoadError, HinGraph, HinSchema, InteractionSet, load_graph
from hinrec.metapath import MetaPath, MetaPathError, MetaPathSubgraph, SampledView, sample_view
from hinrec.recommender import draw_negatives, positive_bits
from hinrec.util import derive_rng, read_json, read_jsonl, strip_volatile

import reference_ops
from conftest import brute_force_subgraph_rows, graph_from, random_hin, random_path, subgraph_row


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def reference_gather(self, x, idx):
    idx = np.asarray(idx, dtype=np.int64)

    def back(g):
        full = np.zeros_like(x.value)
        np.add.at(full, idx, g)
        x.accumulate(full)

    return self._emit(x.value[idx], back)


def reference_accumulate(self, g):
    if self.grad is None:
        self.grad = np.zeros_like(self.value)
    self.grad += g


def reference_segment_weighted_sum(self, x, w, indptr, src, dst):
    msg_in = self.gather(x, dst)

    def back_mul(g):
        msg_in.accumulate(g * w.value[:, None])
        w.accumulate(np.sum(g * msg_in.value, axis=1))

    msg = self._emit(msg_in.value * w.value[:, None], back_mul)

    def back_sum(g):
        msg.accumulate(g[src])

    return self._emit(np.add.reduceat(msg.value, indptr[:-1], axis=0), back_sum)


def reference_weighted_sum(self, xs, w):
    """The meta-path fusion's earlier chain: per table, ``pick`` its weight and
    scale the table by it (a new array), then ``add`` onto the running sum."""

    def scale(x, s):
        def back(g):
            x.accumulate(g * s.value)
            s.accumulate(np.sum(g * x.value))

        return self._emit(x.value * s.value, back)

    fused = scale(xs[0], self.pick(w, 0))
    for k in range(1, len(xs)):
        fused = self.add(fused, scale(xs[k], self.pick(w, k)))
    return fused


def reference_sample_neighbors(subgraph, v, fanout, rng):
    if fanout <= 0:
        raise MetaPathError("fanout must be a positive integer")
    row = subgraph_row(subgraph, v)
    if len(row) <= fanout:
        return row.copy()
    if np.any(row == v):
        picked = rng.choice(row[row != v], size=fanout - 1, replace=False)
        picked = np.concatenate([[v], picked])
    else:
        picked = rng.choice(row, size=fanout, replace=False)
    return np.sort(picked.astype(np.int64))


def reference_sample_view(subgraph, fanout, rng):
    if fanout <= 0:
        raise MetaPathError("fanout must be a positive integer")
    m = subgraph.m
    degrees = np.diff(subgraph.indptr)
    rows = []
    for v in range(m):
        if degrees[v] == 0:
            rows.append(np.asarray([v], dtype=np.int64))
        elif degrees[v] <= fanout:
            rows.append(subgraph_row(subgraph, v))
        else:
            rows.append(reference_sample_neighbors(subgraph, v, fanout, rng))
    counts = np.asarray([len(r) for r in rows], dtype=np.int64)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    dst = np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
    src = np.repeat(np.arange(m), counts)
    return SampledView(m, indptr, src, dst)


def reference_materialize_subgraph(graph, path, threshold=0.5):
    def relation_matrix(rid):
        indptr, indices = graph.adjacency(rid)
        data = np.ones(len(indices), dtype=np.float64)
        return sp.csr_matrix((data, indices, indptr), shape=(graph.num_nodes, graph.num_nodes))

    if not path.is_symmetric:
        raise MetaPathError(f"subgraph requires symmetric meta-path, got {path.label()}")
    t_idx = graph.schema.type_index(path.node_types[0])
    lo, hi = int(graph.type_offsets[t_idx]), int(graph.type_offsets[t_idx + 1])
    m = hi - lo

    mat = relation_matrix(path.relation_ids[0])
    for rid in path.relation_ids[1:]:
        mat = mat @ relation_matrix(rid)
        mat.data.fill(1.0)
    mat.eliminate_zeros()
    reach = mat[lo:hi, lo:hi].tocsr()
    src = np.repeat(np.arange(m), np.diff(reach.indptr))
    dst = reach.indices.astype(np.int64)
    n_plain = int(np.sum(src != dst))
    density = n_plain / (m * (m - 1)) if m > 1 else 0.0
    if threshold is not None and density > threshold:
        return None

    if m:
        has_out = np.zeros(m, dtype=bool)
        has_out[src] = True
        loops = np.flatnonzero(has_out)
        src = np.concatenate([src, loops])
        dst = np.concatenate([dst, loops])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        keep = np.ones(len(src), dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]

    indptr = np.zeros(m + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return MetaPathSubgraph(path, path.node_types[0], m, indptr, dst, density)


def reference_rank_position(scores, positive_index):
    """1 + the number of other candidates scoring >= the positive (ties hurt)."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[positive_index]
    better_or_tied = int(np.sum(scores >= pos)) - 1
    return 1 + better_or_tied


def reference_hr_at_k(rank, k):
    return 1 if rank <= k else 0


def reference_ndcg_at_k(rank, k):
    return 1.0 / np.log2(rank + 1) if rank <= k else 0.0


def reference_embedding_scorer(graph, H_user, H_item):
    """Per-user scores ``H_item[items] @ H_user[user]`` over global ids."""
    u_off = int(graph.type_offsets[graph.schema.type_index(graph.schema.user_type)])
    i_off = int(graph.type_offsets[graph.schema.type_index(graph.schema.item_type)])

    def scorer(user, items):
        return H_item[np.asarray(items) - i_off] @ H_user[user - u_off]

    return scorer


def per_user(scorer):
    """A per-user scorer over a pairwise one, for :func:`reference_evaluate`."""
    return lambda user, items: scorer(np.full(len(items), user), items)


def reference_evaluate(scorer, split, which, ks, seed, n_negatives=499):
    """``scorer(user, items)`` scores one user's candidate row."""
    held = split.held_out(which)
    if not held:
        raise ValueError(f"no eligible users in split {which!r}")
    ks = tuple(sorted(ks))

    def rank_one(u):
        positive = held[u]
        negs = reference_sample_negatives(split, u, n_negatives, derive_rng(seed, "negatives", which, u))
        candidates = np.concatenate([[positive], negs])
        return reference_rank_position(scorer(u, candidates), 0)

    users = sorted(held)
    ranks_arr = np.asarray([rank_one(u) for u in users])
    hr = {k: float(np.mean([reference_hr_at_k(r, k) for r in ranks_arr])) for k in ks}
    ndcg = {k: float(np.mean([reference_ndcg_at_k(r, k) for r in ranks_arr])) for k in ks}
    return evaluation.RankingMetrics(which, ks, hr, ndcg, len(users))


# ---------------------------------------------------------------------------
# draw_negatives
# ---------------------------------------------------------------------------


def random_pairs(rng, n_users, n_items):
    """Distinct items per user: none for every fifth user, ``min(n_items - 1, 4)``
    for the next, and a random count below three quarters of the catalog for
    the rest, so that the rejection rounds do not run out."""
    rows = []
    for u in range(n_users):
        if u % 5 < 2:
            k = (0, min(n_items - 1, 4))[u % 5]
        else:
            k = int(rng.integers(0, max(1, 3 * n_items // 4)))
        rows.extend((u, int(i)) for i in rng.choice(n_items, size=k, replace=False))
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize("n_items", [2, 3, 7, 50])
@pytest.mark.parametrize("seed", range(4))
def test_draw_negatives_matches_per_user_loop(n_items, seed):
    data = derive_rng(seed, "fast-paths", n_items)
    n_users = 25
    pairs = random_pairs(data, n_users, n_items)
    users = data.integers(0, n_users, size=300)
    assert set(users.tolist()) - set(pairs[:, 0].tolist())  # users with no positives are drawn for

    bits = positive_bits(pairs, n_users, n_items)
    dense = np.zeros((n_users, n_items), dtype=bool)
    dense[pairs[:, 0], pairs[:, 1]] = True
    assert len(bits) == -(-n_users * n_items // 8)
    np.testing.assert_array_equal(np.unpackbits(bits, bitorder="little")[: n_users * n_items], dense.ravel())

    rng_fast, rng_ref = derive_rng(seed, "draw"), derive_rng(seed, "draw")
    fast = draw_negatives(users, bits, n_items, rng_fast)
    ref = reference_ops.draw_negatives(users, reference_ops.per_user_items(pairs, n_users), n_items, rng_ref)
    np.testing.assert_array_equal(fast, ref)
    assert fast.dtype == ref.dtype
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
    assert not dense[users, fast].any()


def test_draw_negatives_saturated_catalog_raises():
    """User 0 has interacted with every item: a ``ValueError`` names it, which the CLI reports."""
    pairs = np.asarray([[0, 0], [0, 1], [0, 2], [1, 0]])
    with pytest.raises(ValueError, match=r"user 0 .*all 3 items"):
        draw_negatives(np.asarray([1, 0, 1]), positive_bits(pairs, 2, 3), 3, derive_rng(0, "sat"), max_tries=20)


@pytest.mark.parametrize("seed", range(20))
def test_draw_negatives_finds_the_one_free_item(seed):
    """One free item of 1,100: the 100 rejection rounds miss it on 18 of these 20 seeds,
    and the fallback draws it from the user's free items."""
    n_items, free = 1100, 417
    pairs = np.stack([np.zeros(n_items - 1, dtype=np.int64), np.delete(np.arange(n_items), free)], axis=1)
    j = draw_negatives(np.zeros(1, dtype=np.int64), positive_bits(pairs, 1, n_items), n_items, derive_rng(seed, "one-free"))
    assert j.tolist() == [free]


@pytest.mark.parametrize("seed", range(4))
def test_draw_negatives_fallback_matches_per_user_loop(seed):
    """Users 0 and 3 have 2 free items of 300, so 3 rounds leave entries rejected: the fallback's
    draws, in batch order, match the reference's, down to the generator state."""
    data = derive_rng(seed, "fallback")
    n_users, n_items = 5, 300
    pairs = random_pairs(data, n_users, n_items)
    pairs = pairs[(pairs[:, 0] != 0) & (pairs[:, 0] != 3)]
    crowded = [(u, i) for u in (0, 3) for i in np.sort(data.choice(n_items, size=n_items - 2, replace=False))]
    pairs = np.concatenate([pairs, np.asarray(crowded, dtype=np.int64)])
    users = data.integers(0, n_users, size=200)
    rng_fast, rng_ref = derive_rng(seed, "draw"), derive_rng(seed, "draw")
    fast = draw_negatives(users, positive_bits(pairs, n_users, n_items), n_items, rng_fast, max_tries=3)
    ref = reference_ops.draw_negatives(users, reference_ops.per_user_items(pairs, n_users), n_items, rng_ref, max_tries=3)
    np.testing.assert_array_equal(fast, ref)
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
    dense = np.zeros((n_users, n_items), dtype=bool)
    dense[pairs[:, 0], pairs[:, 1]] = True
    assert not dense[users, fast].any()


# ---------------------------------------------------------------------------
# Tape.gather
# ---------------------------------------------------------------------------


def gather_grad(x0: np.ndarray, idx: np.ndarray, c: np.ndarray) -> np.ndarray:
    t = Tape()
    x = Var(x0.copy())
    t.backward(t.mul_const(t.gather(x, idx), c))
    return x.grad


@pytest.mark.parametrize(
    "shape, idx",
    [
        ((6,), [0, 3, 3, 5, 0, 0, 2]),
        ((6, 4), [0, 3, 3, 5, 0, 0, 2]),
        ((9, 3), np.random.default_rng(1).integers(0, 9, size=500)),
        ((40,), np.random.default_rng(2).integers(0, 40, size=2000)),
        ((5,), []),
        ((5, 2), []),
    ],
)
def test_gather_backward_bit_identical_to_add_at(monkeypatch, shape, idx):
    rng = np.random.default_rng(len(idx))
    idx = np.asarray(idx, dtype=np.int64)
    assert_gather_matches_add_at(monkeypatch, rng.normal(size=shape), idx, rng.normal(size=(len(idx),) + shape[1:]))


@pytest.mark.parametrize("shape", [(6,), (6, 2)])
def test_gather_backward_adds_signed_zeros_as_add_at(monkeypatch, shape):
    """Rows 0 and 3 repeat and rows 2 and 5 appear once; each takes only -0.0 or only +0.0
    terms, and ``np.add.at`` into zeros makes every row +0.0. ``Var.accumulate`` would turn
    -0.0 into +0.0 on both sides of the scatter, so here it keeps each gradient as given."""

    def keep(self, g):
        assert self.grad is None
        self.grad = g

    monkeypatch.setattr(Var, "accumulate", keep)
    idx = np.asarray([0, 3, 3, 5, 0, 2], dtype=np.int64)
    c = np.asarray([-0.0, 0.0, 0.0, -0.0, -0.0, 0.0]).reshape((-1,) + (1,) * (len(shape) - 1)) * np.ones(shape[1:])
    assert np.signbit(c).any()
    grad = assert_gather_matches_add_at(monkeypatch, np.ones(shape), idx, c)
    assert not np.signbit(grad).any()


def assert_gather_matches_add_at(monkeypatch, x0, idx, c):
    """``x0``'s gradient through ``gather(x0, idx) * c``, checked against ``reference_gather``'s bytes."""
    fast = gather_grad(x0, idx, c)
    monkeypatch.setattr(Tape, "gather", reference_gather)
    ref = gather_grad(x0, idx, c)
    assert fast.dtype == ref.dtype == np.float64
    assert fast.shape == ref.shape == x0.shape
    assert fast.tobytes() == ref.tobytes()
    return fast


# ---------------------------------------------------------------------------
# Var.accumulate and the fused node aggregation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, contributions",
    [
        (np.zeros(4), [np.asarray([-0.0, 0.0, -0.0, 2.0])]),
        (np.zeros(4), [np.asarray([-0.0, 1.0, -0.0, 2.0]), np.asarray([-0.0, -1.0, 0.0, 1e-300])]),
        (np.zeros((3, 2)), [np.asarray([[-0.0, 1.5], [np.inf, -np.inf], [1e308, -1e-320]])]),
        (np.zeros((3, 2)), [np.asarray([-0.0, 3.0])]),  # broadcast over rows
        (np.asarray(1.0), [np.float64(-0.0), np.float64(2.5)]),
    ],
)
def test_accumulate_matches_zeros_then_add(monkeypatch, value, contributions):
    fast = Var(value)
    for g in contributions:
        fast.accumulate(g)
    monkeypatch.setattr(Var, "accumulate", reference_accumulate)
    ref = Var(value)
    for g in contributions:
        ref.accumulate(g)
    assert fast.grad.shape == ref.grad.shape and fast.grad.dtype == ref.grad.dtype
    assert fast.grad.tobytes() == ref.grad.tobytes()


def random_groups(rng, m, n, max_size):
    """Contiguous groups of 1..max_size entries reading random rows, repeats allowed."""
    counts = rng.integers(1, max_size + 1, size=m)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    src = np.repeat(np.arange(m), counts)
    dst = rng.integers(0, n, size=int(indptr[-1]))
    return indptr, src, dst


def aggregation_run(x0, w0, c, indptr, src, dst):
    """Values and gradients of ``sum(c * aggregate)``, with ``x`` also read by a second op."""
    t = Tape()
    x, w = Var(x0.copy()), Var(w0.copy())
    agg = t.segment_weighted_sum(x, w, indptr, src, dst)
    scores = t.matvec(x, Var(np.linspace(-1.0, 1.0, x0.shape[1])))
    t.backward(t.add(t.mean(t.mul_const(agg, c)), t.mean(scores)))
    return agg.value, x.grad, w.grad


def assert_aggregation_matches(monkeypatch, m, n, max_size, zero_share, seed):
    """Both gradients byte-equal to the three ops for the same upstream gradient;
    the forward, which sums each group in another order, within 1e-13."""
    rng = derive_rng(seed, "aggregate", m)
    indptr, src, dst = random_groups(rng, m, n, max_size)
    x0 = rng.normal(size=(n, 8))
    w0 = rng.random(len(dst))
    c = rng.normal(size=(m, 8))
    c[rng.random(c.shape) < zero_share] = -0.0
    c[rng.random(c.shape) < zero_share / 2] = 0.0
    fast = aggregation_run(x0, w0, c, indptr, src, dst)
    with monkeypatch.context() as patch:
        patch.setattr(Tape, "segment_weighted_sum", reference_segment_weighted_sum)
        patch.setattr(Var, "accumulate", reference_accumulate)
        ref = aggregation_run(x0, w0, c, indptr, src, dst)
    for got, want in zip(fast, ref):
        assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    np.testing.assert_allclose(fast[0], ref[0], rtol=0, atol=1e-13)
    assert fast[1].tobytes() == ref[1].tobytes()
    assert fast[2].tobytes() == ref[2].tobytes()


AGGREGATION_CASES = [
    (5, 6, 1, 0.0),  # single-entry groups
    (7, 4, 6, 0.0),  # repeated rows within and across groups
    (30, 12, 5, 0.5),  # half the upstream gradients are -0.0 or +0.0
    (200, 50, 20, 0.1),
]


@pytest.mark.parametrize("m, n, max_size, zero_share", AGGREGATION_CASES)
@pytest.mark.parametrize("seed", range(3))
def test_fused_aggregation_bit_identical_to_three_ops(monkeypatch, m, n, max_size, zero_share, seed):
    """Gradients bit-identical to the three ops; the forward to 1e-13 (see the module docstring)."""
    assert_aggregation_matches(monkeypatch, m, n, max_size, zero_share, seed)


@pytest.mark.parametrize("block", [1, 3])
def test_weight_gradient_blocks_end_inside_groups(monkeypatch, block):
    """Blocks of 1 and 3 entries put the weight gradient's block boundaries inside groups."""
    monkeypatch.setattr(autodiff, "WEIGHT_GRAD_BLOCK", block)
    for m, n, max_size, zero_share in AGGREGATION_CASES:
        assert_aggregation_matches(monkeypatch, m, n, max_size, zero_share, seed=block)


def fusion_run(tables0, c):
    """Values and gradients of a fused table under ``recommender.fuse``, its
    tables also read by each path's score, as in ``_side_forward``."""
    t = Tape()
    tables = [Var(x.copy()) for x in tables0]
    q = Var(np.linspace(-1.0, 1.0, tables0[0].shape[1]))
    scores = [t.mean(t.matvec(t.tanh(x), q)) for x in tables]
    fused, beta = recommender.fuse(t, tables, scores)
    t.backward(t.mean(t.mul_const(fused, c)))
    return [fused.value, beta.value, q.grad, *(x.grad for x in tables)]


@pytest.mark.parametrize("n_paths", [1, 2, 5])
@pytest.mark.parametrize("zero_share", [0.0, 0.5])
def test_weighted_sum_bit_identical_to_scale_and_add_chain(monkeypatch, n_paths, zero_share):
    """``fuse``'s one weighted sum against the pick/scale/add chain it replaced: the
    fused table, β and every gradient byte-equal, with upstream zeros of both signs."""
    rng = derive_rng(n_paths, "fusion", zero_share)
    tables0 = [rng.normal(size=(40, 8)) for _ in range(n_paths)]
    c = rng.normal(size=(40, 8))
    c[rng.random(c.shape) < zero_share] = -0.0
    c[rng.random(c.shape) < zero_share / 2] = 0.0
    fast = fusion_run(tables0, c)
    monkeypatch.setattr(Tape, "weighted_sum", reference_weighted_sum)
    ref = fusion_run(tables0, c)
    for got, want in zip(fast, ref):
        assert got.shape == want.shape and got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# MF scatter
# ---------------------------------------------------------------------------


SCATTER_CASES = [
    ((6, 3), [0, 3, 3, 5, 0, 0, 2]),  # repeated
    ((6, 3), [4] * 9),  # all equal
    ((6, 3), []),  # empty
    ((6,), [1, 1, 0, 5, 1]),  # 1-D
    ((500, 64), np.random.default_rng(3).integers(0, 500, size=512)),
    ((40, 4), np.random.default_rng(4).zipf(1.5, size=300) % 40),  # a few rows repeat often
    ((7, 5), np.random.default_rng(8).integers(0, 7, size=40)),
]
# Even widths, so that they take the complex128 pairs.
LAYOUT_CASES = [
    pytest.param((6, 4), [0, 3, 3, 5, 0, 2], "offset-table", id="offset-table"),  # 8 bytes off 16
    pytest.param((9, 6), np.random.default_rng(5).integers(0, 9, size=30), "strided-values", id="strided-values"),
    pytest.param((5, 4), [0, 1, 1, 4, 4, 4, 2], "special-values", id="special-values"),  # -0.0, +0.0, inf, nan
]


def scatter_case(shape, n, layout, rng):
    """``(table, vals)`` for one case of :func:`test_scatter_add_bit_identical_to_add_at`."""
    scale = 10.0 ** rng.integers(-8, 8, size=(n,) + shape[1:])
    if layout == "offset-table":
        big = rng.normal(size=shape[0] * shape[1] + 2)
        table = big[1 : 1 + shape[0] * shape[1]].reshape(shape)
        assert table.flags.c_contiguous and table.ctypes.data % 16 == 8
        return table, rng.normal(size=(n,) + shape[1:]) * scale
    if layout == "strided-values":
        vals = (rng.normal(size=(n, 2 * shape[1])) * np.repeat(scale, 2, axis=1))[:, ::2]
        assert not vals.flags.c_contiguous
        return rng.normal(size=shape), vals
    if layout == "special-values":
        specials = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 1.5])
        return rng.choice(specials, size=shape), rng.choice(specials, size=(n,) + shape[1:])
    return rng.normal(size=shape), rng.normal(size=(n,) + shape[1:]) * scale


@pytest.mark.parametrize(
    "shape, idx, layout",
    [pytest.param(*case, "plain", id=f"shape{k}-idx{k}") for k, case in enumerate(SCATTER_CASES)] + LAYOUT_CASES,
)
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
def test_scatter_add_bit_identical_to_add_at(shape, idx, layout):
    """``scatter_rows`` against the row-indexed ``op.at``, adding the values and subtracting
    them. Subtracting must also have the bits of adding their negations, except where a
    value is nan: negating a nan flips its sign bit, and the sum keeps it."""
    idx = np.asarray(idx, dtype=np.int64)
    for op, sign in ((np.add, 1.0), (np.subtract, -1.0)):
        fast, vals = scatter_case(shape, len(idx), layout, np.random.default_rng(len(idx)))
        ref, negated = fast.copy(), fast.copy()
        scatter_rows(op, fast, idx, vals)  # in place, so on the offset table itself
        op.at(ref, idx, vals)
        assert fast.tobytes() == ref.tobytes()
        if not np.isnan(vals).any():
            np.add.at(negated, idx, sign * vals)
            assert fast.tobytes() == negated.tobytes()


@pytest.mark.parametrize("shape, dtype", [((5, 4), np.complex128), ((5, 3), np.float64), ((5,), np.float64)])
def test_scatter_pairs_even_width_float64_rows(shape, dtype):
    """An even-width float64 table reaches ``op.at`` as complex128 pairs; odd widths and
    1-D tables stay float64, so dropping the pairing fails here, not only in a timing."""
    seen = []

    class Spy:
        @staticmethod
        def at(table, rows, vals):
            seen.append((table.dtype, vals.dtype))
            np.add.at(table, rows, vals)

    rows = np.array([0, 2, 2, 4])
    vals = np.arange(np.prod((4,) + shape[1:]), dtype=np.float64).reshape((4,) + shape[1:])
    table, expected = np.ones(shape), np.ones(shape)
    scatter_rows(Spy, table, rows, vals)
    np.add.at(expected, rows, vals)
    assert seen == [(np.dtype(dtype), np.dtype(dtype))]
    assert table.tobytes() == expected.tobytes()


@pytest.mark.parametrize("width", [1, 2, 3, 32, 64, 66])
@pytest.mark.parametrize("n", [0, 1, 512])
def test_scatter_rows_matches_add_at_by_width(width, n):
    """Odd and even widths, each with no rows, one row and a batch of 512 that repeats rows."""
    rng = np.random.default_rng(width * 1000 + n)
    rows = rng.integers(0, 40, size=n)
    table, vals = rng.normal(size=(40, width)), rng.normal(size=(n, width))
    expected = table.copy()
    scatter_rows(np.add, table, rows, vals)
    np.add.at(expected, rows, vals)
    assert table.tobytes() == expected.tobytes()


def test_scatter_rows_lane_offsets_grow_past_the_largest_count(monkeypatch):
    """Starting from no lane offsets, each call takes more rows than any before it, then fewer."""
    monkeypatch.setattr(autodiff, "_LANES", {})
    rng = np.random.default_rng(7)
    for n in (3, 40, 700, 5, 701):
        rows = rng.integers(0, 50, size=n)
        table, vals = rng.normal(size=(50, 64)), rng.normal(size=(n, 64))
        expected = table.copy()
        scatter_rows(np.subtract, table, rows, vals)
        np.subtract.at(expected, rows, vals)
        assert table.tobytes() == expected.tobytes()
    assert len(autodiff._LANES[32]) == 701 * 32 and not autodiff._LANES[32].flags.writeable


def assert_mf_matches_reference(pairs, n_users, n_items, batch_size, epochs=3, seed=5, d=8):
    args = (pairs, n_users, n_items, d, epochs, 0.05)
    P, Q = recommender.mf_pretrain(*args, derive_rng(seed, "mf"), batch_size=batch_size)
    P_ref, Q_ref = reference_ops.mf_pretrain(*args, derive_rng(seed, "mf"), batch_size=batch_size)
    assert P.tobytes() == P_ref.tobytes()
    assert Q.tobytes() == Q_ref.tobytes()


def test_mf_pretrain_bit_identical_to_per_batch_loop(monkeypatch, small_planted):
    """Batches of 16: some add to one user's ``P`` row several times, and some add to
    a movie's ``Q`` row as an item and subtract from it as a negative."""
    graph, split, _ = small_planted
    pairs = split.train_local(graph)
    scattered = []

    def recording(op, table, rows, vals):
        scattered.append(rows.copy())
        scatter_rows(op, table, rows, vals)

    monkeypatch.setattr(recommender, "scatter_rows", recording)
    assert_mf_matches_reference(pairs, graph.type_count("User"), graph.type_count("Movie"), 16)
    assert len(scattered) == 3 * 3 * -(-len(pairs) // 16)  # three scatters per batch, three epochs
    users, items, negatives = scattered[0::3], scattered[1::3], scattered[2::3]
    assert any(len(np.unique(u)) < len(u) for u in users)
    assert any(np.intersect1d(i, j).size for i, j in zip(items, negatives))


@pytest.mark.parametrize("batch_size", [512, 100])
def test_mf_pretrain_bit_identical_at_production_shape(small_planted, batch_size):
    """d = 64 and batches of 512, as the probe runs MF: planted-mam-small's 360 training
    pairs make each epoch one short batch. Batches of 100 end each epoch on a short one."""
    graph, split, _ = small_planted
    pairs = split.train_local(graph)
    assert len(pairs) % batch_size
    assert_mf_matches_reference(pairs, graph.type_count("User"), graph.type_count("Movie"), batch_size, d=64)


def mf_case(name):
    """``(pairs, n_users, n_items)`` for one edge case of :func:`test_mf_pretrain_bit_identical_on_edge_cases`."""
    rng = derive_rng(0, "mf-case", name)
    if name == "one user":  # the user's row repeats across every batch
        return np.stack([np.zeros(30, dtype=np.int64), rng.permutation(40)[:30]], axis=1), 1, 40
    pairs = random_pairs(rng, 25, 30)
    if name == "unused rows":  # users 25-29 and items 30-34 have no pairs
        return pairs, 30, 35
    return pairs, 25, 30


@pytest.mark.parametrize(
    "name, batch_size",
    [
        ("random", 13),  # does not divide the pair count
        ("random", 64),
        ("random", 10_000),  # one batch holds every pair
        ("one user", 8),
        ("one user", 30),
        ("unused rows", 11),
    ],
)
def test_mf_pretrain_bit_identical_on_edge_cases(name, batch_size):
    pairs, n_users, n_items = mf_case(name)
    if name == "random":
        assert len(pairs) % 13 and len(pairs) < 10_000
    assert_mf_matches_reference(pairs, n_users, n_items, batch_size)


@pytest.mark.parametrize("d", [1, 7])
def test_mf_pretrain_bit_identical_at_odd_widths(d):
    """Odd widths scatter as float64 rather than as complex128 pairs."""
    pairs, n_users, n_items = mf_case("random")
    assert_mf_matches_reference(pairs, n_users, n_items, 13, d=d)


def test_mf_pretrain_draws_each_batch_through_the_module(monkeypatch, small_planted):
    """One ``recommender.draw_negatives`` call per batch: the benchmark counts calls by patching that name."""
    graph, split, _ = small_planted
    pairs = split.train_local(graph)
    calls = []

    def counting(users, *args, **kwargs):
        calls.append(len(users))
        return draw_negatives(users, *args, **kwargs)

    monkeypatch.setattr(recommender, "draw_negatives", counting)
    epochs, batch_size = 3, 100
    recommender.mf_pretrain(pairs, graph.type_count("User"), graph.type_count("Movie"), 8, epochs, 0.05,
                            derive_rng(0, "mf"), batch_size=batch_size)
    per_epoch = [batch_size] * (len(pairs) // batch_size) + [len(pairs) % batch_size] * bool(len(pairs) % batch_size)
    assert calls == per_epoch * epochs


# ---------------------------------------------------------------------------
# sample_view
# ---------------------------------------------------------------------------


def hand_subgraph(rows):
    """A subgraph whose rows are given as lists, unsorted ones included."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    dst = np.asarray([v for r in rows for v in r], dtype=np.int64)
    path = MetaPath((1, 2), ("User", "Movie", "User"))
    return MetaPathSubgraph(path, "User", len(rows), indptr, dst)


def without_diagonal(subgraph):
    """The subgraph with each row's own node dropped, so that no row holds its node."""
    return hand_subgraph([[w for w in subgraph_row(subgraph, v).tolist() if w != v] for v in range(subgraph.m)])


HAND_ROWS = [
    [],  # isolated
    [1, 2, 3],  # degree == fanout, with self
    [5, 0, 4],  # degree == fanout, no self, unsorted
    [7, 3, 0, 6, 5, 2],  # above fanout, with self, unsorted
    [0, 1, 2, 3, 5],  # above fanout, no self
    [],
    [6],  # self only
    [4, 2, 9, 1, 7, 8, 0, 3],
    [],
    [9, 8],
]


def view_rows(view):
    return [view.dst[view.indptr[v] : view.indptr[v + 1]] for v in range(view.m)]


def assert_view_contract(subgraph, fanout, seed):
    """The per-node loop's contract: every row holds min(degree, fanout) entries,
    sorted and distinct, drawn from its subgraph row with the self-loop kept, and
    isolated nodes get themselves. Rows at or below the fanout equal the loop's;
    drawn rows may hold another subset than its ``rng.choice``.

    The view is also ``reference_ops.sample_view_rows``'s in every byte, the
    same Floyd draws with the picks held row by row, and leaves the generator
    in the same state. A subgraph whose ``dst`` is int64 and one whose ``dst``
    is the narrow dtype that ``materialize_subgraph`` keeps give the same view."""
    rng = derive_rng(seed, "view")
    view = sample_view(subgraph, fanout, rng)
    for dtype in {np.dtype(np.int64), narrow_id_dtype(subgraph.m)} - {subgraph.dst.dtype}:
        other = sample_view(dataclasses.replace(subgraph, dst=subgraph.dst.astype(dtype)), fanout, derive_rng(seed, "view"))
        for name in ("indptr", "src", "dst"):
            assert getattr(other, name).tobytes() == getattr(view, name).tobytes(), (name, dtype)
    ref = reference_sample_view(subgraph, fanout, derive_rng(seed, "view"))
    rng_rows = derive_rng(seed, "view")
    rows_ref = reference_ops.sample_view_rows(subgraph.indptr, subgraph.dst, fanout, rng_rows)
    for name, want in zip(("indptr", "src", "dst"), rows_ref):
        got = getattr(view, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, fanout, seed)
    assert rng.bit_generator.state == rng_rows.bit_generator.state
    assert view.m == subgraph.m
    for name in ("indptr", "src", "dst"):
        assert getattr(view, name).dtype == np.int64, name
    degrees = np.diff(subgraph.indptr)
    np.testing.assert_array_equal(np.diff(view.indptr), np.where(degrees == 0, 1, np.minimum(degrees, fanout)))
    np.testing.assert_array_equal(view.src, np.repeat(np.arange(view.m), np.diff(view.indptr)))
    for v, (row, ref_row) in enumerate(zip(view_rows(view), view_rows(ref))):
        full = subgraph_row(subgraph, v)
        if degrees[v] <= fanout:
            np.testing.assert_array_equal(row, ref_row)
            continue
        assert np.all(np.diff(row) > 0), (v, row)
        assert set(row.tolist()) <= set(full.tolist()), (v, row)
        assert (v in row) == (v in full), (v, row)
    return view


@pytest.mark.parametrize("fanout", [1, 2, 3, 8])
@pytest.mark.parametrize("seed", range(3))
def test_sample_view_matches_per_node_loop_on_hand_rows(fanout, seed):
    assert_view_contract(hand_subgraph(HAND_ROWS), fanout, seed)


@pytest.mark.parametrize("diagonal", [True, False])
def test_sample_view_matches_per_node_loop_on_random_graphs(diagonal):
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 20:
        graph = random_hin(rng, max_nodes=40)
        path = random_path(graph.schema, rng)
        if not path.is_symmetric:
            continue
        subgraph = metapath.materialize_subgraph(graph, path, threshold=None)
        if not diagonal:
            subgraph = without_diagonal(subgraph)
        degrees = np.diff(subgraph.indptr)
        for fanout in sorted({1, 2, max(1, int(degrees.max(initial=0))), max(1, int(np.median(degrees)))}):
            assert_view_contract(subgraph, fanout, checked)
        checked += 1


def test_sample_view_matches_per_node_loop_on_planted_graph(small_planted):
    graph, _, _ = small_planted
    for relations in ([1, 2], [1, 4, 3, 2], [2, 1], [4, 3], [2, 1, 2, 1]):  # the last is the dense MUMUM
        path = MetaPath.from_relations(graph.schema, relations)
        full = metapath.materialize_subgraph(graph, path, threshold=None)
        for subgraph in (full, without_diagonal(full)):
            for fanout in sorted({1, 2, 5, 20, int(np.diff(subgraph.indptr).max())}):
                assert_view_contract(subgraph, fanout, fanout)


def test_sample_view_same_seed_same_view(small_planted):
    graph, _, _ = small_planted
    subgraph = metapath.materialize_subgraph(graph, MetaPath.from_relations(graph.schema, [2, 1]), threshold=None)
    assert np.diff(subgraph.indptr).max() > 5
    a, b, c = (sample_view(subgraph, 5, derive_rng(seed, "view")) for seed in (0, 0, 1))
    for name in ("indptr", "src", "dst"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert a.indptr.tobytes() == c.indptr.tobytes()
    assert a.dst.tobytes() != c.dst.tobytes()


@pytest.mark.parametrize("fanout", [1, 2, 5])
def test_sample_view_rows_one_above_fanout(fanout):
    """Degree fanout + 1 with and without the self-loop: every possible row turns up."""
    others = list(range(10, 10 + fanout + 1))
    with_self = [0] + others[:fanout]
    subgraph = hand_subgraph([with_self, others] + [[]] * (8 + len(others)))
    seen = [set(), set()]
    for seed in range(60):
        view = assert_view_contract(subgraph, fanout, seed)
        for k in (0, 1):
            seen[k].add(tuple(view_rows(view)[k].tolist()))
    assert seen[0] == {(0, *rest) for rest in combinations(others[:fanout], fanout - 1)}
    assert seen[1] == set(combinations(others, fanout))


@pytest.mark.parametrize("has_self", [False, True])
def test_sample_view_draws_uniform_subsets(has_self):
    """20,000 rows of degree 8 at fanout 3, one draw each.

    Without the self-loop each row picks 3 of its 8 neighbours; with it, a
    row keeps itself and picks 2 of the other 7. Each neighbour's inclusion
    frequency lies within 4 sigma of picks / pool, and every subset appears.
    """
    n, fanout = 20_000, 3
    pool = list(range(n, n + 8 - has_self))
    rows = [sorted([v] + pool) if has_self else pool for v in range(n)]
    subgraph = hand_subgraph(rows + [[]] * len(pool))
    view = sample_view(subgraph, fanout, derive_rng(0, "uniform"))
    drawn = view.dst[: n * fanout].reshape(n, fanout)
    if has_self:
        assert np.all(drawn[:, 0] == np.arange(n))  # the node sorts ahead of its pool
        drawn = drawn[:, 1:]
    picks = drawn.shape[1]
    p = picks / len(pool)
    sigma = np.sqrt(p * (1 - p) / n)
    freq = np.bincount(drawn.ravel() - n, minlength=len(pool)) / n
    assert np.all(np.abs(freq - p) < 4 * sigma), freq
    assert set(map(tuple, drawn.tolist())) == set(combinations(pool, picks))


# ---------------------------------------------------------------------------
# materialize_subgraph
# ---------------------------------------------------------------------------


# End-type sizes around one 64-bit word of the walk's bitsets: one bit
# short, exactly one word, one bit over, and three words; then 256 and
# 257, where the kept ``dst`` switches from uint8 to uint16.
WORD_SIZES = [63, 64, 65, 130, 256, 257]
# Seeds of the random and planted graphs that the subgraphs are checked on.
SEEDS = [1, 3, 256]


def narrow_id_dtype(m):
    """The dtype a subgraph over ``m`` nodes keeps its ``dst`` in."""
    return np.dtype(np.uint8 if m <= 256 else np.uint16)  # the tests' types hold at most 1,100 nodes


def assert_same_subgraph(graph, path, threshold):
    """Byte-equal to the reference, ``dst`` once widened to int64, or None on both sides."""
    fast = metapath.materialize_subgraph(graph, path, threshold)
    ref = reference_materialize_subgraph(graph, path, threshold)
    assert (fast is None) == (ref is None), (path.label(), threshold)
    if ref is None:
        return None
    assert (fast.path, fast.node_type, fast.m) == (ref.path, ref.node_type, ref.m)
    assert fast.indptr.dtype == ref.indptr.dtype == ref.dst.dtype == np.int64
    assert fast.dst.dtype == narrow_id_dtype(fast.m)
    assert fast.indptr.tobytes() == ref.indptr.tobytes()
    assert type(fast.density) is float and fast.density == ref.density
    assert fast.dst.astype(np.int64).tobytes() == ref.dst.tobytes()
    return fast


def assert_rows_match_brute_force(graph, path, subgraph):
    rows = [subgraph_row(subgraph, v).tolist() for v in range(subgraph.m)]
    assert rows == brute_force_subgraph_rows(graph, path), path.label()


def has_empty_head_between(graph, rid):
    """Whether a head without edges under ``rid`` sits between heads with edges."""
    h = graph.schema.type_index(graph.schema.relation(rid).head)
    lo, hi = int(graph.type_offsets[h]), int(graph.type_offsets[h + 1])
    degrees = np.diff(graph.adjacency(rid)[0][lo : hi + 1])
    busy = np.flatnonzero(degrees)
    return len(busy) > 1 and bool((degrees[busy[0] : busy[-1]] == 0).any())


def sweep_random_paths(rng, n_paths, brute_force, end_size=None, **hin_args):
    """Check ``n_paths`` random symmetric paths against the reference; count the cases met."""
    seen = Counter()
    checked = 0
    while checked < n_paths:
        graph = random_hin(rng, **hin_args)
        path = random_path(graph.schema, rng, max_len=6)
        if not path.is_symmetric or end_size not in (None, graph.type_count(path.end_type)):
            continue
        subgraphs = [assert_same_subgraph(graph, path, threshold) for threshold in (None, 0.0, 0.25, 0.5)]
        seen["rejected"] += sum(sg is None for sg in subgraphs)
        full = subgraphs[0]
        if brute_force:
            assert_rows_match_brute_force(graph, path, full)
        rels = [graph.schema.relation(rid) for rid in path.relation_ids]
        seen["self-complementary"] += any(rel.comp == rel.rid for rel in rels)
        seen["zero-edge relation"] += any(graph.edge_count(rel.rid) == 0 for rel in rels)
        seen["isolated node"] += bool((np.diff(full.indptr) == 0).any())
        seen["type of size 1"] += full.m == 1
        seen["empty head mid-path"] += any(has_empty_head_between(graph, rid) for rid in path.relation_ids[1:-1])
        checked += 1
    return seen


@pytest.mark.parametrize("seed", SEEDS)
def test_materialize_matches_reference_on_random_graphs(seed):
    seen = sweep_random_paths(
        np.random.default_rng(seed), 60, brute_force=True, max_nodes=24, min_per_type=1, p_empty=0.25
    )
    cases = {
        "rejected", "self-complementary", "zero-edge relation", "isolated node", "type of size 1",
        "empty head mid-path",
    }
    assert all(seen[case] > 0 for case in cases), seen


@pytest.mark.parametrize("size", WORD_SIZES)
def test_materialize_matches_reference_across_word_boundaries(size):
    seen = sweep_random_paths(np.random.default_rng(size), 20, brute_force=False, end_size=size, type_sizes=(size, 7))
    cases = {"rejected", "isolated node", "empty head mid-path"}
    assert all(seen[case] > 0 for case in cases), seen


def planted_paths(schema, max_len=8):
    """Every User- or Movie-symmetric relation chain of at most ``max_len`` relations."""
    found, frontier = [], [[rel.rid] for rel in schema.relations]
    while frontier:
        rids = frontier.pop()
        path = MetaPath.from_relations(schema, rids)
        if path.is_symmetric and path.start_type in ("User", "Movie"):
            found.append(path)
        if len(rids) < max_len:
            frontier.extend(rids + [rel.rid] for rel in schema.relations if rel.head == path.end_type)
    return sorted(found, key=lambda p: (len(p), p.relation_ids))


@pytest.mark.parametrize("seed", SEEDS)
def test_materialize_matches_reference_on_planted_graph(tmp_path, seed):
    synth.write_dataset(tmp_path, "planted-mam-small", seed=seed)
    schema = HinSchema.from_file(tmp_path / "schema.txt")
    graph = load_graph(tmp_path / "nodes.tsv", tmp_path / "edges.tsv", schema)
    paths = planted_paths(graph.schema)
    assert len(paths) == 160 and {len(p) for p in paths} == {2, 4, 6, 8}
    rejected = 0
    for path in paths:
        rejected += assert_same_subgraph(graph, path, 0.5) is None
        full = assert_same_subgraph(graph, path, None)
        if len(path) == 2:
            assert_same_subgraph(graph, path, 0.0)
            assert_rows_match_brute_force(graph, path, full)
    assert rejected > 0


@pytest.mark.parametrize("idle", [1, 3, 256])
def test_materialize_accepts_density_equal_to_threshold(movie_schema, idle):
    users = [(f"U{k}", "User") for k in range(4)]
    edges = [("U0", "watch", "M0"), ("U1", "watch", "M0"), ("U2", "watch", "M0"), ("U3", "watch", "M1")]
    graph = graph_from(movie_schema, users + [("M0", "Movie"), ("M1", "Movie")], edges)
    umu = MetaPath.from_relations(movie_schema, [1, 2])
    # U0, U1 and U2 reach each other: 6 directed non-self pairs over 4 * 3.
    sg = assert_same_subgraph(graph, umu, 0.5)
    assert sg.density == 0.5
    assert assert_same_subgraph(graph, umu, np.nextafter(0.5, 0.0)) is None

    # The same pairs with ``idle`` users who watch nothing, so the user
    # bitsets end mid-word or span several words.
    idle_users = [(f"I{k}", "User") for k in range(idle)]
    graph = graph_from(movie_schema, users + idle_users + [("M0", "Movie"), ("M1", "Movie")], edges)
    m = 4 + idle
    density = 6 / (m * (m - 1))
    assert assert_same_subgraph(graph, umu, density).density == density
    assert assert_same_subgraph(graph, umu, np.nextafter(density, 0.0)) is None


# ---------------------------------------------------------------------------
# Evaluation candidates
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_split(small_planted):
    """The conftest split, drawn again so its candidate cache starts empty, and
    random embedding tables: ``(graph, split, H_user, H_item)``."""
    graph, _, _ = small_planted
    split = split_leave_one_out(graph.interactions(), derive_rng(11, "split"))
    rng = np.random.default_rng(4)
    H_user = rng.normal(size=(graph.type_count("User"), 8))
    H_item = rng.normal(size=(graph.type_count("Movie"), 8))
    return graph, split, H_user, H_item


def reference_sample_negatives(split, user, count, rng):
    interacted = split.user_items.get(int(user), np.empty(0, dtype=np.int64))
    pool = np.setdiff1d(split.item_ids, interacted, assume_unique=True)
    if len(pool) < count:
        return pool
    return rng.choice(pool, size=count, replace=False)


def hand_split(user_items, item_ids):
    """A split with only profiles and an item universe, built without :func:`split_leave_one_out`."""
    none = np.empty((0, 2), dtype=np.int64)
    profiles = {u: np.asarray(items, dtype=np.int64) for u, items in user_items.items()}
    return evaluation.SplitSet(none, none, none, profiles, np.asarray(item_ids, dtype=np.int64))


@pytest.mark.parametrize("count", [0, 3, 100, 10_000])  # 100 exceeds the hand pools, 10,000 every pool
def test_sample_negatives_matches_setdiff1d_pool(fresh_split, count):
    _, split, _, _ = fresh_split
    hand = hand_split(
        # 1 has every item (an empty pool); 2 and 4 hold items outside item_ids; 5 has no profile.
        {0: [10, 12, 14], 1: [10, 11, 12, 13, 14], 2: [12, 99], 3: [], 4: [9, 11]},
        [10, 11, 12, 13, 14],
    )
    # One negative_pools pass per split, as SplitSet.candidates makes, over every case's user.
    for which, users in ((split, sorted(split.user_items)[:50]), (hand, list(range(6)))):
        pools = list(evaluation.negative_pools(which, users))
        assert len(pools) == len(users)
        for u, pool in zip(users, pools):
            rng_fast, rng_ref = derive_rng(u, "pool"), derive_rng(u, "pool")
            fast = evaluation.sample_negatives(pool, count, rng_fast)
            ref = reference_sample_negatives(which, u, count, rng_ref)
            assert fast.dtype == ref.dtype and fast.tobytes() == ref.tobytes(), (u, count)
            assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
    assert [len(pool) for pool in evaluation.negative_pools(hand, [1, 3])] == [0, 5]
    assert list(evaluation.negative_pools(hand, [])) == []


def test_candidates_built_once_per_key(monkeypatch, fresh_split):
    graph, split, H_user, H_item = fresh_split
    scorer = embedding_scorer(graph, H_user, H_item)
    calls = Counter()
    original = evaluation.sample_negatives

    def counting(pool, count, rng):
        calls[count] += 1
        return original(pool, count, rng)

    monkeypatch.setattr(evaluation, "sample_negatives", counting)
    n_val = len(split.validation)
    for _ in range(3):
        evaluation.evaluate(scorer, split, "validation", (10,), seed=0, n_negatives=20)
    assert calls == {20: n_val}
    evaluation.evaluate(scorer, split, "validation", (10,), seed=0, n_negatives=30)
    evaluation.evaluate(scorer, split, "validation", (10,), seed=1, n_negatives=20)
    evaluation.evaluate(scorer, split, "test", (10,), seed=0, n_negatives=20)
    assert calls == {20: n_val + n_val + len(split.test), 30: n_val}
    cand = split.candidates("validation", 0, 20)
    assert cand is split.candidates("validation", 0, 20)
    assert len(cand) == n_val
    np.testing.assert_array_equal(cand.users[cand.starts], sorted(split.held_out("validation")))
    np.testing.assert_array_equal(cand.items[cand.starts], [split.held_out("validation")[u] for u in cand.users[cand.starts]])
    np.testing.assert_array_equal(np.diff(np.append(cand.starts, len(cand.items))), 21)
    assert all(not arr.flags.writeable for arr in (cand.users, cand.items, cand.starts))


@pytest.mark.parametrize("which", ["validation", "test"])
@pytest.mark.parametrize("n_negatives", [5, 99, 10_000])  # 10,000 exceeds the catalog: ragged rows
def test_cached_candidates_match_uncached_reference(fresh_split, which, n_negatives):
    """Metrics equal the per-user ranking of freshly drawn rows, scored one user at a time."""
    graph, split, H_user, H_item = fresh_split
    scorer = embedding_scorer(graph, H_user, H_item)
    ks = (1, 10, 50)
    for seed in (0, 3):
        ref = reference_evaluate(reference_embedding_scorer(graph, H_user, H_item), split, which, ks, seed, n_negatives)
        assert evaluation.evaluate(scorer, split, which, ks, seed, n_negatives) == ref
        assert evaluation.evaluate(scorer, split, which, ks, seed, n_negatives) == ref  # from the cache


@pytest.mark.parametrize("n_negatives", [5, 20])
def test_equal_item_rows_tie_against_the_positive(fresh_split, n_negatives):
    graph, split, _, _ = fresh_split
    # Small integers score exactly, so every candidate's score is the same.
    H_user = np.random.default_rng(5).integers(-3, 4, size=(graph.type_count("User"), 8)).astype(np.float64)
    H_item = np.ones((graph.type_count("Movie"), 8))
    whole = n_negatives + 1
    ks = (1, n_negatives, whole)
    got = evaluation.evaluate(embedding_scorer(graph, H_user, H_item), split, "validation", ks, 0, n_negatives)
    assert got.hr == {1: 0.0, n_negatives: 0.0, whole: 1.0}
    assert got.ndcg[whole] == pytest.approx(1.0 / np.log2(whole + 1), rel=1e-15)
    assert got == reference_evaluate(reference_embedding_scorer(graph, H_user, H_item), split, "validation", ks, 0, n_negatives)


@pytest.mark.parametrize("n_movies, n_users, ids", [(100, 40, np.uint8), (1000, 80, np.uint16)])
def test_narrow_candidates_when_items_are_declared_first(n_movies, n_users, ids):
    """Movies before users, so the user offset is positive and the item offset 0.

    The narrow ids are unsigned, and a local user index times ``n_items``
    overflows their dtype (39 x 100 > 255, 79 x 1,000 > 65,535), so the flat
    position is only right when it is built in int64 before the offset is
    subtracted; the metrics must equal the per-user reference."""
    schema = HinSchema.parse("node_types: Movie, User\nwatch: User -> Movie ~ watched\ninteraction_relation: watch")
    rng = np.random.default_rng(n_movies)
    nodes = [(f"M{k}", "Movie") for k in range(n_movies)] + [(f"U{k}", "User") for k in range(n_users)]
    edges = [(f"U{u}", "watch", f"M{m}") for u in range(n_users)
             for m in rng.choice(n_movies, size=int(rng.integers(3, 12)), replace=False)]
    graph = graph_from(schema, nodes, edges)
    u_off, i_off = (int(graph.type_offsets[schema.type_index(t)]) for t in (schema.user_type, schema.item_type))
    assert (u_off, i_off) == (n_movies, 0)
    split = split_leave_one_out(graph.interactions(), derive_rng(2, "split"))
    H_user, H_item = rng.normal(size=(n_users, 8)), rng.normal(size=(n_movies, 8))
    cand = split.candidates("validation", 0, 50)
    assert cand.users.dtype == cand.items.dtype == ids and cand.starts.dtype == np.int64
    assert len(cand) == n_users and int(cand.users.max()) == n_movies + n_users - 1
    ks = (1, 10, 50)
    got = evaluation.evaluate(embedding_scorer(graph, H_user, H_item), split, "validation", ks, 0, 50)
    assert got == reference_evaluate(reference_embedding_scorer(graph, H_user, H_item), split, "validation", ks, 0, 50)


def test_scorer_rejects_ids_outside_their_type(fresh_split):
    """User 0 against the first Actor: its flat position lies inside the product, so only a range check catches it."""
    graph, _, H_user, H_item = fresh_split
    user, movie, actor = (int(graph.type_offsets[graph.schema.type_index(t)]) for t in ("User", "Movie", "Actor"))
    scorer = embedding_scorer(graph, H_user, H_item)
    assert (user * len(H_item) + actor - movie) < H_user.shape[0] * len(H_item)
    with pytest.raises(IndexError, match=r"item ids .* outside"):
        scorer(np.array([user, user], dtype=np.uint16), np.array([movie, actor], dtype=np.uint16))


def test_reduced_negative_pool_warns_once_per_draw(caplog, fresh_split):
    _, split, _, _ = fresh_split
    with caplog.at_level(logging.WARNING, logger="hinrec.evaluation"):
        cand = split.candidates("validation", 0, 10_000)
        split.candidates("validation", 0, 10_000)  # from the cache: no second record
    pools = np.diff(np.append(cand.starts, len(cand.items))) - 1
    assert [r.levelno for r in caplog.records] == [logging.WARNING]
    assert caplog.records[0].getMessage() == (
        f"validation: negative pool reduced for {len(cand)} of {len(cand)} users, "
        f"to {pools.min()}-{pools.max()} items"
    )


def test_full_negative_pool_does_not_warn(caplog, fresh_split):
    _, split, _, _ = fresh_split
    with caplog.at_level(logging.WARNING, logger="hinrec.evaluation"):
        split.candidates("test", 0, 20)
    assert caplog.records == []


# ---------------------------------------------------------------------------
# Data set-up: synth, loader and split against their per-row references
# ---------------------------------------------------------------------------


def assert_same_graph(a, b):
    assert a.node_names == b.node_names
    assert a.type_offsets.dtype == b.type_offsets.dtype and a.type_offsets.tobytes() == b.type_offsets.tobytes()
    for rel in a.schema.relations:
        for x, y in zip(a.adjacency(rel.rid), b.adjacency(rel.rid)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), rel.name


def assert_same_split(split, ref):
    train, validation, test, user_items, item_ids = ref
    for got, want in ((split.train, train), (split.validation, validation), (split.test, test),
                      (split.item_ids, item_ids)):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes()
    assert list(split.user_items) == list(user_items)
    for u, items in user_items.items():
        assert split.user_items[u].dtype == items.dtype and split.user_items[u].tobytes() == items.tobytes()


@pytest.mark.parametrize("profile", sorted(synth.PROFILES))
@pytest.mark.parametrize("seed", range(1, 6))
def test_setup_matches_per_row_references(tmp_path, profile, seed):
    synth.write_dataset(tmp_path, profile, seed)
    nodes_text, edges_text = reference_ops.synth_tsvs(synth.PROFILES[profile], derive_rng(seed, "synth", profile))
    assert (tmp_path / "nodes.tsv").read_bytes() == nodes_text.encode("utf-8")
    assert (tmp_path / "edges.tsv").read_bytes() == edges_text.encode("utf-8")

    nodes, edges = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    schema = HinSchema.from_file(tmp_path / "schema.txt")
    graph = load_graph(nodes, edges, schema)
    assert_same_graph(graph, HinGraph.from_edges(schema, *reference_ops.load_tsvs(nodes, edges, schema)))

    for run_seed in range(3):
        rng, rng_ref = derive_rng(run_seed, "split"), derive_rng(run_seed, "split")
        split = split_leave_one_out(graph.interactions(), rng)
        assert_same_split(split, reference_ops.split_leave_one_out(graph.interactions().pairs, rng_ref))
        assert rng.bit_generator.state == rng_ref.bit_generator.state


@pytest.mark.parametrize(
    "sizes",
    [[1], [2], [3], [40], [1, 2], [2, 1, 2], [1, 2, 3, 40], [3, 3, 3], [40, 1, 7, 2, 3, 1, 12]],
    ids=lambda sizes: "-".join(map(str, sizes)),
)
@pytest.mark.parametrize("seed", [0, 1])
def test_split_matches_per_user_loop_on_hand_sets(sizes, seed):
    """Users holding 1, 2, 3 and many interactions, with gaps in the user and item ids."""
    rng = np.random.default_rng(seed)
    pairs = [(3 * u + 1, int(i)) for u, n in enumerate(sizes) for i in rng.choice(100, size=n, replace=False) + 5]
    interactions = InteractionSet(1, np.asarray(pairs))
    split_rng, ref_rng = derive_rng(seed, "split"), derive_rng(seed, "split")
    split = split_leave_one_out(interactions, split_rng)
    assert_same_split(split, reference_ops.split_leave_one_out(interactions.pairs, ref_rng))
    assert split_rng.bit_generator.state == ref_rng.bit_generator.state
    assert len(split.validation) == sum(n >= 3 for n in sizes)


# Values a mutated node or edge field takes: unknown ones, and known ones in the wrong place.
FIELD_VALUES = (["Alien", "User", "Actor", "Movie", "zz9"], ["zz9", "kiss", "act", "watch", "acted", "u0001", "m0002"])
LAYOUT_LINES = ["", "   ", "\t", "  # indented", "#"]


def mutate_dataset(nodes_text, edges_text, rng):
    """The planted TSVs with one to three random faults or layout changes, as bytes."""
    files = [nodes_text.split("\n"), edges_text.split("\n")]
    for _ in range(int(rng.integers(1, 4))):
        which = int(rng.random() < 0.5)
        lines, values = files[which], FIELD_VALUES[which]
        k = int(rng.integers(1, len(lines) - 1))
        fields = lines[k].split("\t")
        kind = int(rng.integers(0, 5))
        if kind == 0:  # one field replaced
            fields[int(rng.integers(0, len(fields)))] = values[int(rng.integers(0, len(values)))]
            lines[k] = "\t".join(fields)
        elif kind == 1:  # a field too few or too many
            lines[k] = "\t".join(fields[:-1] if rng.random() < 0.5 else fields + ["extra"])
        elif kind == 2:  # first and last fields swapped
            lines[k] = "\t".join(fields[-1:] + fields[1:-1] + fields[:1])
        elif kind == 3:  # the line again further down, as is or with its last field replaced
            if rng.random() < 0.5:
                fields[-1] = values[int(rng.integers(0, len(values)))]
            lines.insert(int(rng.integers(k + 1, len(lines))), "\t".join(fields))
        else:
            lines.insert(k, LAYOUT_LINES[int(rng.integers(0, len(LAYOUT_LINES)))])
    out = []
    for lines in files:
        text = "\n".join(lines)
        if rng.random() < 0.2:
            text = text.rstrip("\n")
        if rng.random() < 0.2:
            text = text.replace("\n", "\r\n")
        out.append(text.encode("utf-8"))
    return tuple(out)


@pytest.mark.parametrize("seed", range(60))
def test_loader_matches_per_line_reference_on_faulty_files(tmp_path, small_planted, seed):
    """The first fault, or the graph when a file is only re-laid out, equals the per-line loader's."""
    graph, _, _ = small_planted
    schema = graph.schema
    (tmp_path / "clean").mkdir()
    synth.write_dataset(tmp_path / "clean", "planted-mam-small", 11)
    nodes_bytes, edges_bytes = mutate_dataset(
        (tmp_path / "clean" / "nodes.tsv").read_text(encoding="utf-8"),
        (tmp_path / "clean" / "edges.tsv").read_text(encoding="utf-8"),
        np.random.default_rng(seed),
    )
    nodes, edges = tmp_path / "nodes.tsv", tmp_path / "edges.tsv"
    nodes.write_bytes(nodes_bytes)
    edges.write_bytes(edges_bytes)
    try:
        ref = HinGraph.from_edges(schema, *reference_ops.load_tsvs(nodes, edges, schema))
    except reference_ops.LoadError as exc:
        with pytest.raises(GraphLoadError) as err:
            load_graph(nodes, edges, schema)
        assert (err.value.path, err.value.line_no, str(err.value)) == (exc.path, exc.line_no, str(exc))
    else:
        assert_same_graph(load_graph(nodes, edges, schema), ref)


# ---------------------------------------------------------------------------
# End to end: train then eval, references against production
# ---------------------------------------------------------------------------


def train_then_eval(dataset, config, out):
    common = ["--dataset", str(dataset), "--config", str(config), "--seed", "0", "--out", str(out)]
    assert cli.main(["train", "--sets", str(config.parent / "sets.json"), *common]) == 0
    assert cli.main(["eval", "--checkpoint", str(out / "model.ckpt"), "--split", "test", *common]) == 0
    return {name: (out / name).read_bytes() for name in ("model.ckpt", "history.jsonl", "metrics.jsonl")}


def random_search(dataset, config, out):
    """``search --strategy random --iter-limit 8``: sets.json and trace.jsonl without wall-clock fields."""
    args = ["--dataset", str(dataset), "--config", str(config), "--seed", "0", "--out", str(out)]
    assert cli.main(["search", "--strategy", "random", "--iter-limit", "8", *args]) == 0
    return strip_volatile([read_json(out / "sets.json"), list(read_jsonl(out / "trace.jsonl"))])


def test_train_and_eval_outputs_match_reference_paths(monkeypatch, tmp_path):
    dataset = tmp_path / "data"
    assert cli.main(["synth", "--profile", "planted-mam-small", "--seed", "1", "--out", str(dataset)]) == 0
    (tmp_path / "sets.json").write_text(
        '{"user_set": {"paths": [{"relations": [1, 2]}, {"relations": [1, 4, 3, 2]}]},'
        ' "item_set": {"paths": [{"relations": [2, 1]}, {"relations": [4, 3]}]}}'
    )
    config = tmp_path / "run.cfg"
    config.write_text("rec_epochs = 2\n")
    fast = train_then_eval(dataset, config, tmp_path / "fast")
    fast_search = random_search(dataset, config, tmp_path / "fast-search")

    used = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            used[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def reference_bits(pairs, n_users, n_items):
        # The per-user item lists the reference draw takes where production takes the bit table.
        return reference_ops.per_user_items(pairs, n_users)

    monkeypatch.setattr(recommender, "positive_bits", counted("bits", reference_bits))
    monkeypatch.setattr(recommender, "draw_negatives", counted("draw", reference_ops.draw_negatives))
    monkeypatch.setattr(recommender, "mf_pretrain", counted("mf", reference_ops.mf_pretrain))
    monkeypatch.setattr(Tape, "gather", counted("gather", reference_gather))
    monkeypatch.setattr(
        evaluation, "evaluate", counted("evaluate", lambda scorer, *a: reference_evaluate(per_user(scorer), *a))
    )
    monkeypatch.setattr(Var, "accumulate", counted("accumulate", reference_accumulate))
    monkeypatch.setattr(metapath, "materialize_subgraph", counted("materialize", reference_materialize_subgraph))
    ref = train_then_eval(dataset, config, tmp_path / "ref")
    used_by_train = used.copy()
    ref_search = random_search(dataset, config, tmp_path / "ref-search")

    assert set(used_by_train) == {
        "bits", "draw", "mf", "gather", "evaluate", "accumulate", "materialize",
    }
    assert used["materialize"] > used_by_train["materialize"]
    assert used["mf"] > used_by_train["mf"]  # the search's probe starts from the reference MF too
    for name in fast:
        assert fast[name] == ref[name], name
    assert fast_search == ref_search
