import weakref
from dataclasses import replace

import numpy as np
import pytest

from hinrec import metapath as mp
from hinrec import recommender
from hinrec.autodiff import Tape, Var
from hinrec.checkpoint import CheckpointError, load_arrays, save_arrays
from hinrec.config import RunConfig
from hinrec.recommender import (
    ARCH_FIELDS,
    CHECKPOINT_FORMAT,
    AllPathsRejected,
    HRecModel,
    _side_forward,
    bpr_loss_var,
    build_side,
    draw_negatives,
    forward,
    infer_embeddings,
    mf_pretrain,
    positive_bits,
    sample_views,
    train,
)
from hinrec.util import derive_rng

from conftest import WATCH, WATCHED, ACT, ACTED, graph_from
from reference_ops import bpr_loss, node_attention, path_attention, project, score


def density_filter(graph, threshold):
    """``build_side``'s materializer: the path's subgraph, or None above ``threshold``."""
    return lambda path: mp.materialize_subgraph(graph, path, threshold)


def views_and_rng(model, rng):
    """``forward``'s last three arguments: both sides' views at the model's fanout, drawn from ``rng``,
    then ``rng`` itself for the dropout masks."""
    return [*(sample_views(side, model.cfg.fanout, rng) for side in (model.user_side, model.item_side)), rng]


# ``forward``'s dropout generator for the tiny model, whose dropout of 0 draws nothing from it.
NO_DROPOUT = np.random.default_rng(0)


def rising(model, epoch):
    """An evaluator under which every epoch improves: training runs them all and keeps the last."""
    return float(epoch)


def glorot_init(rng, user_side, item_side, d):
    """Glorot-uniform user and item tables: an embedding init for models that need no MF."""
    return tuple(
        rng.uniform(-np.sqrt(6.0 / (side.m + d)), np.sqrt(6.0 / (side.m + d)), size=(side.m, d))
        for side in (user_side, item_side)
    )


# The tiny model's graph: 4 users, 4 movies, 2 actors and a director.
TINY_NODES = (
    [(f"U{k}", "User") for k in range(4)]
    + [(f"M{k}", "Movie") for k in range(4)]
    + [("A0", "Actor"), ("A1", "Actor"), ("D0", "Director")]
)
TINY_EDGES = [
    ("U0", "watch", "M0"), ("U0", "watch", "M1"),
    ("U1", "watch", "M1"), ("U1", "watch", "M2"),
    ("U2", "watch", "M2"), ("U2", "watch", "M3"),
    ("U3", "watch", "M0"), ("U3", "watch", "M3"),
    ("A0", "act", "M0"), ("A0", "act", "M1"),
    ("A1", "act", "M2"), ("A1", "act", "M3"),
    ("D0", "direct", "M0"), ("D0", "direct", "M2"),
]


@pytest.fixture
def tiny_model(movie_schema):
    """The tiny graph with two paths per side; small dims for FD checks."""
    graph = graph_from(movie_schema, TINY_NODES, TINY_EDGES)
    user_set = mp.MetaPathSet(
        (
            mp.MetaPath.from_relations(movie_schema, [WATCH, WATCHED]),
            mp.MetaPath.from_relations(movie_schema, [WATCH, ACTED, ACT, WATCHED]),
        ),
        mp.USER_SYMMETRIC,
        movie_schema,
    )
    item_set = mp.MetaPathSet(
        (
            mp.MetaPath.from_relations(movie_schema, [WATCHED, WATCH]),
            mp.MetaPath.from_relations(movie_schema, [ACTED, ACT]),
        ),
        mp.ITEM_SYMMETRIC,
        movie_schema,
    )
    cfg = RunConfig(embed_dim=5, att_hidden=4, dropout=0.0, fanout=16, rec_lr=0.05, rec_batch=8)
    user_side = build_side(graph, user_set, density_filter(graph, None))
    item_side = build_side(graph, item_set, density_filter(graph, None))
    rng = derive_rng(0, "tiny-model")
    return HRecModel(graph, user_side, item_side, cfg, rng, glorot_init(rng, user_side, item_side, cfg.embed_dim))


class TestReferenceOps:
    def test_project_identity_and_zero(self):
        x = np.asarray([1.0, -2.0, 3.0])
        np.testing.assert_allclose(project(np.eye(3), x), x)
        np.testing.assert_allclose(project(np.zeros((3, 3)), x), 0.0)

    def test_project_basis_vector(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(3, 3))
        e1 = np.asarray([1.0, 0.0, 0.0])
        np.testing.assert_allclose(project(W, e1), W[:, 0])

    def test_node_attention_singleton(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=6)
        z_i = rng.normal(size=3)
        z_j = rng.normal(size=3)
        alpha, h = node_attention(a, z_i, [(7, z_j)])
        np.testing.assert_allclose(alpha, [1.0])
        expected = np.where(z_j >= 0, z_j, np.expm1(z_j))
        np.testing.assert_allclose(h, expected)

    def test_node_attention_identical_neighbors_split_evenly(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=6)
        z_i = rng.normal(size=3)
        z_j = rng.normal(size=3)
        alpha, _ = node_attention(a, z_i, [(0, z_j), (1, z_j.copy())])
        np.testing.assert_allclose(alpha, [0.5, 0.5])

    def test_node_attention_closed_form_softmax(self):
        # a picks the first coordinate of z_j, so raw scores are (1, 0).
        a = np.zeros(6)
        a[3] = 1.0
        z_i = np.zeros(3)
        z1 = np.asarray([1.0, 0.0, 0.0])
        z0 = np.zeros(3)
        alpha, _ = node_attention(a, z_i, [(0, z1), (1, z0)])
        e = np.e
        np.testing.assert_allclose(alpha, [e / (e + 1), 1 / (e + 1)], atol=1e-12)

    def test_node_attention_alpha_sums_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            n = int(rng.integers(1, 7))
            a = rng.normal(size=2 * d)
            alpha, _ = node_attention(a, rng.normal(size=d), [(k, rng.normal(size=d)) for k in range(n)])
            assert abs(alpha.sum() - 1.0) < 1e-9

    def test_node_attention_direction_asymmetry(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=6)
        z1, z2 = rng.normal(size=3), rng.normal(size=3)
        e12, _ = node_attention(a, z1, [(0, z2), (1, z1)])
        e21, _ = node_attention(a, z2, [(0, z1), (1, z2)])
        assert not np.allclose(e12, e21)

    def test_path_attention_singleton(self):
        rng = np.random.default_rng(5)
        H = rng.normal(size=(4, 3))
        beta, fused = path_attention(rng.normal(size=(3, 2)), rng.normal(size=2), [rng.normal(size=2)], [H])
        np.testing.assert_allclose(beta, [1.0])
        np.testing.assert_allclose(fused, H)

    def test_path_attention_identical_paths_split_evenly(self):
        rng = np.random.default_rng(6)
        H = rng.normal(size=(4, 3))
        q = rng.normal(size=2)
        W, b = rng.normal(size=(3, 2)), rng.normal(size=2)
        beta, fused = path_attention(W, b, [q, q.copy()], [H, H.copy()])
        np.testing.assert_allclose(beta, [0.5, 0.5])
        np.testing.assert_allclose(fused, H)

    def test_path_attention_shift_invariance(self):
        # W = 0 makes tanh(b) constant per node, so adding the same query
        # offset u adds one constant to every w_x: beta must not move.
        rng = np.random.default_rng(7)
        W = np.zeros((3, 2))
        b = rng.normal(size=2)
        H_list = [rng.normal(size=(5, 3)) for _ in range(3)]
        queries = [rng.normal(size=2) for _ in range(3)]
        u = rng.normal(size=2)
        beta1, _ = path_attention(W, b, queries, H_list)
        beta2, _ = path_attention(W, b, [q + u for q in queries], H_list)
        np.testing.assert_allclose(beta1, beta2, atol=1e-12)

    def test_path_attention_beta_sums_to_one(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            d, hid = int(rng.integers(2, 5)), int(rng.integers(2, 5))
            X = int(rng.integers(1, 5))
            beta, _ = path_attention(
                rng.normal(size=(d, hid)),
                rng.normal(size=hid),
                [rng.normal(size=hid) for _ in range(X)],
                [rng.normal(size=(3, d)) for _ in range(X)],
            )
            assert abs(beta.sum() - 1.0) < 1e-9

    def test_path_attention_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        W, b = rng.normal(size=(3, 2)), rng.normal(size=2)
        H_list = [rng.normal(size=(4, 3)) for _ in range(3)]
        queries = [rng.normal(size=2) for _ in range(3)]
        beta, fused = path_attention(W, b, queries, H_list)
        perm = [2, 0, 1]
        beta_p, fused_p = path_attention(W, b, [queries[p] for p in perm], [H_list[p] for p in perm])
        np.testing.assert_allclose(beta_p, beta[perm], atol=1e-12)
        np.testing.assert_allclose(fused_p, fused, atol=1e-12)

    def test_score_cases(self):
        e1 = np.asarray([1.0, 0.0])
        e2 = np.asarray([0.0, 1.0])
        assert score(e1, e1) == pytest.approx(1.0)
        assert score(e1, e2) == pytest.approx(0.0)
        assert score(2 * e1, e1) == pytest.approx(2.0)
        assert score(e1, e2) == score(e2, e1)

    def test_bpr_loss_values(self):
        assert bpr_loss([(1.0, 1.0)]) == pytest.approx(np.log(2.0), abs=1e-12)
        assert bpr_loss([(100.0, 0.0)]) == pytest.approx(0.0, abs=1e-12)
        assert bpr_loss([(0.0, 100.0)]) == pytest.approx(100.0, rel=1e-9)


class TestMF:
    def test_diagonal_preference_learned(self):
        # Oracle: after training, each user must rank their own item first;
        # the property holds across 10 seeds.
        pairs = np.asarray([[0, 0], [1, 1]])
        for seed in range(10):
            P, Q = mf_pretrain(pairs, 2, 2, d=8, epochs=200, lr=0.05, rng=derive_rng(seed, "mf"))
            assert P[0] @ Q[0] > P[0] @ Q[1]
            assert P[1] @ Q[1] > P[1] @ Q[0]

    def test_zero_epochs_returns_random_init(self):
        pairs = np.asarray([[0, 0]])
        rng1, rng2 = derive_rng(1, "a"), derive_rng(1, "a")
        P0, Q0 = mf_pretrain(pairs, 2, 2, 4, epochs=0, lr=0.1, rng=rng1)
        P1 = rng2.normal(0.0, 0.1, size=(2, 4))
        Q1 = rng2.normal(0.0, 0.1, size=(2, 4))
        np.testing.assert_allclose(P0, P1)
        np.testing.assert_allclose(Q0, Q1)

    def test_loss_decreases(self, small_planted):
        graph, split, _ = small_planted
        pairs = split.train_local(graph)
        n_u = graph.type_count("User")
        n_i = graph.type_count("Movie")

        def loss(P, Q, rng):
            j = draw_negatives(pairs[:, 0], positive_bits(pairs, n_u, n_i), n_i, rng)
            return bpr_loss(list(zip(np.sum(P[pairs[:, 0]] * Q[pairs[:, 1]], 1),
                                     np.sum(P[pairs[:, 0]] * Q[j], 1))))

        P0, Q0 = mf_pretrain(pairs, n_u, n_i, 8, epochs=0, lr=0.05, rng=derive_rng(3, "mf"))
        P1, Q1 = mf_pretrain(pairs, n_u, n_i, 8, epochs=25, lr=0.05, rng=derive_rng(3, "mf"))
        rng = derive_rng(0, "loss-eval")
        l0 = loss(P0, Q0, derive_rng(0, "neg"))
        l1 = loss(P1, Q1, derive_rng(0, "neg"))
        assert np.isfinite(l1)
        assert l1 < l0

    def test_deterministic(self):
        pairs = np.asarray([[0, 0], [1, 1], [0, 1]])
        a = mf_pretrain(pairs, 2, 3, 4, 10, 0.05, derive_rng(9, "mf"))
        b = mf_pretrain(pairs, 2, 3, 4, 10, 0.05, derive_rng(9, "mf"))
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])


class TestBuildSide:
    def test_all_rejected_raises(self, movie_schema):
        g = graph_from(
            movie_schema,
            [("U1", "User"), ("U2", "User"), ("U3", "User"), ("M1", "Movie")],
            [(f"U{k}", "watch", "M1") for k in (1, 2, 3)],
        )
        umu = mp.MetaPathSet(
            (mp.MetaPath.from_relations(movie_schema, [WATCH, WATCHED]),), mp.USER_SYMMETRIC, movie_schema
        )
        with pytest.raises(AllPathsRejected):
            build_side(g, umu, density_filter(g, 0.5))

    def test_partial_rejection_keeps_survivors(self, movie_schema):
        # All users co-watch M1 (UMU complete, density 1.0) but only M2 has
        # an actor, so UMAMU connects nobody except U1 to itself.
        g = graph_from(
            movie_schema,
            [("U1", "User"), ("U2", "User"), ("U3", "User"),
             ("M1", "Movie"), ("M2", "Movie"), ("A0", "Actor")],
            [(f"U{k}", "watch", "M1") for k in (1, 2, 3)]
            + [("U1", "watch", "M2"), ("A0", "act", "M2")],
        )
        dense_umu = mp.MetaPath.from_relations(movie_schema, [WATCH, WATCHED])
        sparse = mp.MetaPath.from_relations(movie_schema, [WATCH, ACTED, ACT, WATCHED])
        pset = mp.MetaPathSet((dense_umu, sparse), mp.USER_SYMMETRIC, movie_schema)
        side = build_side(g, pset, density_filter(g, 0.99))
        assert side.pset.labels() == ["UMAMU"]


class TestForward:
    def test_gradients_match_finite_differences(self, tiny_model):
        model = tiny_model
        views_u = sample_views(model.user_side, 16, derive_rng(0, "vu"))
        views_i = sample_views(model.item_side, 16, derive_rng(0, "vi"))
        bu = np.asarray([0, 1, 2])
        bi = np.asarray([0, 1, 2])
        bj = np.asarray([3, 2, 0])

        def loss_value():
            fp = forward(model, bu, bi, bj, views_u, views_i, NO_DROPOUT)
            return float(bpr_loss_var(fp.tape, fp.ypos, fp.yneg).value)

        fp = forward(model, bu, bi, bj, views_u, views_i, NO_DROPOUT)
        loss = bpr_loss_var(fp.tape, fp.ypos, fp.yneg)
        fp.tape.backward(loss)
        grads = {k: (v.grad.copy() if v.grad is not None else np.zeros_like(v.value)) for k, v in model.params.items()}

        h = 1e-5
        worst = 0.0
        for name, var in model.params.items():
            flat = var.value.ravel()
            fd = np.zeros_like(flat)
            for k in range(flat.size):
                orig = flat[k]
                flat[k] = orig + h
                up = loss_value()
                flat[k] = orig - h
                down = loss_value()
                flat[k] = orig
                fd[k] = (up - down) / (2 * h)
            got = grads[name].ravel()
            err = np.abs(got - fd) / np.maximum(1.0, np.abs(fd))
            worst = max(worst, float(err.max()))
            assert err.max() < 1e-4, f"{name}: max rel err {err.max():.2e}"
        assert worst < 1e-4

    def test_consuming_backward_keeps_parameter_gradients(self, tiny_model, monkeypatch):
        """Parameter gradients are byte-equal to a backward that frees nothing."""

        def keeping_backward(tape, out):
            out.grad = np.ones_like(out.value)
            for var, back in reversed(tape._steps):
                if var.grad is not None:
                    back(var.grad)

        def param_grads():
            tiny_model.zero_grad()
            fp = forward(
                tiny_model, np.asarray([0, 1, 2, 3]), np.asarray([1, 2, 3, 0]), np.asarray([2, 3, 0, 1]),
                *views_and_rng(tiny_model, derive_rng(8, "fwd")),
            )
            fp.tape.backward(bpr_loss_var(fp.tape, fp.ypos, fp.yneg))
            return {k: v.grad.tobytes() for k, v in tiny_model.params.items()}

        consumed = param_grads()
        monkeypatch.setattr(Tape, "backward", keeping_backward)
        assert consumed == param_grads()

    def test_deterministic_outputs(self, tiny_model):
        model = tiny_model
        out = []
        for _ in range(2):
            fp = forward(
                model, np.asarray([0, 1]), np.asarray([1, 2]), np.asarray([3, 0]),
                *views_and_rng(model, derive_rng(4, "fwd")),
            )
            out.append(fp.ypos.copy() if isinstance(fp.ypos, np.ndarray) else fp.ypos.value.copy())
        np.testing.assert_array_equal(out[0], out[1])

    def test_degenerate_negative_gives_ln2(self, tiny_model):
        model = tiny_model
        fp = forward(
            model, np.asarray([0]), np.asarray([1]), np.asarray([1]),
            *views_and_rng(model, derive_rng(5, "fwd")),
        )
        loss = bpr_loss_var(fp.tape, fp.ypos, fp.yneg)
        assert float(loss.value) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_betas_sum_to_one(self, tiny_model):
        fp = forward(
            tiny_model, np.asarray([0]), np.asarray([0]), np.asarray([1]),
            *views_and_rng(tiny_model, derive_rng(6, "fwd")),
        )
        assert fp.beta_user.sum() == pytest.approx(1.0, abs=1e-9)
        assert fp.beta_item.sum() == pytest.approx(1.0, abs=1e-9)

    def test_infer_matches_tape_forward(self, tiny_model):
        """Inference tables, scored row by row, equal the tape forward on the same views."""
        model = tiny_model
        H_u, H_i = infer_embeddings(model, 7, "eval")
        views_u = sample_views(model.user_side, model.cfg.fanout, derive_rng(7, "eval", "user-views"))
        views_i = sample_views(model.item_side, model.cfg.fanout, derive_rng(7, "eval", "item-views"))
        fp = forward(
            model, np.arange(4), np.arange(4), np.asarray([3, 2, 1, 0]),
            views_u, views_i, NO_DROPOUT,
        )
        np.testing.assert_allclose(np.sum(H_u * H_i, axis=1), fp.ypos.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.sum(H_u * H_i[::-1], axis=1), fp.yneg.value, rtol=0, atol=1e-12)

    def test_node_attention_reference_matches_batched(self, tiny_model):
        """Per-node reference attention, fused by reference path attention, equals the tape pass."""
        model = tiny_model
        for tag, side in (("user", model.user_side), ("item", model.item_side)):
            views = sample_views(side, 16, derive_rng(3, "v", tag))
            fused, beta = _side_forward(Tape(), model, tag, side, views, None)

            Z = model.params[f"{tag}_emb"].value @ model.params[f"proj.{side.node_type}"].value
            tables = []
            for k, view in enumerate(views):
                a = model.params[f"natt.{tag}.{k}"].value
                rows = []
                for v in range(side.m):
                    neigh = view.dst[view.indptr[v] : view.indptr[v + 1]]
                    _, h = node_attention(a, Z[v], [(int(j), Z[j]) for j in neigh])
                    rows.append(h)
                tables.append(np.stack(rows))
            queries = [model.params[f"q.{tag}.{k}"].value for k in range(len(views))]
            ref_beta, ref_fused = path_attention(
                model.params[f"fuse.{tag}.W"].value, model.params[f"fuse.{tag}.b"].value, queries, tables
            )
            np.testing.assert_allclose(beta.value, ref_beta, rtol=0, atol=1e-12)
            np.testing.assert_allclose(fused.value, ref_fused, rtol=0, atol=1e-12)


class TestTraining:
    def test_projections_start_at_identity(self, tiny_model):
        d = tiny_model.cfg.embed_dim
        for node_type in ("User", "Movie"):
            np.testing.assert_array_equal(tiny_model.params[f"proj.{node_type}"].value, np.eye(d))

    def test_adam_first_two_steps_on_a_quadratic(self, tiny_model):
        """f(x) = (x0^2 + 4 x1^2) / 2 from x = (3, -0.5) at lr 0.1, gradient (x0, 4 x1).

        Step 1: the bias-corrected moments are g and g^2, so each coordinate
        moves by lr * g / (|g| + 1e-8): x = (2.9000000003333, -0.4000000005).
        Step 2: m = 0.09 g1 + 0.1 g2 and v = 0.000999 g1^2 + 0.001 g2^2,
        corrected by 1 - 0.9^2 = 0.19 and 1 - 0.999^2 = 0.001999, give
        x = (2.8001027077506, -0.3011874206234) (40-digit decimal arithmetic).
        """
        model = tiny_model
        x = Var(np.asarray([3.0, -0.5]))
        model.params = {"x": x}
        expected = [
            [2.900000000333333332222, -0.400000000499999997500],
            [2.800102707750551155627, -0.301187420623429340148],
        ]
        for want in expected:
            x.grad = np.asarray([1.0, 4.0]) * x.value
            model.adam_step(0.1)
            np.testing.assert_allclose(x.value, want, rtol=1e-14, atol=0)
        assert model.adam_steps == 2

    def test_fresh_model_starts_fresh_moments(self, small_planted):
        graph, split, _ = small_planted
        trained = _small_model(graph)
        train(trained, split, 0, rising)
        assert trained.adam_steps > 0
        again = _small_model(graph)
        assert again.adam_steps == 0
        train(again, split, 0, rising)
        for k in trained.params:
            np.testing.assert_array_equal(trained.params[k].value, again.params[k].value)

    def test_lr_zero_keeps_parameters(self, small_planted):
        graph, split, _ = small_planted
        model = _small_model(graph, lr=0.0)
        before = model.snapshot()
        train(model, split, 0, rising)
        after = model.snapshot()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_loss_decreases_on_planted(self, small_planted):
        graph, split, _ = small_planted
        ok = 0
        for seed in range(3):
            model = _small_model(graph, seed=seed, epochs=5)
            result = train(model, split, seed, rising)
            if result.history[-1]["train_loss"] < result.history[0]["train_loss"]:
                ok += 1
        assert ok == 3

    def test_holds_one_tape_at_a_time(self, small_planted, monkeypatch):
        """Every earlier batch's tape is freed before the next forward records one."""
        graph, split, _ = small_planted
        model = _small_model(graph, epochs=2)
        tapes = []

        def tracked_forward(*args, **kwargs):
            assert all(ref() is None for ref in tapes), f"call {len(tapes)}: an earlier tape is alive"
            fp = forward(*args, **kwargs)
            tapes.append(weakref.ref(fp.tape))
            return fp

        monkeypatch.setattr(recommender, "forward", tracked_forward)
        train(model, split, 0, rising)
        batches = -(-len(split.train_local(graph)) // model.cfg.rec_batch)
        assert len(tapes) == 2 * batches and batches > 1

    def test_early_stopping_restores_best(self, small_planted):
        graph, split, _ = small_planted
        model = _small_model(graph, epochs=8)
        calls = []

        def evaluator(m, epoch):
            # Fabricated curve: up then down, so patience must trigger.
            value = [0.3, 0.5, 0.4, 0.35, 0.34, 0.33][min(epoch, 5)]
            calls.append((epoch, m.snapshot()))
            return value

        model.cfg = replace(model.cfg, patience=2)
        result = train(model, split, seed=0, evaluator=evaluator)
        assert result.stopped_early
        assert result.best_epoch == 1
        best_snapshot = calls[1][1]
        for k, arr in best_snapshot.items():
            np.testing.assert_array_equal(arr, model.params[k].value)


def _small_model(graph, seed=0, lr=0.05, epochs=1):
    schema = graph.schema
    user_set = mp.MetaPathSet(
        (
            mp.MetaPath.from_relations(schema, [WATCH, WATCHED]),
            mp.MetaPath.from_relations(schema, [WATCH, ACTED, ACT, WATCHED]),
        ),
        mp.USER_SYMMETRIC,
        schema,
    )
    item_set = mp.MetaPathSet(
        (
            mp.MetaPath.from_relations(schema, [WATCHED, WATCH]),
            mp.MetaPath.from_relations(schema, [ACTED, ACT]),
        ),
        mp.ITEM_SYMMETRIC,
        schema,
    )
    cfg = RunConfig(
        embed_dim=8, att_hidden=6, dropout=0.1, fanout=10, rec_lr=lr, rec_batch=128, rec_epochs=epochs
    )
    user_side = build_side(graph, user_set, density_filter(graph, 0.9))
    item_side = build_side(graph, item_set, density_filter(graph, 0.9))
    rng = derive_rng(seed, "model")
    return HRecModel(graph, user_side, item_side, cfg, rng, glorot_init(rng, user_side, item_side, cfg.embed_dim))


class TestPersistence:
    def test_save_load_round_trip(self, tiny_model, tmp_path):
        path = tmp_path / "model.ckpt"
        tiny_model.save(str(path))
        again = HRecModel.load(str(path), tiny_model.graph)
        assert set(again.params) == set(tiny_model.params)
        for k in tiny_model.params:
            np.testing.assert_array_equal(again.params[k].value, tiny_model.params[k].value)
        assert again.user_side.pset.key() == tiny_model.user_side.pset.key()

    def test_load_rejects_missing_array(self, tiny_model, tmp_path):
        path = tmp_path / "model.ckpt"
        tiny_model.save(str(path))
        header, arrays = load_arrays(path)
        del arrays["q.user.1"]
        save_arrays(path, header, arrays)
        with pytest.raises(CheckpointError, match=r"model\.ckpt.*missing \['q\.user\.1'\]"):
            HRecModel.load(str(path), tiny_model.graph)

    @pytest.mark.parametrize(
        "extra_node, extra_edge, table",
        [(("U4", "User"), ("U4", "watch", "M0"), "user_emb"), (("M4", "Movie"), ("U0", "watch", "M4"), "item_emb")],
        ids=["user", "item"],
    )
    def test_load_rejects_graph_of_other_size(self, tiny_model, movie_schema, tmp_path, extra_node, extra_edge, table):
        path = tmp_path / "model.ckpt"
        tiny_model.save(str(path))
        graph = graph_from(movie_schema, TINY_NODES + [extra_node], TINY_EDGES + [extra_edge])
        with pytest.raises(CheckpointError, match=rf"model\.ckpt.*wrong shape \['{table}'\]"):
            HRecModel.load(str(path), graph)

    def test_load_rejects_unknown_config_field(self, tiny_model, tmp_path):
        path = tmp_path / "model.ckpt"
        tiny_model.save(str(path))
        header, arrays = load_arrays(path)
        header["config"]["hidden_width"] = 8
        save_arrays(path, header, arrays)
        with pytest.raises(CheckpointError, match=r"model\.ckpt.*hidden_width"):
            HRecModel.load(str(path), tiny_model.graph)

    def test_header_stores_architecture_fields(self, tiny_model, tmp_path):
        path = tmp_path / "model.ckpt"
        tiny_model.save(str(path))
        header, _ = load_arrays(path)
        assert header["format"] == CHECKPOINT_FORMAT
        assert header["config"] == {name: getattr(tiny_model.cfg, name) for name in ARCH_FIELDS}
        again = HRecModel.load(str(path), tiny_model.graph)
        assert all(getattr(again.cfg, name) == getattr(tiny_model.cfg, name) for name in ARCH_FIELDS)

    @pytest.mark.parametrize("old_format", [1, 2, 3])
    def test_load_rejects_old_format(self, tiny_model, tmp_path, old_format):
        # Format 1 named the embedding width ``d``; format 2 stored ``heads``;
        # format 3 stored ``self_loops`` and the three activation names.
        path = tmp_path / "model.ckpt"
        tiny_model.save(str(path))
        header, arrays = load_arrays(path)
        header["format"] = old_format
        if old_format == 1:
            header["config"]["d"] = header["config"].pop("embed_dim")
        elif old_format == 2:
            header["config"]["heads"] = 1
        else:
            header["config"].update(self_loops=True, score_act="leaky_relu", agg_act="elu", fuse_act="tanh")
        save_arrays(path, header, arrays)
        with pytest.raises(CheckpointError, match=rf"model\.ckpt.*format {old_format}, expected 4"):
            HRecModel.load(str(path), tiny_model.graph)

    def test_checkpoint_bytes_deterministic(self, tiny_model, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        tiny_model.save(str(p1))
        tiny_model.save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()
