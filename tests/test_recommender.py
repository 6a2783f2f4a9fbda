import weakref

import numpy as np
import pytest

from hinrec import metapath as mp
from hinrec import recommender
from hinrec.autodiff import Adam, Tape, Var
from hinrec.checkpoint import CheckpointError, load_arrays, save_arrays
from hinrec.hin import HinSchema
from hinrec.recommender import (
    CHECKPOINT_FORMAT,
    AllPathsRejected,
    HRecModel,
    _side_forward,
    bpr_loss_var,
    build_side,
    draw_negatives,
    forward,
    fuse,
    infer_embeddings,
    inference_view,
    mf_pretrain,
    path_names,
    path_score,
    path_table,
    positive_bits,
    sample_views,
    train,
)
from hinrec.util import derive_rng

from conftest import MOVIE_SCHEMA_TEXT, WATCH, WATCHED, ACT, ACTED, graph_from
from reference_ops import bpr_loss, node_attention, path_attention, project, score


def density_filter(graph, threshold):
    """``build_side``'s materializer: the path's subgraph, or None above ``threshold``."""
    return lambda path: mp.materialize_subgraph(graph, path, threshold)


def views_and_rng(model, rng):
    """``forward``'s last three arguments: both sides' views at ``FANOUT``, drawn from ``rng``,
    then ``rng`` itself for the dropout masks."""
    return [*(sample_views(side, recommender.FANOUT, rng) for side in (model.user_side, model.item_side)), rng]


def set_constants(monkeypatch, **values):
    """Set ``recommender``'s module constants for one test."""
    for name, value in values.items():
        monkeypatch.setattr(recommender, name, value)


# Epochs without improvement before ``train`` stops, where a test does not exercise early stopping.
PATIENCE = 3


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
def tiny_model(movie_schema, monkeypatch):
    """The tiny graph with two paths per side; small dims for FD checks (d = 5, 4 hidden units), no dropout."""
    graph = graph_from(movie_schema, TINY_NODES, TINY_EDGES)
    user_set = mp.MetaPathSet.from_relations(
        movie_schema, mp.USER_SYMMETRIC, [[WATCH, WATCHED], [WATCH, ACTED, ACT, WATCHED]]
    )
    item_set = mp.MetaPathSet.from_relations(movie_schema, mp.ITEM_SYMMETRIC, [[WATCHED, WATCH], [ACTED, ACT]])
    set_constants(monkeypatch, ATT_HIDDEN=4, DROPOUT=0.0, FANOUT=16)
    user_side = build_side(graph, user_set, density_filter(graph, None))
    item_side = build_side(graph, item_set, density_filter(graph, None))
    rng = derive_rng(0, "tiny-model")
    return HRecModel(graph, user_side, item_side, 0, glorot_init(rng, user_side, item_side, 5))


@pytest.fixture
def small_model(small_planted, monkeypatch):
    """Models on ``small_planted``'s graph with two paths per side, by seed: d = 8, 6 hidden units,
    fanout 10, batches of 128 at rate 0.05."""
    set_constants(monkeypatch, ATT_HIDDEN=6, FANOUT=10, LR=0.05, BATCH=128)
    graph = small_planted[0]
    schema = graph.schema
    user_set = mp.MetaPathSet.from_relations(
        schema, mp.USER_SYMMETRIC, [[WATCH, WATCHED], [WATCH, ACTED, ACT, WATCHED]]
    )
    item_set = mp.MetaPathSet.from_relations(schema, mp.ITEM_SYMMETRIC, [[WATCHED, WATCH], [ACTED, ACT]])
    user_side = build_side(graph, user_set, density_filter(graph, 0.9))
    item_side = build_side(graph, item_set, density_filter(graph, 0.9))

    def make(seed=0):
        rng = derive_rng(seed, "model")
        return HRecModel(graph, user_side, item_side, seed, glorot_init(rng, user_side, item_side, 8))

    return make


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


def test_paths_that_share_a_label_are_named_apart():
    """MUM through watch and through a second user-movie relation: both are labelled MUM."""
    schema = HinSchema.parse(MOVIE_SCHEMA_TEXT + "rate: User -> Movie ~ rated\n")
    rate, rated = schema.by_name("rate").rid, schema.by_name("rated").rid
    pset = mp.MetaPathSet.from_relations(schema, mp.ITEM_SYMMETRIC, [[WATCHED, WATCH], [rated, rate], [ACTED, ACT]])
    assert pset.labels() == ["MUM", "MUM", "MAM"]
    assert path_names(pset) == [f"MUM[{WATCHED},{WATCH}]", f"MUM[{rated},{rate}]", "MAM"]


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
            for var in tiny_model.params.values():
                var.grad = None
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
        views_u, views_i = (
            [inference_view(side, k, tag, recommender.FANOUT, 7, "eval") for k in range(len(side.pset))]
            for tag, side in (("user", model.user_side), ("item", model.item_side))
        )
        fp = forward(
            model, np.arange(4), np.arange(4), np.asarray([3, 2, 1, 0]),
            views_u, views_i, NO_DROPOUT,
        )
        np.testing.assert_allclose(np.sum(H_u * H_i, axis=1), fp.ypos.value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.sum(H_u * H_i[::-1], axis=1), fp.yneg.value, rtol=0, atol=1e-12)
        # Each side's table, built per path on throwaway tapes, has the bytes of the side's tape forward.
        for tag, side, views, H in (("user", model.user_side, views_u, H_u), ("item", model.item_side, views_i, H_i)):
            want, _ = _side_forward(Tape(), model, tag, side, views, None)
            assert H.tobytes() == want.value.tobytes()

    def test_node_attention_reference_matches_batched(self, tiny_model):
        """Per-node reference attention, fused by reference path attention, equals the tape pass."""
        model = tiny_model
        for tag, side in (("user", model.user_side), ("item", model.item_side)):
            views = sample_views(side, 16, derive_rng(3, "v", tag))
            fused, beta = _side_forward(Tape(), model, tag, side, views, None)

            Z = model.params[f"{tag}_emb"].value @ model.params[f"proj.{side.node_type}"].value
            names = [path.label() for path in side.pset]
            tables = []
            for name, view in zip(names, views):
                a = model.params[f"natt.{tag}.{name}"].value
                rows = []
                for v in range(side.m):
                    neigh = view.dst[view.indptr[v] : view.indptr[v + 1]]
                    _, h = node_attention(a, Z[v], [(int(j), Z[j]) for j in neigh])
                    rows.append(h)
                tables.append(np.stack(rows))
            queries = [model.params[f"q.{tag}.{name}"].value for name in names]
            ref_beta, ref_fused = path_attention(
                model.params[f"fuse.{tag}.W"].value, model.params[f"fuse.{tag}.b"].value, queries, tables
            )
            np.testing.assert_allclose(beta.value, ref_beta, rtol=0, atol=1e-12)
            np.testing.assert_allclose(fused.value, ref_fused, rtol=0, atol=1e-12)

    def test_paths_on_their_own_tapes_fuse_to_the_side_forward(self, small_model):
        """Each path's table and score, each on a throwaway tape, then one ``fuse`` on a fresh
        tape: the fused table and β have the bytes of the whole side's forward. A cache of
        per-path tables shared between sets relies on this."""
        model = small_model()
        for tag, side in (("user", model.user_side), ("item", model.item_side)):
            views = sample_views(side, recommender.FANOUT, derive_rng(5, "seam", tag))
            assert len(views) == 2
            want_fused, want_beta = _side_forward(Tape(), model, tag, side, views, None)
            p = model.params
            Z = Tape().matmul(p[f"{tag}_emb"], p[f"proj.{side.node_type}"])
            tables, scores = [], []
            for k, (path, view) in enumerate(zip(side.pset, views)):
                tape, name = Tape(), path.label()
                tables.append(path_table(tape, Z, p[f"natt.{tag}.{name}"], view))
                scores.append(path_score(tape, tables[k], p[f"fuse.{tag}.W"], p[f"fuse.{tag}.b"], p[f"q.{tag}.{name}"]))
            fused, beta = fuse(Tape(), tables, scores)
            assert fused.value.tobytes() == want_fused.value.tobytes()
            assert beta.value.tobytes() == want_beta.value.tobytes()


class TestTraining:
    def test_projections_start_at_identity(self, tiny_model):
        d = tiny_model.params["user_emb"].shape[1]
        for node_type in ("User", "Movie"):
            np.testing.assert_array_equal(tiny_model.params[f"proj.{node_type}"].value, np.eye(d))

    def test_adam_first_two_steps_on_a_quadratic(self):
        """f(x) = (x0^2 + 4 x1^2) / 2 from x = (3, -0.5) at lr 0.1, gradient (x0, 4 x1).

        Step 1: the bias-corrected moments are g and g^2, so each coordinate
        moves by lr * g / (|g| + 1e-8): x = (2.9000000003333, -0.4000000005).
        Step 2: m = 0.09 g1 + 0.1 g2 and v = 0.000999 g1^2 + 0.001 g2^2,
        corrected by 1 - 0.9^2 = 0.19 and 1 - 0.999^2 = 0.001999, give
        x = (2.8001027077506, -0.3011874206234) (40-digit decimal arithmetic).
        """
        x = Var(np.asarray([3.0, -0.5]))
        adam = Adam(0.1)
        expected = [
            [2.900000000333333332222, -0.400000000499999997500],
            [2.800102707750551155627, -0.301187420623429340148],
        ]
        for want in expected:
            x.grad = np.asarray([1.0, 4.0]) * x.value
            adam.step({"x": x})
            np.testing.assert_allclose(x.value, want, rtol=1e-14, atol=0)
            assert x.grad is None  # each step clears the gradient it applied
        assert adam.steps == 2

    def test_adam_skips_parameters_without_a_gradient(self):
        x, y = Var(np.ones(2)), Var(np.ones(3))
        adam = Adam(0.1)
        y.grad = np.ones(3)
        adam.step({"x": x, "y": y})
        np.testing.assert_array_equal(x.value, np.ones(2))
        assert list(adam._moments) == ["y"]

    def test_fresh_model_starts_fresh_moments(self, small_planted, small_model):
        """Each ``train`` call steps its own optimizer: a second model trains to the first's bytes."""
        _, split, _ = small_planted
        trained, again = small_model(), small_model()
        train(trained, split, 0, rising, 1, PATIENCE)
        train(again, split, 0, rising, 1, PATIENCE)
        for k in trained.params:
            np.testing.assert_array_equal(trained.params[k].value, again.params[k].value)

    def test_lr_zero_keeps_parameters(self, small_planted, small_model, monkeypatch):
        _, split, _ = small_planted
        monkeypatch.setattr(recommender, "LR", 0.0)
        model = small_model()
        before = model.snapshot()
        train(model, split, 0, rising, 1, PATIENCE)
        after = model.snapshot()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_loss_decreases_on_planted(self, small_planted, small_model):
        _, split, _ = small_planted
        ok = 0
        for seed in range(3):
            model = small_model(seed)
            result = train(model, split, seed, rising, 5, PATIENCE)
            if result.history[-1]["train_loss"] < result.history[0]["train_loss"]:
                ok += 1
        assert ok == 3

    def test_holds_one_tape_at_a_time(self, small_planted, small_model, monkeypatch):
        """Every earlier batch's tape is freed before the next forward records one."""
        graph, split, _ = small_planted
        model = small_model()
        tapes = []

        def tracked_forward(*args, **kwargs):
            assert all(ref() is None for ref in tapes), f"call {len(tapes)}: an earlier tape is alive"
            fp = forward(*args, **kwargs)
            tapes.append(weakref.ref(fp.tape))
            return fp

        monkeypatch.setattr(recommender, "forward", tracked_forward)
        train(model, split, 0, rising, 2, PATIENCE)
        batches = -(-len(split.train_local(graph)) // recommender.BATCH)
        assert len(tapes) == 2 * batches and batches > 1

    def test_non_finite_loss_names_epoch_and_batch(self, small_planted, small_model, monkeypatch):
        """A NaN score in epoch 1's second batch stops training before its backward pass."""
        graph, split, _ = small_planted
        model = small_model()
        batches = -(-len(split.train_local(graph)) // recommender.BATCH)
        calls, optimizers = [], []

        class RecordedAdam(Adam):
            def __init__(self, lr):
                super().__init__(lr)
                optimizers.append(self)

        def poisoned_loss(tape, ypos, yneg):
            calls.append(len(calls))
            if len(calls) == batches + 2:
                ypos.value[0] = np.nan
            return bpr_loss_var(tape, ypos, yneg)

        monkeypatch.setattr(recommender, "bpr_loss_var", poisoned_loss)
        monkeypatch.setattr(recommender, "Adam", RecordedAdam)
        with np.errstate(invalid="ignore"), pytest.raises(
            FloatingPointError, match=r"^non-finite training loss at epoch 1, batch 1$"
        ):
            train(model, split, 0, rising, 2, PATIENCE)
        assert batches > 1 and len(calls) == batches + 2
        assert [opt.steps for opt in optimizers] == [batches + 1]

    def test_early_stopping_restores_best(self, small_planted, small_model):
        _, split, _ = small_planted
        model = small_model()
        calls = []

        def evaluator(m, epoch):
            # Fabricated curve: up then down, so patience must trigger.
            value = [0.3, 0.5, 0.4, 0.35, 0.34, 0.33][min(epoch, 5)]
            calls.append((epoch, m.snapshot()))
            return value

        result = train(model, split, seed=0, evaluator=evaluator, epochs=8, patience=2)
        assert len(result.history) == 5 < 8  # epochs 2-4 fall short, one more than patience
        assert result.best_epoch == 1
        best_snapshot = calls[1][1]
        for k, arr in best_snapshot.items():
            np.testing.assert_array_equal(arr, model.params[k].value)


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
        del arrays["q.user.UMAMU"]
        save_arrays(path, header, arrays)
        with pytest.raises(CheckpointError, match=r"model\.ckpt.*missing \['q\.user\.UMAMU'\]"):
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

    def test_load_rejects_a_checkpoint_without_user_emb(self, tiny_model, tmp_path):
        """The width is read from ``user_emb``; without it the load names the missing table."""
        path = tmp_path / "model.ckpt"
        tiny_model.save(str(path))
        header, arrays = load_arrays(path)
        del arrays["user_emb"]
        save_arrays(path, header, arrays)
        with pytest.raises(CheckpointError, match=r"model\.ckpt.*missing \['user_emb'\]"):
            HRecModel.load(str(path), tiny_model.graph)

    def test_header_stores_architecture_fields(self, tiny_model, tmp_path):
        """The architecture a header stores is its two path sets; the widths come from the arrays,
        so a model of another width than the defaults loads at its own."""
        path = tmp_path / "model.ckpt"
        tiny_model.save(str(path))
        header, _ = load_arrays(path)
        assert header == {
            "kind": "hrec-model",
            "format": CHECKPOINT_FORMAT,
            "user_set": [list(p.relation_ids) for p in tiny_model.user_side.pset],
            "item_set": [list(p.relation_ids) for p in tiny_model.item_side.pset],
        }
        again = HRecModel.load(str(path), tiny_model.graph)
        assert again.params["user_emb"].shape == (4, 5) and again.params["fuse.item.W"].shape == (5, 4)

    @pytest.mark.parametrize("old_format", [1, 2, 3, 4, 5])
    def test_load_rejects_old_format(self, tiny_model, tmp_path, old_format):
        # Formats 1-5 stored a ``config`` of architecture fields: format 1 named
        # the embedding width ``d``; format 2 stored ``heads``; format 3 stored
        # ``self_loops`` and the three activation names; format 4 named each
        # path's parameters by its position, ``natt.item.0``.
        path = tmp_path / "model.ckpt"
        tiny_model.save(str(path))
        header, arrays = load_arrays(path)
        header["format"] = old_format
        config = {"embed_dim": 5, "att_hidden": 4, "dropout": 0.0, "fanout": 16, "density_threshold": 0.5}
        if old_format == 1:
            config["d"] = config.pop("embed_dim")
        elif old_format == 2:
            config["heads"] = 1
        elif old_format == 3:
            config.update(self_loops=True, score_act="leaky_relu", agg_act="elu", fuse_act="tanh")
        elif old_format == 4:
            for tag, side in (("user", tiny_model.user_side), ("item", tiny_model.item_side)):
                for k, label in enumerate(side.pset.labels()):
                    for kind in ("natt", "q"):
                        arrays[f"{kind}.{tag}.{k}"] = arrays.pop(f"{kind}.{tag}.{label}")
        header["config"] = config
        save_arrays(path, header, arrays)
        with pytest.raises(CheckpointError, match=rf"model\.ckpt.*format {old_format}, expected 6"):
            HRecModel.load(str(path), tiny_model.graph)

    def test_checkpoint_bytes_deterministic(self, tiny_model, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        tiny_model.save(str(p1))
        tiny_model.save(str(p2))
        assert p1.read_bytes() == p2.read_bytes()
