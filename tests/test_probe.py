"""The reward probe's contract on planted-mam-small: HRec at its MF init, scored untrained."""
from __future__ import annotations

import json

import pytest

from hinrec import cli, evaluation, recommender as rec
from hinrec.autodiff import Tape
from hinrec.config import RunConfig
from hinrec.metapath import ITEM_SYMMETRIC, USER_SYMMETRIC, MetaPathSet, materialize_subgraph
from hinrec.util import derive_rng, derive_seed

from conftest import ACT, ACTED, DIRECT, DIRECTED, WATCH, WATCHED

SEED = 11


def pair_sets(graph, user_paths, item_paths):
    schema = graph.schema
    return (MetaPathSet.from_relations(schema, USER_SYMMETRIC, user_paths),
            MetaPathSet.from_relations(schema, ITEM_SYMMETRIC, item_paths))


@pytest.fixture
def probe(small_planted):
    graph, split, _ = small_planted
    return evaluation.PerformanceProbe(graph, split, RunConfig(seed=SEED))


@pytest.fixture
def planted(small_planted):
    graph, _, _ = small_planted
    return pair_sets(graph, [(WATCH, WATCHED), (WATCH, ACTED, ACT, WATCHED)], [(WATCHED, WATCH), (ACTED, ACT)])


def uncached_value(probe, user_set, item_set):
    """The pair's value from a model built fresh, with the run's draws and ``"eval"`` views."""
    cfg, graph = probe.config, probe.graph
    materialize = lambda path: materialize_subgraph(graph, path, evaluation.DENSITY_THRESHOLD)
    model = rec.HRecModel(
        graph,
        rec.build_side(graph, user_set, materialize),
        rec.build_side(graph, item_set, materialize),
        derive_seed(cfg.seed, "hrec-init"),
        mf_init=probe.mf_init(),
    )
    return evaluation.evaluate_model(model, probe.split, "validation", (10,), cfg.seed, cfg.n_negatives, "eval").ndcg[10]


def test_pair_scores_hrec_at_its_mf_init(probe, planted):
    assert probe.pair(*planted) == uncached_value(probe, *planted)


# The planted paths and the co-watch paths, in both orders on each side.
REORDERED = [
    ([(WATCH, WATCHED), (WATCH, ACTED, ACT, WATCHED)], [(WATCHED, WATCH), (ACTED, ACT)]),
    ([(WATCH, ACTED, ACT, WATCHED), (WATCH, WATCHED)], [(ACTED, ACT), (WATCHED, WATCH)]),
    ([(WATCH, WATCHED)], [(ACTED, ACT), (WATCHED, WATCH)]),
    ([(WATCH, ACTED, ACT, WATCHED)], [(ACTED, ACT)]),
]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_cached_paths_score_each_set_as_a_fresh_model(small_planted, order):
    """Sets that hold the same paths at other positions, probed in either order,
    each have the bits of their own freshly built model's evaluation."""
    graph, split, _ = small_planted
    probe = evaluation.PerformanceProbe(graph, split, RunConfig(seed=SEED))
    sets = [pair_sets(graph, *paths) for paths in REORDERED][::order]
    values = [probe.pair(*pair) for pair in sets]
    assert probe.path_tables == 4
    assert values == [uncached_value(probe, *pair) for pair in sets]


def test_a_path_draws_the_same_in_every_set(probe, small_planted):
    """A path's a_φ, q_φ and inference view do not depend on the set that holds it or its position."""
    graph, _, _ = small_planted
    models = [probe.model(*pair_sets(graph, *paths), probe.init_base) for paths in REORDERED]
    seed = probe.config.seed
    seen = {}
    for model in models:
        for tag, side in (("user", model.user_side), ("item", model.item_side)):
            for k, path in enumerate(side.pset):
                view = rec.inference_view(side, k, tag, seed, "eval")
                draws = [model.params[f"{kind}.{tag}.{path.label()}"].value.tobytes() for kind in ("natt", "q")]
                draws += [arr.tobytes() for arr in (view.indptr, view.src, view.dst)]
                assert seen.setdefault((tag, path.relation_ids), draws) == draws
    assert len(seen) == 4
    W = {model.params["fuse.item.W"].value.tobytes() for model in models}
    assert len(W) == 1


def test_models_that_share_a_path_share_its_stage(probe, small_planted, monkeypatch):
    """Two models from one base, run with one ``stages`` dict: the second computes only the
    (side, path) it adds, projecting only that side, and both have the bytes of fresh calls."""
    graph, _, _ = small_planted
    item_sets = ([(WATCHED, WATCH), (ACTED, ACT)], [(WATCHED, WATCH), (ACTED, ACT), (DIRECTED, DIRECT)])
    models = [probe.model(*pair_sets(graph, [(WATCH, WATCHED)], items), probe.init_base) for items in item_sets]
    fresh = [rec.infer_embeddings(model, SEED, "eval") for model in models]
    calls = []

    def counted(name):
        real = getattr(rec, name)

        def call(*args):
            calls.append((name, args[2]))  # the side tag
            return real(*args)

        return call

    for name in ("project", "path_forward"):
        monkeypatch.setattr(rec, name, counted(name))
    stages = {}
    added = [
        ({("user", (WATCH, WATCHED)), ("item", (WATCHED, WATCH)), ("item", (ACTED, ACT))},
         [("project", "user"), ("path_forward", "user"),
          ("project", "item"), ("path_forward", "item"), ("path_forward", "item")]),
        ({("item", (DIRECTED, DIRECT))}, [("project", "item"), ("path_forward", "item")]),
    ]
    for model, want, (keys, computed) in zip(models, fresh, added):
        before = set(stages)
        calls.clear()
        tables = rec.infer_embeddings(model, SEED, "eval", stages)
        assert [t.tobytes() for t in tables] == [t.tobytes() for t in want]
        assert set(stages) - before == keys
        assert calls == computed


def test_pair_never_trains(probe, planted, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the probe must not train")

    monkeypatch.setattr(rec, "train", refuse)
    monkeypatch.setattr(rec, "forward", refuse)
    monkeypatch.setattr(Tape, "backward", refuse)
    assert 0.0 <= probe.pair(*planted) <= 1.0


def test_repeated_pair_is_a_cache_hit(probe, planted):
    first = probe.pair(*planted)
    assert (probe.calls, probe.evaluations) == (1, 1)
    assert probe.pair(*planted) == first
    assert (probe.calls, probe.evaluations) == (2, 1)


def test_all_paths_rejected_reaches_the_caller(probe, small_planted):
    graph, _, _ = small_planted
    # UMDMU's co-director subgraph is far above the 0.5 density threshold.
    dense_only = pair_sets(graph, [(WATCH, DIRECTED, DIRECT, WATCHED)], [(WATCHED, WATCH)])
    with pytest.raises(rec.AllPathsRejected, match="density"):
        probe.pair(*dense_only)
    assert (probe.calls, probe.evaluations, probe.path_tables) == (1, 0, 0)


def test_reward_scores_the_init_hinrec_train_starts_from(small_planted_1, tmp_path, monkeypatch):
    """The planted pair's reward is the validation NDCG@10, at the ``"eval"`` views,
    of the model ``hinrec train`` builds, before its first step."""
    directory, graph = small_planted_1
    run_seed = 3
    sets = tmp_path / "sets.json"
    sets.write_text(json.dumps({key: {"paths": [{"relations": list(path)} for path in paths]}
                                for key, paths in zip(("user_set", "item_set"), REORDERED[0])}))
    config = tmp_path / "train.cfg"
    config.write_text("rec_epochs = 1\n")
    at_start, train = [], rec.train

    def watched(model, split, seed, evaluator, epochs, patience):
        metrics = evaluation.evaluate_model(model, split, "validation", (10,), seed, RunConfig().n_negatives, "eval")
        at_start.append(metrics.ndcg[10])
        return train(model, split, seed, evaluator, epochs, patience)

    monkeypatch.setattr(rec, "train", watched)
    assert cli.main(["train", "--dataset", str(directory), "--sets", str(sets), "--config", str(config),
                     "--seed", str(run_seed), "--out", str(tmp_path / "out")]) == 0
    split = evaluation.split_leave_one_out(graph.interactions(), derive_rng(run_seed, "split"))
    probe = evaluation.PerformanceProbe(graph, split, RunConfig(seed=run_seed))
    assert at_start == [probe.pair(*pair_sets(graph, *REORDERED[0]))]
