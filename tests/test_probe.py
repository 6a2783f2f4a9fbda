"""The reward probe's contract on planted-mam-small: HRec at its MF init, scored untrained."""
from __future__ import annotations

import pytest

from hinrec import evaluation, recommender as rec
from hinrec.autodiff import Tape
from hinrec.config import RunConfig
from hinrec.metapath import ITEM_SYMMETRIC, USER_SYMMETRIC, MetaPath, MetaPathSet, materialize_subgraph
from hinrec.util import derive_rng, derive_seed

from conftest import ACT, ACTED, DIRECT, DIRECTED, WATCH, WATCHED

SEED = 11


def pair_sets(graph, user_paths, item_paths):
    schema = graph.schema

    def side(form, paths):
        return MetaPathSet(tuple(MetaPath.from_relations(schema, p) for p in paths), form, schema)

    return side(USER_SYMMETRIC, user_paths), side(ITEM_SYMMETRIC, item_paths)


@pytest.fixture
def probe(small_planted):
    graph, split, _ = small_planted
    return evaluation.PerformanceProbe(graph, split, RunConfig(seed=SEED))


@pytest.fixture
def planted(small_planted):
    graph, _, _ = small_planted
    return pair_sets(graph, [(WATCH, WATCHED), (WATCH, ACTED, ACT, WATCHED)], [(WATCHED, WATCH), (ACTED, ACT)])


def test_pair_scores_hrec_at_its_mf_init(probe, planted):
    user_set, item_set = planted
    cfg, graph = probe.config, probe.graph
    key = (user_set.key(), item_set.key())
    materialize = lambda path: materialize_subgraph(graph, path, cfg.density_threshold)
    model = rec.HRecModel(
        graph,
        rec.build_side(graph, user_set, materialize),
        rec.build_side(graph, item_set, materialize),
        cfg,
        derive_rng(derive_seed(SEED, "probe", key), "init"),
        mf_init=probe.mf_init(),
    )
    expected = evaluation.evaluate_model(
        model, probe.split, "validation", (10,), SEED, cfg.n_negatives
    ).ndcg[10]
    assert probe.pair(user_set, item_set) == expected


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
    assert (probe.calls, probe.evaluations) == (1, 0)
