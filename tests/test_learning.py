"""HRec learns and its probe discriminates, on planted-mam-small at synth seed 1.

The seeds are fixed in advance: run seeds 0-4. Three candidate pairs share
the co-watch paths and differ in one extra path per side:

- base: {UMU} x {MUM};
- planted: {UMU, UMAMU} x {MUM, MAM}, the paths the generator plants;
- distractor: {UMU, UMDMU} x {MUM, MDM}, the same shape through directors.

The probe (the search's reward) must rank the planted pair above both, and
HRec trained on the planted pair must score at least its own MF init.
"""
from __future__ import annotations

import pytest

from hinrec import evaluation, recommender as rec
from hinrec.config import RunConfig
from hinrec.hin import HinSchema, load_graph
from hinrec.metapath import ITEM_SYMMETRIC, USER_SYMMETRIC, MetaPathSet
from hinrec.synth import ACT, ACTED, DIRECT, DIRECTED, WATCH, WATCHED, write_dataset
from hinrec.util import derive_rng

RUN_SEEDS = range(5)
PAIRS = {
    "base": ([(WATCH, WATCHED)], [(WATCHED, WATCH)]),
    "planted": ([(WATCH, WATCHED), (WATCH, ACTED, ACT, WATCHED)], [(WATCHED, WATCH), (ACTED, ACT)]),
    "distractor": ([(WATCH, WATCHED), (WATCH, DIRECTED, DIRECT, WATCHED)], [(WATCHED, WATCH), (DIRECTED, DIRECT)]),
}


@pytest.fixture(scope="module")
def planted_graph(tmp_path_factory):
    out = tmp_path_factory.mktemp("planted-seed-1")
    write_dataset(out, "planted-mam-small", seed=1)
    return load_graph(out / "nodes.tsv", out / "edges.tsv", HinSchema.from_file(out / "schema.txt"))


def pair_sets(graph, name):
    user_paths, item_paths = PAIRS[name]
    schema = graph.schema
    return (MetaPathSet.from_relations(schema, USER_SYMMETRIC, user_paths),
            MetaPathSet.from_relations(schema, ITEM_SYMMETRIC, item_paths))


def probe_for(graph, seed):
    """A run's probe, with the split ``hinrec search --seed`` draws."""
    split = evaluation.split_leave_one_out(graph.interactions(), derive_rng(seed, "split"))
    return evaluation.PerformanceProbe(graph, split, RunConfig(seed=seed))


@pytest.mark.parametrize("seed", RUN_SEEDS)
def test_probe_ranks_planted_pair_first(planted_graph, seed):
    probe = probe_for(planted_graph, seed)
    values = {name: probe.pair(*pair_sets(planted_graph, name)) for name in PAIRS}
    assert values["planted"] > max(values["base"], values["distractor"]), values


@pytest.mark.parametrize("seed", RUN_SEEDS)
def test_trained_hrec_scores_at_least_mf_only(planted_graph, seed):
    """``hinrec train`` on the planted pair, against the MF embeddings it starts from."""
    probe = probe_for(planted_graph, seed)
    mf_only = evaluation.evaluate(
        evaluation.embedding_scorer(probe.graph, *probe.mf_init()),
        probe.split, "validation", (10,), seed, probe.config.n_negatives,
    ).ndcg[10]
    model = probe.model(*pair_sets(planted_graph, "planted"), probe.init_base)
    result = rec.train(model, probe.split, seed, lambda m, epoch: probe.val_ndcg(m, f"val-{epoch}"),
                       probe.config.rec_epochs, probe.config.patience)
    assert result.best_val_ndcg >= mf_only, (result.best_val_ndcg, mf_only)
