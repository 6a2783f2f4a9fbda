"""Leave-one-out splitting, sampled ranking metrics, and the reward probe.

Each user with at least three interactions contributes one validation and
one test pair; everything else trains. A held-out positive is ranked
against 499 never-interacted negatives with pessimistic tie breaking.
The :class:`PerformanceProbe` scores a candidate meta-path pair by lightly
training a fresh recommender and reporting validation NDCG@10; results and
subgraphs are cached so repeated probes of one set are bit-identical.
"""
from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import metapath as mp
from . import recommender as rec
from .hin import HinGraph, InteractionSet
from .search_env import ProbeFailure
from .util import derive_rng, derive_seed

log = logging.getLogger(__name__)


@dataclass
class SplitSet:
    """Disjoint train/validation/test pairs plus per-user profiles."""

    relation: int
    train: np.ndarray  # (k, 2) global (user, item)
    validation: np.ndarray
    test: np.ndarray
    user_items: dict[int, np.ndarray]  # full profile, sorted item ids per user
    eligible_users: np.ndarray
    item_ids: np.ndarray  # the item universe (global ids)

    def pairs(self, which: str) -> np.ndarray:
        try:
            return {"train": self.train, "validation": self.validation, "test": self.test}[which]
        except KeyError:
            raise ValueError(f"unknown split {which!r}") from None

    def held_out(self, which: str) -> dict[int, int]:
        return {int(u): int(i) for u, i in self.pairs(which)}

    def _local(self, graph: HinGraph, pairs: np.ndarray) -> np.ndarray:
        u_off = graph.type_offsets[graph.schema.type_index(graph.schema.user_type)]
        i_off = graph.type_offsets[graph.schema.type_index(graph.schema.item_type)]
        out = pairs.copy()
        out[:, 0] -= u_off
        out[:, 1] -= i_off
        return out

    def train_local(self, graph: HinGraph) -> np.ndarray:
        return self._local(graph, self.train)

    def all_local(self, graph: HinGraph) -> np.ndarray:
        return self._local(graph, np.concatenate([self.train, self.validation, self.test]))


def split_leave_one_out(interactions: InteractionSet, rng: np.random.Generator) -> SplitSet:
    """One random validation and one test pair per user with >= 3 interactions."""
    pairs = interactions.pairs
    if len(pairs) == 0:
        raise ValueError("cannot split an empty interaction set")
    users, starts = np.unique(pairs[:, 0], return_index=True)
    bounds = np.append(starts, len(pairs))
    train_rows, val_rows, test_rows, eligible = [], [], [], []
    user_items: dict[int, np.ndarray] = {}
    for k, u in enumerate(users):
        items = pairs[bounds[k] : bounds[k + 1], 1]
        user_items[int(u)] = np.sort(items)
        if len(items) < 3:
            train_rows.extend((u, i) for i in items)
            continue
        picks = rng.choice(len(items), size=2, replace=False)
        val_rows.append((u, items[picks[0]]))
        test_rows.append((u, items[picks[1]]))
        rest = np.delete(items, picks)
        train_rows.extend((u, i) for i in rest)
        eligible.append(u)
    return SplitSet(
        relation=interactions.relation,
        train=np.asarray(train_rows, dtype=np.int64).reshape(-1, 2),
        validation=np.asarray(val_rows, dtype=np.int64).reshape(-1, 2),
        test=np.asarray(test_rows, dtype=np.int64).reshape(-1, 2),
        user_items=user_items,
        eligible_users=np.asarray(eligible, dtype=np.int64),
        item_ids=np.unique(pairs[:, 1]),
    )


def sample_negatives(
    split: SplitSet, user: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Distinct items the user never interacted with, uniform without replacement.

    Falls back to the whole eligible pool (with a log record) when it is
    smaller than ``count``.
    """
    interacted = split.user_items.get(int(user), np.empty(0, dtype=np.int64))
    pool = np.setdiff1d(split.item_ids, interacted, assume_unique=True)
    if len(pool) < count:
        log.warning("user %d: negative pool reduced to %d items", user, len(pool))
        return pool
    return rng.choice(pool, size=count, replace=False)


def rank_position(scores: np.ndarray, positive_index: int) -> int:
    """1 + the number of other candidates scoring >= the positive (ties hurt)."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[positive_index]
    better_or_tied = int(np.sum(scores >= pos)) - 1
    return 1 + better_or_tied


def hr_at_k(rank: int, k: int) -> int:
    return 1 if rank <= k else 0


def ndcg_at_k(rank: int, k: int) -> float:
    """Single relevant item: ideal DCG is 1, so NDCG is the positional discount."""
    return 1.0 / np.log2(rank + 1) if rank <= k else 0.0


@dataclass
class RankingMetrics:
    split: str
    ks: tuple[int, ...]
    hr: dict[int, float]
    ndcg: dict[int, float]
    n_users: int

    def as_records(self, **extra) -> list[dict]:
        out = []
        for k in self.ks:
            for metric, table in (("hr", self.hr), ("ndcg", self.ndcg)):
                out.append(
                    {
                        "split": self.split,
                        "k": k,
                        "metric": metric,
                        "value": table[k],
                        "n_users": self.n_users,
                        **extra,
                    }
                )
        return out


def evaluate(
    scorer,
    split: SplitSet,
    which: str,
    ks: tuple[int, ...],
    seed: int,
    n_negatives: int = 499,
    jobs: int = 1,
) -> RankingMetrics:
    """Rank each eligible user's held-out positive among sampled negatives.

    ``scorer(user, items) -> scores`` sees global ids. Negatives derive
    from (seed, split, user), so results do not depend on worker count.
    """
    held = split.held_out(which)
    if not held:
        raise ValueError(f"no eligible users in split {which!r}")
    ks = tuple(sorted(ks))

    def rank_one(u: int) -> int:
        positive = held[u]
        negs = sample_negatives(split, u, n_negatives, derive_rng(seed, "negatives", which, u))
        candidates = np.concatenate([[positive], negs])
        return rank_position(scorer(u, candidates), 0)

    users = sorted(held)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            ranks = list(pool.map(rank_one, users))
    else:
        ranks = [rank_one(u) for u in users]
    ranks_arr = np.asarray(ranks)
    hr = {k: float(np.mean([hr_at_k(r, k) for r in ranks_arr])) for k in ks}
    ndcg = {k: float(np.mean([ndcg_at_k(r, k) for r in ranks_arr])) for k in ks}
    return RankingMetrics(which, ks, hr, ndcg, len(users))


def embedding_scorer(graph: HinGraph, H_user: np.ndarray, H_item: np.ndarray):
    u_off = int(graph.type_offsets[graph.schema.type_index(graph.schema.user_type)])
    i_off = int(graph.type_offsets[graph.schema.type_index(graph.schema.item_type)])

    def scorer(user: int, items: np.ndarray) -> np.ndarray:
        return H_item[np.asarray(items) - i_off] @ H_user[user - u_off]

    return scorer


def evaluate_model(
    model: rec.HRecModel,
    split: SplitSet,
    which: str,
    ks: tuple[int, ...],
    seed: int,
    n_negatives: int = 499,
    jobs: int = 1,
    view_tag: str = "eval",
) -> RankingMetrics:
    H_user, H_item = rec.infer_embeddings(model, seed, tag=view_tag)
    scorer = embedding_scorer(model.graph, H_user, H_item)
    return evaluate(scorer, split, which, ks, seed, n_negatives, jobs)


def training_graph(graph: HinGraph, split: SplitSet, leak_guard: bool = True) -> HinGraph:
    """The HIN used for subgraph materialization; held-out edges removed by default."""
    if not leak_guard:
        return graph
    held = np.concatenate([split.validation, split.test])
    return graph.without_interactions(held)


class PerformanceProbe:
    """Validation NDCG@10 of a lightly trained recommender, as the search oracle.

    Subgraph materializations are cached per meta-path, the MF embedding
    init is computed once, and probe results are cached by the candidate
    pair, so one set always probes to the same value.
    """

    def __init__(self, graph: HinGraph, split: SplitSet, config, seed: int):
        self.graph = training_graph(graph, split, config.leak_guard)
        self.split = split
        self.config = config
        self.seed = seed
        self.calls = 0
        self.evaluations = 0
        self._subgraphs: dict[tuple[int, ...], mp.MetaPathSubgraph | None] = {}
        self._results: dict[tuple, float] = {}
        self._mf: tuple[np.ndarray, np.ndarray] | None = None

    def subgraph(self, path: mp.MetaPath) -> mp.MetaPathSubgraph | None:
        key = path.relation_ids
        if key not in self._subgraphs:
            self._subgraphs[key] = mp.materialize_subgraph(
                self.graph, path, self.config.density_threshold, self.config.self_loops
            )
        return self._subgraphs[key]

    def mf_init(self) -> tuple[np.ndarray, np.ndarray]:
        if self._mf is None:
            g = self.graph
            n_users = g.type_count(g.schema.user_type)
            n_items = g.type_count(g.schema.item_type)
            self._mf = rec.mf_pretrain(
                self.split.train_local(g),
                n_users,
                n_items,
                self.config.embed_dim,
                self.config.mf_epochs,
                self.config.mf_lr,
                derive_rng(self.seed, "mf-init"),
            )
        return self._mf

    def pair(self, user_set: mp.MetaPathSet, item_set: mp.MetaPathSet) -> float:
        self.calls += 1
        key = (user_set.key(), item_set.key())
        if key in self._results:
            return self._results[key]
        try:
            user_side = rec.build_side(
                self.graph, user_set, self.config.density_threshold, self.config.self_loops, self.subgraph
            )
            item_side = rec.build_side(
                self.graph, item_set, self.config.density_threshold, self.config.self_loops, self.subgraph
            )
        except rec.AllPathsRejected as exc:
            raise ProbeFailure(str(exc)) from exc
        self.evaluations += 1
        probe_seed = derive_seed(self.seed, "probe", key)
        model = rec.HRecModel(
            self.graph,
            user_side,
            item_side,
            rec.HRecConfig.from_run(self.config, batch_size=self.config.probe_batch),
            derive_rng(probe_seed, "init"),
            mf_init=self.mf_init(),
        )
        rec.train(model, self.split, probe_seed, epochs=self.config.probe_epochs, eval_each_epoch=False)
        metrics = evaluate_model(
            model,
            self.split,
            "validation",
            ks=(10,),
            seed=self.seed,
            n_negatives=self.config.n_negatives,
        )
        value = metrics.ndcg[10]
        self._results[key] = value
        return value
