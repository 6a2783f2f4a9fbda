"""Leave-one-out splitting, sampled ranking metrics, and the reward probe.

Each user with at least three interactions contributes one validation and
one test pair; everything else trains. A held-out positive is ranked
against 499 never-interacted negatives with pessimistic tie breaking.
The candidate rows (positive plus negatives) depend only on the split, the
seed and the negative count, so :meth:`SplitSet.candidates` draws them once
and caches them on the split as flat arrays; every later evaluation of that
split reuses them and ranks all of its rows at once.
The :class:`PerformanceProbe` scores a candidate meta-path pair by the
validation NDCG@10 of a fresh, untrained recommender built over it at the
MF init, through :func:`evaluate_model`. Its draws are keyed by path, so
one dict of per-path stages serves the whole run: the probe computes each
path's node-level table once per run and each pair's value once.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import metapath as mp
from . import recommender as rec
from .autodiff import Var
from .hin import HinGraph
from .util import derive_rng, derive_seed

log = logging.getLogger(__name__)

_NO_ITEMS = np.empty(0, dtype=np.int64)
# The probe's subgraph density filter: a path whose subgraph links more than
# this share of its node pairs is rejected (:func:`~hinrec.metapath.materialize_subgraph`).
DENSITY_THRESHOLD = 0.5


@dataclass(frozen=True)
class Candidates:
    """One split's candidate rows, flat: row k is ``items[starts[k]:starts[k + 1]]``,
    and the last row runs to the end.

    Rows follow user order and hold the held-out positive first, then its
    sampled negatives; ``users`` repeats each row's user per entry. All ids
    are global, and the arrays are read-only. The rows are kept for the
    whole run, so ``users`` and ``items`` are stored in the narrowest
    unsigned dtype that holds the largest id among them (uint16 on
    planted-mam); ``starts`` is int64.
    """

    users: np.ndarray
    items: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return len(self.starts)


@dataclass
class SplitSet:
    """Disjoint train/validation/test pairs plus per-user profiles."""

    train: np.ndarray  # (k, 2) global (user, item)
    validation: np.ndarray
    test: np.ndarray
    user_items: dict[int, np.ndarray]  # full profile, sorted item ids per user
    item_ids: np.ndarray  # the item universe (global ids), sorted and unique
    _candidates: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def pairs(self, which: str) -> np.ndarray:
        try:
            return {"train": self.train, "validation": self.validation, "test": self.test}[which]
        except KeyError:
            raise ValueError(f"unknown split {which!r}") from None

    def held_out(self, which: str) -> dict[int, int]:
        return {int(u): int(i) for u, i in self.pairs(which)}

    def candidates(self, which: str, seed: int, n_negatives: int) -> Candidates:
        """Every held-out user's row of the positive and its sampled negatives.

        Negatives derive from (seed, split, user). The rows are drawn on the
        first call for a ``(which, seed, n_negatives)`` key, kept on the
        split and returned on every later call. A draw where some users have
        fewer than ``n_negatives`` never-interacted items logs one warning.
        """
        key = (which, seed, n_negatives)
        if key not in self._candidates:
            held = self.held_out(which)
            users = sorted(held)
            rows = []
            for u, pool in zip(users, negative_pools(self, users)):
                negs = sample_negatives(pool, n_negatives, derive_rng(seed, "negatives", which, u))
                rows.append(np.concatenate([[held[u]], negs]))
            counts = np.asarray([len(row) for row in rows], dtype=np.int64)
            short = counts[counts <= n_negatives] - 1
            if len(short):
                log.warning(
                    "%s: negative pool reduced for %d of %d users, to %d-%d items",
                    which, len(short), len(rows), short.min(), short.max(),
                )
            starts = np.zeros(len(rows), dtype=np.int64)
            np.cumsum(counts[:-1], out=starts[1:])
            held_users = np.asarray(users, dtype=np.int64)
            items = np.concatenate(rows) if rows else _NO_ITEMS
            ids = np.min_scalar_type(max(int(held_users.max(initial=0)), int(items.max(initial=0))))
            flat = Candidates(np.repeat(held_users.astype(ids), counts), items.astype(ids), starts)
            for arr in (flat.users, flat.items, flat.starts):
                arr.flags.writeable = False
            self._candidates[key] = flat
        return self._candidates[key]

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


def split_leave_one_out(pairs: np.ndarray, rng: np.random.Generator) -> SplitSet:
    """One random validation and one test pair per user with >= 3 interactions.

    ``pairs`` is a (k, 2) int64 array of distinct (user, item) pairs sorted
    by user, then item, as :meth:`HinGraph.interactions` returns them.
    Users are visited in id order, and each eligible one draws its two
    held-out positions with one ``rng.choice``. Training keeps every other
    pair in that order.
    """
    if len(pairs) == 0:
        raise ValueError("cannot split an empty interaction set")
    # The pairs are sorted by (user, item), so each user's items are one
    # ascending run: its profile, and the rows its picks index into.
    users, starts, counts = np.unique(pairs[:, 0], return_index=True, return_counts=True)
    items = np.ascontiguousarray(pairs[:, 1])
    bounds = np.append(starts, len(pairs)).tolist()
    user_items = {u: items[lo:hi] for u, lo, hi in zip(users.tolist(), bounds, bounds[1:])}
    eligible = counts >= 3
    picks = np.asarray(
        [rng.choice(n, size=2, replace=False) for n in counts[eligible].tolist()], dtype=np.int64
    ).reshape(-1, 2)
    held = starts[eligible][:, None] + picks
    train = np.ones(len(pairs), dtype=bool)
    train[held.ravel()] = False
    return SplitSet(
        train=pairs[train],
        validation=pairs[held[:, 0]],
        test=pairs[held[:, 1]],
        user_items=user_items,
        item_ids=np.unique(pairs[:, 1]),
    )


def negative_pools(split: SplitSet, users: list[int]) -> Iterator[np.ndarray]:
    """Yield each user's never-interacted items, in ``users`` order: the
    sorted ``item_ids`` without the user's profile, as
    ``np.setdiff1d(item_ids, profile, assume_unique=True)`` gives them.

    One ``searchsorted`` places every user's profile in ``item_ids``, and
    each pool is one ``np.delete`` of its user's found positions; profile
    items outside ``item_ids`` are skipped. Only one pool is alive at a
    time: a boolean keep-matrix over every user and item saved about 2 ms
    more per draw on planted-mam, but raised search-rms's peak RSS.
    """
    ids = split.item_ids
    profiles = [split.user_items.get(int(u), _NO_ITEMS) for u in users]
    interacted = np.concatenate([_NO_ITEMS, *profiles])
    at = np.searchsorted(ids, interacted)
    found = at < len(ids)
    found[found] = ids[at[found]] == interacted[found]
    bounds = np.cumsum([0, *map(len, profiles)]).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        yield np.delete(ids, at[lo:hi][found[lo:hi]])


def sample_negatives(pool: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` distinct items of ``pool``, uniform without replacement.

    Falls back to the whole pool when it is smaller than ``count``;
    :meth:`SplitSet.candidates` reports such users.
    """
    if len(pool) < count:
        return pool
    return rng.choice(pool, size=count, replace=False)


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
    n_negatives: int,
) -> RankingMetrics:
    """Rank each eligible user's held-out positive among sampled negatives.

    ``scorer(users, items) -> scores`` scores global-id pairs elementwise;
    it gets every entry of :meth:`SplitSet.candidates` in one call, at
    those arrays' narrow dtype. A positive's rank is the number of its
    row's entries scoring at least as high, itself included, so a tie
    counts against it, but only an exact tie: under BLAS, identical item
    rows need not score equally. :func:`embedding_scorer`'s product gave
    1,100 identical rows unequal scores at 500 users x 64 dims
    (planted-mam's shape), and exactly equal ones at 60 x 110 x 8.
    Negatives derive from (seed, split, user) alone, so a split's rows are
    the same for every caller.
    """
    cand = split.candidates(which, seed, n_negatives)
    if not len(cand):
        raise ValueError(f"no eligible users in split {which!r}")
    ks = tuple(sorted(ks))
    scores = np.asarray(scorer(cand.users, cand.items), dtype=np.float64)
    counts = np.diff(np.append(cand.starts, len(scores)))
    at_least = scores >= np.repeat(scores[cand.starts], counts)
    ranks = np.add.reduceat(at_least, cand.starts, dtype=np.int64)
    gains = 1.0 / np.log2(ranks + 1)
    hr = {k: float(np.mean(ranks <= k)) for k in ks}
    ndcg = {k: float(np.mean(np.where(ranks <= k, gains, 0.0))) for k in ks}
    return RankingMetrics(which, ks, hr, ndcg, len(cand))


def embedding_scorer(graph: HinGraph, H_user: np.ndarray, H_item: np.ndarray):
    """Pairwise scorer over global ids, from one product of the two tables.

    One ``np.take`` reads the flat product at int64 positions built in
    place; narrow unsigned ids are cast before any offset is subtracted.
    Raises :class:`IndexError` when a user or item id falls outside its
    type's range, which the flat position alone would not catch.
    """
    u_off = int(graph.type_offsets[graph.schema.type_index(graph.schema.user_type)])
    i_off = int(graph.type_offsets[graph.schema.type_index(graph.schema.item_type)])
    n_users, n_items = len(H_user), len(H_item)
    S = (H_user @ H_item.T).reshape(-1)

    def scorer(users: np.ndarray, items: np.ndarray) -> np.ndarray:
        for kind, ids, lo, n in (("user", users, u_off, n_users), ("item", items, i_off, n_items)):
            if len(ids) and not lo <= int(ids.min()) <= int(ids.max()) < lo + n:
                raise IndexError(f"{kind} ids {int(ids.min())}..{int(ids.max())} fall outside [{lo}, {lo + n})")
        at = np.subtract(users, u_off, dtype=np.int64)
        at *= n_items
        at += items
        at -= i_off
        return np.take(S, at)

    return scorer


def evaluate_model(
    model: rec.HRecModel,
    split: SplitSet,
    which: str,
    ks: tuple[int, ...],
    seed: int,
    n_negatives: int,
    view_tag: str = "eval",
    stages: dict | None = None,
) -> RankingMetrics:
    H_user, H_item = rec.infer_embeddings(model, seed, view_tag, stages)
    scorer = embedding_scorer(model.graph, H_user, H_item)
    return evaluate(scorer, split, which, ks, seed, n_negatives)


def training_graph(graph: HinGraph, split: SplitSet, leak_guard: bool) -> HinGraph:
    """The HIN used for subgraph materialization; with ``leak_guard``, held-out edges removed."""
    if not leak_guard:
        return graph
    held = np.concatenate([split.validation, split.test])
    return graph.without_interactions(held)


class PerformanceProbe:
    """Validation NDCG@10 of an untrained recommender, as the search oracle.

    The probe owns a run's training graph, split, subgraph cache and MF
    init, and :meth:`model` is the one place that builds HRec from them,
    for the search's reward and for ``hinrec train`` alike; both pass the
    run's ``init_base``, so the reward scores exactly the init that
    training starts from. :meth:`pair` scores HRec at its MF init with no
    training step: the identity projections already score in the MF space,
    so the pair's meta-paths alone move the metric.

    Every init draw is keyed by what it parameterizes
    (:func:`~hinrec.recommender.attention_init`,
    :func:`~hinrec.recommender.inference_view`), so a path's table and score
    at init are the same in every set that holds it, and :meth:`pair` is
    :meth:`val_ndcg` at view tag ``"eval"`` with one ``stages`` dict for
    the run: each (side, path) is computed the first time a set holds it.
    Subgraphs are cached per meta-path and results by the pair, so one set
    always probes to the same value.
    """

    def __init__(self, graph: HinGraph, split: SplitSet, config):
        self.graph = training_graph(graph, split, config.leak_guard)
        self.split = split
        self.config = config
        self.init_base = derive_seed(config.seed, "hrec-init")
        self.calls = 0
        self.evaluations = 0
        self._subgraphs: dict[tuple[int, ...], mp.MetaPathSubgraph | None] = {}
        self._results: dict[tuple, float] = {}
        self._mf: tuple[np.ndarray, np.ndarray] | None = None
        self._stages: dict[tuple[str, tuple[int, ...]], tuple[Var, Var]] = {}

    @property
    def path_tables(self) -> int:
        """How many (side, path) tables the probe has computed."""
        return len(self._stages)

    def subgraph(self, path: mp.MetaPath) -> mp.MetaPathSubgraph | None:
        key = path.relation_ids
        if key not in self._subgraphs:
            self._subgraphs[key] = mp.materialize_subgraph(self.graph, path, DENSITY_THRESHOLD)
        return self._subgraphs[key]

    def side(self, pset: mp.MetaPathSet) -> rec.SideBundle:
        """The set's density-accepted paths and their cached subgraphs; raises
        :class:`~hinrec.recommender.AllPathsRejected` when none is accepted."""
        return rec.build_side(self.graph, pset, self.subgraph)

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
                derive_rng(self.config.seed, "mf-init"),
            )
        return self._mf

    def model(self, user_set: mp.MetaPathSet, item_set: mp.MetaPathSet, base: int) -> rec.HRecModel:
        """HRec over both sets at the MF init, with its attention parameters drawn from ``base``."""
        user_side, item_side = self.side(user_set), self.side(item_set)
        return rec.HRecModel(self.graph, user_side, item_side, base, self.mf_init())

    def val_ndcg(self, model: rec.HRecModel, view_tag: str, stages: dict | None = None) -> float:
        """The model's validation NDCG@10 against ``n_negatives`` sampled negatives."""
        metrics = evaluate_model(
            model, self.split, "validation", (10,), self.config.seed, self.config.n_negatives, view_tag, stages
        )
        return metrics.ndcg[10]

    def pair(self, user_set: mp.MetaPathSet, item_set: mp.MetaPathSet) -> float:
        self.calls += 1
        key = (user_set.key(), item_set.key())
        if key in self._results:
            return self._results[key]
        model = self.model(user_set, item_set, self.init_base)
        self.evaluations += 1
        self._results[key] = value = self.val_ndcg(model, "eval", self._stages)
        return value
