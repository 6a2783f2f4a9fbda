"""The meta-path search MDP and the random/greedy baseline searchers.

:class:`SearchEnv` owns the search space of one side: its start set, its
action draw, the successor of a set and the trace. rms steps it as an MDP;
:func:`random_search` and :func:`greedy_search` are loops over the same
start set, draw and successor, and probe through :meth:`SearchEnv.score`.

States are meta-path sets (encoded as normalized relation-count vectors),
actions are relation ids plus STOP (0). A non-STOP action r is completed
into the symmetric segment [r, comp(r)], spliced into each existing path
at the first type-compatible position, and added standalone when it fits
the set's form (:func:`apply_action`). :meth:`SearchEnv.extend` then drops
each new path whose subgraph the density filter rejects, so every state,
and every set a search probes, holds only accepted paths: one set per
model. Rewards come from a recommender performance probe: STOP gives 0,
an action that adds no accepted path gives -1, everything else gives the
probe delta against the previous step.

The probe cannot fail inside a search: ``hinrec search`` checks both
initial sets against the density filter before any strategy runs, and
raises :class:`~hinrec.recommender.AllPathsRejected` there.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import metapath as mp
from .hin import STOP_ACTION, HinSchema, SchemaError
from .recommender import AllPathsRejected
from .util import append_jsonl

# The fault's former name, kept while bench/tracing.py imports it.
ProbeFailure = AllPathsRejected
# Actions greedy search draws per round: this reproduction's own width, not
# one the paper gives.
GREEDY_CANDIDATES = 4
# Moves per rms episode, random walk and greedy search; ``hinrec search``
# passes it to every :class:`SearchEnv`.
MAX_STEPS = 4


@dataclass(frozen=True)
class SearchState:
    pset: mp.MetaPathSet
    step_index: int
    encoding: np.ndarray

    @classmethod
    def create(cls, schema: HinSchema, pset: mp.MetaPathSet, step_index: int = 0) -> "SearchState":
        return cls(pset, step_index, mp.encode_set(schema, pset))


@dataclass(frozen=True)
class StepOutcome:
    state: SearchState
    reward: float
    done: bool
    probe_metric: float | None
    changed: bool


def initial_set(form: str, schema: HinSchema) -> mp.MetaPathSet:
    """The smallest form-valid set built from the interaction relation."""
    if not schema.interaction:
        raise SchemaError("schema designates no interaction relation")
    r = schema.interaction
    rc = schema.relation(r).comp
    if form == mp.USER_SYMMETRIC:
        rids = [r, rc]
    elif form == mp.ITEM_SYMMETRIC:
        rids = [rc, r]
    else:
        raise mp.MetaPathError(f"unknown path form {form!r}")
    return mp.MetaPathSet.from_relations(schema, form, [rids])


def apply_action(pset: mp.MetaPathSet, action: int, schema: HinSchema) -> mp.MetaPathSet:
    """Extend every path at the first insertion point of [r, comp(r)]; keep the old paths.

    A path is extended only while the result stays within
    :data:`~hinrec.metapath.MAX_PATH_LEN` relations. The standalone segment
    joins the set only when it already satisfies the form. The result
    preserves order and starts with the old set.
    """
    if action == STOP_ACTION:
        raise ValueError("STOP is handled by step(), not apply_action()")
    rel = schema.relation(action)
    seg_ids = (action, rel.comp)

    out: list[mp.MetaPath] = list(pset.paths)
    seen = set(pset.key())
    for path in pset.paths:
        if len(path) + 2 > mp.MAX_PATH_LEN:
            continue
        try:
            pos = path.node_types.index(rel.head)
        except ValueError:
            continue
        new_ids = path.relation_ids[:pos] + seg_ids + path.relation_ids[pos:]
        if new_ids not in seen:
            out.append(mp.MetaPath.from_relations(schema, new_ids))
            seen.add(new_ids)
    seg = mp.MetaPath.from_relations(schema, seg_ids)
    if seg.relation_ids not in seen and mp._form_ok(seg, pset.form, schema):
        out.append(seg)
    return pset.replace(tuple(out))


class SearchEnv:
    """The search space of one side, and the episode driver over it.

    It owns the space's rules for every strategy: the start set
    (:attr:`start`), the uniform action draw (:meth:`random_action`), the
    successor of a set (:meth:`extend`) and the trace. :meth:`step` writes
    one trace line per MDP step; :meth:`score`, the baseline searches'
    probe, writes one per probe instead.

    ``probe`` is the evaluation oracle, a
    :class:`~hinrec.evaluation.PerformanceProbe` or any object with its
    ``pair(user_set, item_set)`` and ``subgraph(path)``; ``subgraph``
    returns ``None`` for a path the density filter rejects. The env holds
    the opposite form's set frozen and probes only its own side's
    candidates.
    """

    def __init__(
        self,
        schema: HinSchema,
        form: str,
        probe,
        frozen_other: mp.MetaPathSet,
        max_steps: int,
        trace_path: str | None = None,
        trace_tag: str = "",
    ):
        self.schema = schema
        self.form = form
        self._probe = probe
        self.frozen_other = frozen_other
        self.max_steps = max_steps
        self.trace_path = trace_path
        self.trace_tag = trace_tag
        self.start = initial_set(form, schema)
        self.episode = -1
        self._state: SearchState | None = None
        self._last_metric = 0.0
        self._base_metric: float | None = None

    @property
    def n_actions(self) -> int:
        return self.schema.n_relations + 1

    @property
    def state_dim(self) -> int:
        return self.schema.n_relations

    def action_mask(self) -> np.ndarray:
        return np.ones(self.n_actions, dtype=bool)

    def random_action(self, rng: np.random.Generator) -> int:
        """A uniform draw over the non-STOP actions."""
        return int(rng.integers(1, self.schema.n_relations + 1))

    def probe(self, pset: mp.MetaPathSet) -> float:
        if self.form == mp.ITEM_SYMMETRIC:
            return self._probe.pair(self.frozen_other, pset)
        return self._probe.pair(pset, self.frozen_other)

    def score(self, pset: mp.MetaPathSet) -> float:
        """Probe ``pset`` for a baseline search and trace it.

        A baseline takes no MDP step, so the line's reward is the probe
        metric itself.
        """
        t0 = time.perf_counter()
        metric = self.probe(pset)
        self._trace(t0, pset, metric, metric)
        return metric

    def extend(self, pset: mp.MetaPathSet, action: int) -> mp.MetaPathSet:
        """:func:`apply_action`, keeping only the new paths the density filter accepts.

        Returns ``pset`` itself when no accepted path is new.
        """
        grown = apply_action(pset, action, self.schema)
        new = [path for path in grown.paths[len(pset):] if self._probe.subgraph(path) is not None]
        return pset.replace(pset.paths + tuple(new)) if new else pset

    def reset(self) -> SearchState:
        self.episode += 1
        if self._base_metric is None:
            self._base_metric = self.probe(self.start)
        self._last_metric = self._base_metric
        self._state = SearchState.create(self.schema, self.start)
        return self._state

    def step(self, action: int) -> StepOutcome:
        """One MDP transition. Only STOP or the step limit terminate an episode."""
        state = self._state
        if state is None:
            raise RuntimeError("call reset() before step()")
        t0 = time.perf_counter()
        index = state.step_index + 1
        unchanged = SearchState(state.pset, index, state.encoding)
        if action == STOP_ACTION:
            out = StepOutcome(unchanged, 0.0, True, None, changed=False)
        else:
            done = index >= self.max_steps
            new_set = self.extend(state.pset, action)
            if new_set is state.pset:
                out = StepOutcome(unchanged, -1.0, done, None, changed=False)
            else:
                metric = self.probe(new_set)
                nxt = SearchState.create(self.schema, new_set, index)
                out = StepOutcome(nxt, metric - self._last_metric, done, metric, changed=True)
                self._last_metric = metric
        self._state = None if out.done else out.state
        self._trace(t0, out.state.pset, out.reward, out.probe_metric,
                    episode=self.episode, step=out.state.step_index, action=int(action))
        return out

    def _trace(self, t0: float, pset: mp.MetaPathSet, reward: float, probe_metric: float | None, **step) -> None:
        """Append one line to the trace, if any; ``step`` holds an MDP step's own fields."""
        if self.trace_path:
            wall_ms = (time.perf_counter() - t0) * 1e3
            append_jsonl(self.trace_path, {**step, "set": pset.labels(), "reward": float(reward),
                                           "probe_metric": probe_metric, "wall_ms": wall_ms, "agent": self.trace_tag})


def random_search(env: SearchEnv, budget: int, rng: np.random.Generator) -> mp.MetaPathSet:
    """Best of ``budget`` random walks from ``env.start``, by the probe of each walk's last set.

    Each walk draws its length in [1, ``max_steps``], then that many
    actions. ``budget`` is at least 1, since ``iter_limit`` is at least 2;
    of equal probe values the earliest walk wins.
    """

    def walk() -> mp.MetaPathSet:
        pset = env.start
        for _ in range(int(rng.integers(1, env.max_steps + 1))):
            pset = env.extend(pset, env.random_action(rng))
        return pset

    return max((walk() for _ in range(budget)), key=env.score)


def greedy_search(env: SearchEnv, budget: int, rng: np.random.Generator) -> mp.MetaPathSet:
    """Round-based hill climbing from ``env.start`` over random single-action extensions.

    Each round draws up to :data:`GREEDY_CANDIDATES` actions from the
    current set and moves to the best candidate that beats it. The search
    ends when ``budget`` is spent or after ``max_steps`` moves, so it probes
    only sets an rms episode or a random walk can reach. ``budget`` counts
    drawn candidates, no-ops included; the start set's probe is not counted.
    """
    current = env.start
    current_metric = env.score(current)
    remaining, moves = budget, 0
    while remaining > 0 and moves < env.max_steps:
        best, best_metric = current, current_metric
        for _ in range(min(GREEDY_CANDIDATES, remaining)):
            remaining -= 1
            candidate = env.extend(current, env.random_action(rng))
            if candidate is current:
                continue
            metric = env.score(candidate)
            if metric > best_metric:
                best, best_metric = candidate, metric
        moves += best is not current
        current, current_metric = best, best_metric
    return current
