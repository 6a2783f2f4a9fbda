"""The meta-path search MDP and the random/greedy baseline searchers.

States are meta-path sets (encoded as normalized relation-count vectors),
actions are relation ids plus STOP (0). A non-STOP action r is completed
into the symmetric segment [r, comp(r)], spliced into each existing path
at the first type-compatible position, and added standalone when it fits
the set's form. Rewards come from a recommender performance probe:
STOP gives 0, a no-op action gives -1, everything else gives the probe
delta against the previous step.
"""
from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import metapath as mp
from .hin import STOP_ACTION, HinSchema, SchemaError
from .util import append_jsonl

log = logging.getLogger(__name__)


class ProbeFailure(RuntimeError):
    """Raised by a probe when a candidate set cannot be evaluated."""


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
    diagnostic: str = ""


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
    elif form == mp.USER_TO_ITEM:
        rids = [r]
    else:
        raise mp.MetaPathError(f"unknown path form {form!r}")
    return mp.MetaPathSet((mp.MetaPath.from_relations(schema, rids),), form, schema)


def apply_action(
    pset: mp.MetaPathSet, action: int, schema: HinSchema, max_len: int = mp.DEFAULT_MAX_PATH_LEN
) -> mp.MetaPathSet:
    """Extend every path at the first insertion point of [r, comp(r)]; keep the old paths.

    The standalone segment joins the set only when it already satisfies
    the form. The result preserves order and starts with the old set.
    """
    if action == STOP_ACTION:
        raise ValueError("STOP is handled by step(), not apply_action()")
    rel = schema.relation(action)
    seg_ids = (action, rel.comp)

    out: list[mp.MetaPath] = list(pset.paths)
    seen = set(pset.key())
    for path in pset.paths:
        if len(path) + 2 > max_len:
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
    if (
        len(seg) <= max_len
        and seg.relation_ids not in seen
        and mp._form_ok(seg, pset.form, schema)
    ):
        out.append(seg)
    return pset.replace(tuple(out))


def step(
    state: SearchState,
    action: int,
    probe: Callable[[mp.MetaPathSet], float],
    last_metric: float,
    schema: HinSchema,
    max_steps: int,
    max_len: int = mp.DEFAULT_MAX_PATH_LEN,
) -> StepOutcome:
    """One MDP transition. Only STOP or the step limit terminate an episode."""
    if action == STOP_ACTION:
        nxt = SearchState(state.pset, state.step_index + 1, state.encoding)
        return StepOutcome(nxt, 0.0, True, None, changed=False)

    limit_hit = state.step_index + 1 >= max_steps
    new_set = apply_action(state.pset, action, schema, max_len)
    if new_set.key() == state.pset.key():
        nxt = SearchState(state.pset, state.step_index + 1, state.encoding)
        return StepOutcome(nxt, -1.0, limit_hit, None, changed=False)
    try:
        metric = probe(new_set)
    except ProbeFailure as exc:
        nxt = SearchState(state.pset, state.step_index + 1, state.encoding)
        return StepOutcome(nxt, -1.0, limit_hit, None, changed=False, diagnostic=str(exc))
    nxt = SearchState.create(schema, new_set, state.step_index + 1)
    return StepOutcome(nxt, metric - last_metric, limit_hit, metric, changed=True)


class SearchEnv:
    """Episode driver binding a form, a probe, and optional trace output.

    ``probe_pair(user_set, item_set)`` is the evaluation oracle; the env
    holds the opposite form's set frozen and probes only its own side's
    candidates.
    """

    def __init__(
        self,
        schema: HinSchema,
        form: str,
        probe_pair: Callable[[mp.MetaPathSet, mp.MetaPathSet], float],
        frozen_other: mp.MetaPathSet,
        max_steps: int = 4,
        max_len: int = mp.DEFAULT_MAX_PATH_LEN,
        trace_path: str | None = None,
        trace_tag: str = "",
    ):
        self.schema = schema
        self.form = form
        self._probe_pair = probe_pair
        self.frozen_other = frozen_other
        self.max_steps = max_steps
        self.max_len = max_len
        self.trace_path = trace_path
        self.trace_tag = trace_tag
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

    def probe(self, pset: mp.MetaPathSet) -> float:
        if self.form == mp.ITEM_SYMMETRIC:
            return self._probe_pair(self.frozen_other, pset)
        return self._probe_pair(pset, self.frozen_other)

    def reset(self) -> SearchState:
        self.episode += 1
        start = initial_set(self.form, self.schema)
        if self._base_metric is None:
            self._base_metric = self.probe(start)
        self._last_metric = self._base_metric
        self._state = SearchState.create(self.schema, start)
        return self._state

    def step(self, action: int) -> StepOutcome:
        if self._state is None:
            raise RuntimeError("call reset() before step()")
        t0 = time.perf_counter()
        out = step(
            self._state, action, self.probe, self._last_metric, self.schema, self.max_steps, self.max_len
        )
        if out.probe_metric is not None:
            self._last_metric = out.probe_metric
        self._state = None if out.done else out.state
        if self.trace_path:
            append_jsonl(
                self.trace_path,
                {
                    "episode": self.episode,
                    "step": out.state.step_index,
                    "action": int(action),
                    "set": out.state.pset.labels(),
                    "reward": float(out.reward),
                    "probe_metric": out.probe_metric,
                    "wall_ms": (time.perf_counter() - t0) * 1e3,
                    "agent": self.trace_tag,
                },
            )
        return out


class Budget:
    """Search budget: a fixed iteration count, or a wall-clock limit for CLI parity."""

    def __init__(self, iters: int | None = None, seconds: float | None = None):
        if iters is None and seconds is None:
            raise ValueError("budget needs an iteration count or a time limit")
        self.iters = iters
        self.seconds = seconds
        self.used = 0
        self._t0 = time.perf_counter()

    def exhausted(self) -> bool:
        if self.iters is not None and self.used >= self.iters:
            return True
        if self.seconds is not None and time.perf_counter() - self._t0 >= self.seconds:
            return True
        return False

    def consume(self) -> None:
        self.used += 1


def _random_episode_set(
    env: SearchEnv, length: int, rng: np.random.Generator
) -> mp.MetaPathSet:
    pset = initial_set(env.form, env.schema)
    for _ in range(length):
        action = int(rng.integers(1, env.schema.n_relations + 1))
        pset = apply_action(pset, action, env.schema, env.max_len)
    return pset


def random_search(env: SearchEnv, budget: Budget, rng: np.random.Generator) -> mp.MetaPathSet:
    """Best-of-random-draws: sample action sequences, probe the final sets."""
    start = initial_set(env.form, env.schema)
    best_set, best_metric = start, -np.inf
    while not budget.exhausted():
        length = int(rng.integers(1, env.max_steps + 1))
        candidate = _random_episode_set(env, length, rng)
        budget.consume()
        try:
            metric = env.probe(candidate)
        except ProbeFailure:
            continue
        if metric > best_metric:
            best_set, best_metric = candidate, metric
    if not np.isfinite(best_metric):
        log.warning("random search completed zero probes; returning the initial set")
        return start
    return best_set


def greedy_search(
    env: SearchEnv, budget: Budget, candidates_per_round: int, rng: np.random.Generator
) -> mp.MetaPathSet:
    """Round-based hill climbing over random single-action extensions."""
    current = initial_set(env.form, env.schema)
    try:
        current_metric = env.probe(current)
    except ProbeFailure:
        current_metric = -np.inf
    while not budget.exhausted():
        best_cand, best_metric = None, current_metric
        for _ in range(candidates_per_round):
            if budget.exhausted():
                break
            action = int(rng.integers(1, env.schema.n_relations + 1))
            candidate = apply_action(current, action, env.schema, env.max_len)
            budget.consume()  # a drawn candidate is an iteration even when it is a no-op
            if candidate.key() == current.key():
                continue
            try:
                metric = env.probe(candidate)
            except ProbeFailure:
                continue
            if metric > best_metric:
                best_cand, best_metric = candidate, metric
        if best_cand is not None:
            current, current_metric = best_cand, best_metric
    return current
