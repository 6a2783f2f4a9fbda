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

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import metapath as mp
from .config import ConfigError
from .hin import STOP_ACTION, HinSchema, SchemaError
from .util import append_jsonl


class ProbeFailure(ValueError):
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
    else:
        raise mp.MetaPathError(f"unknown path form {form!r}")
    return mp.MetaPathSet((mp.MetaPath.from_relations(schema, rids),), form, schema)


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


def step(
    state: SearchState,
    action: int,
    probe: Callable[[mp.MetaPathSet], float],
    last_metric: float,
    schema: HinSchema,
    max_steps: int,
) -> StepOutcome:
    """One MDP transition. Only STOP or the step limit terminate an episode."""
    if action == STOP_ACTION:
        nxt = SearchState(state.pset, state.step_index + 1, state.encoding)
        return StepOutcome(nxt, 0.0, True, None, changed=False)

    limit_hit = state.step_index + 1 >= max_steps
    new_set = apply_action(state.pset, action, schema)
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

    :meth:`step` writes one trace line per MDP step; the baseline searches
    write one per probe instead.

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
        trace_path: str | None = None,
        trace_tag: str = "",
    ):
        self.schema = schema
        self.form = form
        self._probe_pair = probe_pair
        self.frozen_other = frozen_other
        self.max_steps = max_steps
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
        out = step(self._state, action, self.probe, self._last_metric, self.schema, self.max_steps)
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


def _random_episode_set(
    env: SearchEnv, length: int, rng: np.random.Generator
) -> mp.MetaPathSet:
    pset = initial_set(env.form, env.schema)
    for _ in range(length):
        action = int(rng.integers(1, env.schema.n_relations + 1))
        pset = apply_action(pset, action, env.schema)
    return pset


def _baseline_probe(env: SearchEnv, pset: mp.MetaPathSet) -> float | None:
    """Probe ``pset`` for a baseline search; ``None`` when the probe fails.

    Appends one line per probe to the env's trace. A baseline takes no MDP
    step, so the line's reward is the probe metric itself, or 0.0 with a
    null ``probe_metric`` when the probe fails.
    """
    t0 = time.perf_counter()
    try:
        metric = env.probe(pset)
    except ProbeFailure:
        metric = None
    if env.trace_path:
        append_jsonl(
            env.trace_path,
            {
                "set": pset.labels(),
                "reward": 0.0 if metric is None else float(metric),
                "probe_metric": metric,
                "wall_ms": (time.perf_counter() - t0) * 1e3,
                "agent": env.trace_tag,
            },
        )
    return metric


def random_search(env: SearchEnv, budget: int, rng: np.random.Generator) -> mp.MetaPathSet:
    """Best-of-random-draws: sample ``budget`` action sequences, probe the final sets.

    A zero budget returns the initial set. Raises :class:`ProbeFailure`
    when every probe fails.
    """
    if budget <= 0:
        return initial_set(env.form, env.schema)
    best_set, best_metric = None, -np.inf
    for _ in range(budget):
        length = int(rng.integers(1, env.max_steps + 1))
        candidate = _random_episode_set(env, length, rng)
        metric = _baseline_probe(env, candidate)
        if metric is not None and metric > best_metric:
            best_set, best_metric = candidate, metric
    if best_set is None:
        raise ProbeFailure(f"random search: no probe succeeded in {budget} draws")
    return best_set


def greedy_search(
    env: SearchEnv, budget: int, candidates_per_round: int, rng: np.random.Generator
) -> mp.MetaPathSet:
    """Round-based hill climbing over random single-action extensions.

    ``budget`` counts drawn candidates, no-ops included; the start set's
    probe is not counted. Raises :class:`ConfigError` when
    ``candidates_per_round`` is below 1, since no round would spend budget,
    and :class:`ProbeFailure` when every probe fails.
    """
    if candidates_per_round < 1:
        raise ConfigError(f"greedy_candidates must be at least 1, got {candidates_per_round}")
    current = initial_set(env.form, env.schema)
    current_metric = _baseline_probe(env, current)
    if current_metric is None:
        current_metric = -np.inf
    remaining = budget
    while remaining > 0:
        best_cand, best_metric = None, current_metric
        for _ in range(min(candidates_per_round, remaining)):
            remaining -= 1
            action = int(rng.integers(1, env.schema.n_relations + 1))
            candidate = apply_action(current, action, env.schema)
            if candidate.key() == current.key():
                continue
            metric = _baseline_probe(env, candidate)
            if metric is not None and metric > best_metric:
                best_cand, best_metric = candidate, metric
        if best_cand is not None:
            current, current_metric = best_cand, best_metric
    if current_metric == -np.inf:
        raise ProbeFailure("greedy search: no probe succeeded")
    return current
