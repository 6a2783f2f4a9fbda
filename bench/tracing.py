"""In-memory spans and counters around hinrec's layer-boundary functions.

The package is not modified: :func:`install` replaces selected module
attributes and class methods with timing wrappers, and the callable it
returns puts the originals back. A span is ``(name, start, end, parent)``
with ``parent`` the index of the enclosing span, or -1 for a root. Only
boundary functions are wrapped (``sample_view``, not the ~144k calls to
``sample_neighbors`` beneath it), so the wrappers stay cheap.
"""
from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import partial, wraps


class Tracer:
    """Spans kept in memory plus named counters; single-threaded use only."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> float:
        name, start, _, parent = self.spans[index]
        end = time.perf_counter()
        self.spans[index] = (name, start, end, parent)
        self._stack.pop()
        return end - start

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - _covered(children.get(k, []))
        return dict(out)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _wrap(tracer: Tracer, name: str, fn, after=None, before=None):
    """One span and one ``<name>_calls`` count per call.

    ``before(args, kwargs)`` runs ahead of the call; its value reaches
    ``after(args, kwargs, result, exc, seconds, token)`` as ``token``.
    """

    @wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args, kwargs) if before else None
        index = tracer.open(name)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as err:
            exc = err
            raise
        finally:
            seconds = tracer.close(index)
            tracer.counters[f"{name}_calls"] += 1
            if after:
                after(args, kwargs, result, exc, seconds, token)

    return wrapper


def wrapper_cost(calls: int = 20000, rounds: int = 5) -> float:
    """Seconds one wrapped call adds over a bare one, median over ``rounds``.

    Measured on a no-op function, so it is the cost of a span and its call
    counter; the few ``after`` hooks that inspect results are not included.
    """

    def noop():
        return None

    wrapped = _wrap(Tracer(), "noop", noop)
    costs = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def _patch_function(tracer: Tracer, restore: list, module, attr: str, name: str, after=None):
    """Wrap ``module.attr`` in every hinrec module that imported that same function."""
    original = getattr(module, attr)
    wrapped = _wrap(tracer, name, original, after)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "hinrec" or mod_name.startswith("hinrec."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
                    restore.append((mod, key, original))


def _patch_method(tracer: Tracer, restore: list, cls, attr: str, name: str, after=None, before=None):
    original = cls.__dict__[attr]
    setattr(cls, attr, _wrap(tracer, name, original, after, before))
    restore.append((cls, attr, original))


def install(tracer: Tracer):
    """Wrap hinrec's layer-boundary functions; returns a callable that unwraps them."""
    from hinrec import autodiff, checkpoint, dqn, evaluation, hin, metapath, recommender, search_env, synth
    from hinrec.search_env import ProbeFailure

    c = tracer.counters

    def on_materialize(args, kwargs, result, exc, seconds, token):
        if exc is None and result is None:
            c["metapath.density_rejections"] += 1
        elif result is not None:
            c["metapath.subgraph_edges"] += len(result.dst)

    def on_evaluate(args, kwargs, result, exc, seconds, token):
        if result is not None:
            c["evaluation.users_ranked"] += result.n_users

    def on_probe(args, kwargs, result, exc, seconds, evaluations_before):
        # An all-paths-rejected set is a legitimate search outcome, not a failed operation.
        if isinstance(exc, ProbeFailure):
            c["evaluation.probe_failures"] += 1
        elif exc is None and args[0].evaluations > evaluations_before:
            tracer.samples["evaluation.probe_eval_s"].append(seconds)
        elif exc is None:
            c["evaluation.probe_cache_hits"] += 1

    def on_env_step(args, kwargs, result, exc, seconds, token):
        if result is not None and result.changed:
            c["search_env.changed_steps"] += 1

    def on_episode(args, kwargs, result, exc, seconds, token):
        if not kwargs.get("greedy", args[3] if len(args) > 3 else False):
            c["dqn.episodes"] += 1

    def on_observe(args, kwargs, result, exc, seconds, target_before):
        if args[0].target is not target_before:
            c["dqn.target_syncs"] += 1

    restore: list = []
    f = partial(_patch_function, tracer, restore)
    f(synth, "write_dataset", "synth.write_dataset")
    f(hin, "load_graph", "hin.load_graph")
    f(evaluation, "split_leave_one_out", "evaluation.split")
    f(metapath, "materialize_subgraph", "metapath.materialize", on_materialize)
    f(metapath, "sample_view", "metapath.sample_view")
    f(recommender, "mf_pretrain", "recommender.mf_pretrain")
    f(recommender, "draw_negatives", "recommender.draw_negatives")
    f(recommender, "forward", "recommender.forward")
    f(recommender, "infer_embeddings", "recommender.infer_embeddings")
    f(recommender, "build_side", "recommender.build_side")
    f(recommender, "train", "recommender.train")
    f(evaluation, "evaluate", "evaluation.evaluate", on_evaluate)
    f(dqn, "td_update", "dqn.td_update")
    f(dqn, "run_episode", "dqn.run_episode", on_episode)
    f(checkpoint, "save_arrays", "checkpoint.save")
    f(checkpoint, "load_arrays", "checkpoint.load")
    m = partial(_patch_method, tracer, restore)
    m(autodiff.Tape, "backward", "autodiff.backward")
    m(evaluation.PerformanceProbe, "pair", "evaluation.probe", on_probe, lambda a, kw: a[0].evaluations)
    m(search_env.SearchEnv, "step", "search_env.step", on_env_step)
    m(dqn.DqnAgent, "observe", "dqn.observe", on_observe, lambda a, kw: a[0].target)

    def uninstall():
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)

    return uninstall


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass as ``name -> (value, unit)``.

    ``*_s`` values are self times. A ratio over zero calls reads 0, as does
    the probe median when no probe evaluated; ``evaluation.probe_evaluations``
    is that median's sample count.
    """
    self_s = tracer.self_times()
    c = tracer.counters
    evals = tracer.samples["evaluation.probe_eval_s"]
    probe_calls = c["evaluation.probe_calls"]
    steps = c["search_env.step_calls"]
    out = {
        f"{name}_s": (self_s.get(name, 0.0), "s")
        for name in (
            "synth.write_dataset", "hin.load_graph", "evaluation.split",
            "metapath.materialize", "metapath.sample_view",
            "recommender.mf_pretrain", "recommender.draw_negatives", "recommender.forward",
            "autodiff.backward", "recommender.infer_embeddings", "recommender.build_side",
            "recommender.train", "evaluation.evaluate", "dqn.td_update",
            "checkpoint.save", "checkpoint.load", "cli.train", "cli.eval", "cli.search",
        )
    }
    counts = {
        "metapath.materialize_calls": c["metapath.materialize_calls"],
        "metapath.density_rejections": c["metapath.density_rejections"],
        "metapath.subgraph_edges": c["metapath.subgraph_edges"],
        "metapath.sample_view_calls": c["metapath.sample_view_calls"],
        "recommender.draw_negatives_calls": c["recommender.draw_negatives_calls"],
        "recommender.forward_calls": c["recommender.forward_calls"],
        "autodiff.backward_calls": c["autodiff.backward_calls"],
        "evaluation.users_ranked": c["evaluation.users_ranked"],
        "evaluation.probe_calls": probe_calls,
        "evaluation.probe_evaluations": len(evals),
        "evaluation.probe_failures": c["evaluation.probe_failures"],
        "search_env.steps": steps,
        "dqn.episodes": c["dqn.episodes"],
        "dqn.td_updates": c["dqn.td_update_calls"],
        "dqn.target_syncs": c["dqn.target_syncs"],
    }
    out.update({name: (float(value), "count") for name, value in counts.items()})
    out["evaluation.probe_cache_hit_ratio"] = (c["evaluation.probe_cache_hits"] / probe_calls if probe_calls else 0.0, "ratio")
    out["evaluation.probe_eval_s_p50"] = (statistics.median(evals) if evals else 0.0, "s")
    out["search_env.changed_ratio"] = (c["search_env.changed_steps"] / steps if steps else 0.0, "ratio")
    return out
