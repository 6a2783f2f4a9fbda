"""The vectorized hot paths against the loops they replaced.

The reference implementations below are the earlier per-element versions
of ``recommender.draw_negatives`` (one ``searchsorted`` per user per
rejection round), ``Tape.gather``'s backward (``np.add.at`` into zeros) and
``evaluation.evaluate`` (candidate rows redrawn on every call). The fast
paths must reproduce them bit for bit, down to the state of the random
generator they share, so that every trained model, metric and search
trajectory stays the same.
"""
from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from hinrec import cli, evaluation, recommender
from hinrec.autodiff import Tape, Var
from hinrec.evaluation import embedding_scorer, rank_position, split_leave_one_out
from hinrec.recommender import _in_sorted, draw_negatives, positive_keys
from hinrec.util import derive_rng


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def reference_per_user_items(pairs: np.ndarray, n_users: int) -> list[np.ndarray]:
    out: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n_users
    if len(pairs):
        order = np.lexsort((pairs[:, 1], pairs[:, 0]))
        sorted_pairs = pairs[order]
        users, starts = np.unique(sorted_pairs[:, 0], return_index=True)
        bounds = np.append(starts, len(sorted_pairs))
        for k, u in enumerate(users):
            out[int(u)] = sorted_pairs[bounds[k] : bounds[k + 1], 1]
    return out


def reference_draw_negatives(users, user_pos, n_items, rng, max_tries=100):
    j = rng.integers(0, n_items, size=len(users))
    for _ in range(max_tries):
        bad = np.zeros(len(users), dtype=bool)
        for u in np.unique(users):
            sel = users == u
            bad[sel] = _in_sorted(user_pos[u], j[sel])
        if not bad.any():
            return j
        j[bad] = rng.integers(0, n_items, size=int(bad.sum()))
    raise RuntimeError("could not draw negatives; catalog nearly saturated")


def reference_gather(self, x, idx):
    idx = np.asarray(idx, dtype=np.int64)

    def back(g):
        full = np.zeros_like(x.value)
        np.add.at(full, idx, g)
        x.accumulate(full)

    return self._emit(x.value[idx], back)


def reference_evaluate(scorer, split, which, ks, seed, n_negatives=499):
    held = split.held_out(which)
    if not held:
        raise ValueError(f"no eligible users in split {which!r}")
    ks = tuple(sorted(ks))

    def rank_one(u):
        positive = held[u]
        negs = evaluation.sample_negatives(split, u, n_negatives, derive_rng(seed, "negatives", which, u))
        candidates = np.concatenate([[positive], negs])
        return rank_position(scorer(u, candidates), 0)

    users = sorted(held)
    ranks_arr = np.asarray([rank_one(u) for u in users])
    hr = {k: float(np.mean([evaluation.hr_at_k(r, k) for r in ranks_arr])) for k in ks}
    ndcg = {k: float(np.mean([evaluation.ndcg_at_k(r, k) for r in ranks_arr])) for k in ks}
    return evaluation.RankingMetrics(which, ks, hr, ndcg, len(users))


# ---------------------------------------------------------------------------
# draw_negatives
# ---------------------------------------------------------------------------


def random_pairs(rng, n_users, n_items):
    """Distinct items per user: none for every fifth user, ``min(n_items - 1, 4)``
    for the next, and a random count below three quarters of the catalog for
    the rest, so that the rejection rounds do not run out."""
    rows = []
    for u in range(n_users):
        if u % 5 < 2:
            k = (0, min(n_items - 1, 4))[u % 5]
        else:
            k = int(rng.integers(0, max(1, 3 * n_items // 4)))
        rows.extend((u, int(i)) for i in rng.choice(n_items, size=k, replace=False))
    return np.asarray(rows, dtype=np.int64).reshape(-1, 2)


@pytest.mark.parametrize("n_items", [2, 3, 7, 50])
@pytest.mark.parametrize("seed", range(4))
def test_draw_negatives_matches_per_user_loop(n_items, seed):
    data = derive_rng(seed, "fast-paths", n_items)
    n_users = 25
    pairs = random_pairs(data, n_users, n_items)
    users = data.integers(0, n_users, size=300)
    assert set(users.tolist()) - set(pairs[:, 0].tolist())  # users with no positives are drawn for

    rng_fast, rng_ref = derive_rng(seed, "draw"), derive_rng(seed, "draw")
    fast = draw_negatives(users, positive_keys(pairs, n_items), n_items, rng_fast)
    ref = reference_draw_negatives(users, reference_per_user_items(pairs, n_users), n_items, rng_ref)
    np.testing.assert_array_equal(fast, ref)
    assert fast.dtype == ref.dtype
    assert rng_fast.bit_generator.state == rng_ref.bit_generator.state
    assert not _in_sorted(positive_keys(pairs, n_items), users * n_items + fast).any()


def test_draw_negatives_saturated_catalog_raises():
    pairs = np.asarray([[0, 0], [0, 1], [0, 2], [1, 0]])
    with pytest.raises(RuntimeError, match="saturated"):
        draw_negatives(np.asarray([1, 0, 1]), positive_keys(pairs, 3), 3, derive_rng(0, "sat"), max_tries=20)


# ---------------------------------------------------------------------------
# Tape.gather
# ---------------------------------------------------------------------------


def gather_grad(x0: np.ndarray, idx: np.ndarray, c: np.ndarray) -> np.ndarray:
    t = Tape()
    x = Var(x0.copy())
    t.backward(t.mul_const(t.gather(x, idx), c))
    return x.grad


@pytest.mark.parametrize(
    "shape, idx",
    [
        ((6,), [0, 3, 3, 5, 0, 0, 2]),
        ((6, 4), [0, 3, 3, 5, 0, 0, 2]),
        ((9, 3), np.random.default_rng(1).integers(0, 9, size=500)),
        ((40,), np.random.default_rng(2).integers(0, 40, size=2000)),
        ((5,), []),
        ((5, 2), []),
    ],
)
def test_gather_backward_bit_identical_to_add_at(monkeypatch, shape, idx):
    rng = np.random.default_rng(len(idx))
    idx = np.asarray(idx, dtype=np.int64)
    x0 = rng.normal(size=shape)
    c = rng.normal(size=(len(idx),) + shape[1:])
    fast = gather_grad(x0, idx, c)
    monkeypatch.setattr(Tape, "gather", reference_gather)
    ref = gather_grad(x0, idx, c)
    assert fast.dtype == ref.dtype == np.float64
    assert fast.shape == ref.shape == shape
    assert fast.tobytes() == ref.tobytes()


# ---------------------------------------------------------------------------
# Evaluation candidates
# ---------------------------------------------------------------------------


@pytest.fixture
def fresh_split(small_planted):
    """The conftest split, drawn again so its candidate cache starts empty."""
    graph, _, _ = small_planted
    split = split_leave_one_out(graph.interactions(), derive_rng(11, "split"))
    rng = np.random.default_rng(4)
    H_user = rng.normal(size=(graph.type_count("User"), 8))
    H_item = rng.normal(size=(graph.type_count("Movie"), 8))
    return split, embedding_scorer(graph, H_user, H_item)


def test_candidates_built_once_per_key(monkeypatch, fresh_split):
    split, scorer = fresh_split
    calls = Counter()
    original = evaluation.sample_negatives

    def counting(split_, user, count, rng):
        calls[count] += 1
        return original(split_, user, count, rng)

    monkeypatch.setattr(evaluation, "sample_negatives", counting)
    n_val = len(split.validation)
    for _ in range(3):
        evaluation.evaluate(scorer, split, "validation", (10,), seed=0, n_negatives=20)
    assert calls == {20: n_val}
    evaluation.evaluate(scorer, split, "validation", (10,), seed=0, n_negatives=30)
    evaluation.evaluate(scorer, split, "validation", (10,), seed=1, n_negatives=20)
    evaluation.evaluate(scorer, split, "test", (10,), seed=0, n_negatives=20)
    assert calls == {20: n_val + n_val + len(split.test), 30: n_val}
    rows = split.candidates("validation", 0, 20)
    assert rows is split.candidates("validation", 0, 20)
    assert list(rows) == sorted(split.held_out("validation"))
    assert all(not row.flags.writeable for row in rows.values())


@pytest.mark.parametrize("which", ["validation", "test"])
@pytest.mark.parametrize("n_negatives", [5, 99, 10_000])  # 10,000 exceeds the catalog: pool fallback
def test_cached_candidates_match_uncached_reference(fresh_split, which, n_negatives):
    split, scorer = fresh_split
    ks = (1, 10, 50)
    for seed in (0, 3):
        ref = reference_evaluate(scorer, split, which, ks, seed, n_negatives)
        assert evaluation.evaluate(scorer, split, which, ks, seed, n_negatives) == ref
        assert evaluation.evaluate(scorer, split, which, ks, seed, n_negatives) == ref  # from the cache


# ---------------------------------------------------------------------------
# End to end: train then eval, references against production
# ---------------------------------------------------------------------------


def train_then_eval(dataset, config, out):
    common = ["--dataset", str(dataset), "--config", str(config), "--seed", "0", "--out", str(out)]
    assert cli.main(["train", "--sets", str(config.parent / "sets.json"), *common]) == 0
    assert cli.main(["eval", "--checkpoint", str(out / "model.ckpt"), "--split", "test", *common]) == 0
    return {name: (out / name).read_bytes() for name in ("model.ckpt", "history.jsonl", "metrics.jsonl")}


def test_train_and_eval_outputs_match_reference_paths(monkeypatch, tmp_path):
    dataset = tmp_path / "data"
    assert cli.main(["synth", "--profile", "planted-mam-small", "--seed", "1", "--out", str(dataset)]) == 0
    (tmp_path / "sets.json").write_text(
        '{"user_set": {"paths": [{"relations": [1, 2]}, {"relations": [1, 4, 3, 2]}]},'
        ' "item_set": {"paths": [{"relations": [2, 1]}, {"relations": [4, 3]}]}}'
    )
    config = tmp_path / "run.cfg"
    config.write_text("rec_epochs = 2\n")
    fast = train_then_eval(dataset, config, tmp_path / "fast")

    used = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            used[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def reference_keys(pairs, n_items):
        # The per-user item lists the reference draw takes where production takes keys.
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        return reference_per_user_items(pairs, int(pairs[:, 0].max()) + 1)

    monkeypatch.setattr(recommender, "positive_keys", counted("keys", reference_keys))
    monkeypatch.setattr(recommender, "draw_negatives", counted("draw", reference_draw_negatives))
    monkeypatch.setattr(Tape, "gather", counted("gather", reference_gather))
    monkeypatch.setattr(evaluation, "evaluate", counted("evaluate", reference_evaluate))
    ref = train_then_eval(dataset, config, tmp_path / "ref")

    assert set(used) == {"keys", "draw", "gather", "evaluate"}
    for name in fast:
        assert fast[name] == ref[name], name
