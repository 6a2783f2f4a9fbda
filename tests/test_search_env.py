import json

import numpy as np
import pytest

from hinrec.config import ConfigError
from hinrec.hin import HinSchema
from hinrec.metapath import (
    ITEM_SYMMETRIC,
    MAX_PATH_LEN,
    USER_SYMMETRIC,
    MetaPath,
    MetaPathSet,
    encode_set,
)
from hinrec.search_env import (
    ProbeFailure,
    SearchEnv,
    SearchState,
    apply_action,
    greedy_search,
    initial_set,
    random_search,
    step,
)

from conftest import WATCH, WATCHED, ACT, ACTED, DIRECT, DIRECTED, random_hin

FRIEND_SCHEMA = HinSchema.parse(
    "node_types: User, Movie, Actor\n"
    "watch: User -> Movie ~ watched\n"
    "friend: User -> User ~ friend\n"
    "act: Actor -> Movie ~ acted\n"
    "interaction_relation: watch\n"
)


class TestInitialSet:
    def test_user_symmetric(self, movie_schema):
        s = initial_set(USER_SYMMETRIC, movie_schema)
        assert s.labels() == ["UMU"]
        assert s.key() == ((WATCH, WATCHED),)

    def test_item_symmetric(self, movie_schema):
        s = initial_set(ITEM_SYMMETRIC, movie_schema)
        assert s.labels() == ["MUM"]

    def test_requires_interaction(self):
        schema = HinSchema.parse("node_types: A, B\nr: A -> B ~ rx\n")
        with pytest.raises(Exception, match="interaction"):
            initial_set(USER_SYMMETRIC, schema)


class TestApplyAction:
    def test_paper_worked_example(self, movie_schema):
        """UMU extended by the movie->actor relation gives UMAMU; MAM is excluded."""
        start = initial_set(USER_SYMMETRIC, movie_schema)
        out = apply_action(start, ACTED, movie_schema)
        assert out.labels() == ["UMU", "UMAMU"]
        assert out.key() == ((WATCH, WATCHED), (WATCH, ACTED, ACT, WATCHED))

    def test_friend_relation_first_position_and_standalone(self):
        start = initial_set(USER_SYMMETRIC, FRIEND_SCHEMA)
        friend = FRIEND_SCHEMA.by_name("friend").rid
        out = apply_action(start, friend, FRIEND_SCHEMA)
        # Hand-trace: insert at the first U (position 0) -> U-U-U-M-U, plus
        # the standalone U-U-U which is form-valid.
        assert out.labels() == ["UMU", "UUUMU", "UUU"]

    def test_no_insertion_position_returns_same_set(self, movie_schema):
        start = initial_set(ITEM_SYMMETRIC, movie_schema)
        out = apply_action(start, ACT, movie_schema)  # act: Actor -> Movie
        assert out.key() == start.key()

    def test_item_side_action_adds_standalone(self, movie_schema):
        start = initial_set(ITEM_SYMMETRIC, movie_schema)
        out = apply_action(start, ACTED, movie_schema)
        assert out.labels() == ["MUM", "MAMUM", "MAM"]

    def test_max_len_blocks_long_extensions(self, movie_schema):
        """A path at MAX_PATH_LEN relations is kept but not extended; a shorter one still is."""
        longest = (WATCH, *(ACTED, ACT) * 3, WATCHED)
        assert len(longest) == MAX_PATH_LEN
        start = MetaPathSet(
            (MetaPath.from_relations(movie_schema, (WATCH, WATCHED)), MetaPath.from_relations(movie_schema, longest)),
            USER_SYMMETRIC,
            movie_schema,
        )
        out = apply_action(start, ACTED, movie_schema)
        assert out.labels() == ["UMU", "UMAMAMAMU", "UMAMU"]

    def test_old_set_is_prefix(self, movie_schema):
        current = initial_set(USER_SYMMETRIC, movie_schema)
        rng = np.random.default_rng(0)
        for _ in range(6):
            action = int(rng.integers(1, 7))
            new = apply_action(current, action, movie_schema)
            assert new.key()[: len(current)] == current.key()
            current = new

    def test_monotone_growth_and_form_preservation(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            graph = random_hin(rng, max_nodes=6)
            schema = graph.schema
            candidates = [r for r in schema.relations]
            inter = candidates[int(rng.integers(len(candidates)))]
            schema = HinSchema(schema.node_types, schema.relations, inter.rid)
            form = (USER_SYMMETRIC, ITEM_SYMMETRIC)[int(rng.integers(2))]
            current = initial_set(form, schema)
            for _ in range(4):
                action = int(rng.integers(1, schema.n_relations + 1))
                new = apply_action(current, action, schema)
                assert len(new) >= len(current)
                for path in new:
                    assert path.start_type == path.end_type
                current = new

    def test_idempotent_no_change(self, movie_schema):
        start = initial_set(ITEM_SYMMETRIC, movie_schema)
        once = apply_action(start, ACT, movie_schema)
        twice = apply_action(once, ACT, movie_schema)
        assert once.key() == twice.key() == start.key()


class FakeProbe:
    """Metric = 0.1 * number of paths; records calls."""

    def __init__(self, fail_on=None):
        self.calls = []
        self.fail_on = fail_on or set()

    def __call__(self, pset):
        key = pset.key()
        if key in self.fail_on:
            raise ProbeFailure("degenerate set")
        self.calls.append(key)
        return 0.1 * len(pset)


class TestStep:
    def _state(self, schema, form=USER_SYMMETRIC):
        return SearchState.create(schema, initial_set(form, schema))

    def test_stop_rewards_zero_and_ends(self, movie_schema):
        state = self._state(movie_schema)
        out = step(state, 0, FakeProbe(), 0.1, movie_schema, max_steps=4)
        assert out.reward == 0.0
        assert out.done
        assert out.state.pset.key() == state.pset.key()
        assert out.probe_metric is None

    def test_no_change_action_rewards_minus_one(self, movie_schema):
        state = self._state(movie_schema, ITEM_SYMMETRIC)
        out = step(state, ACT, FakeProbe(), 0.1, movie_schema, max_steps=4)
        assert out.reward == -1.0
        assert not out.done
        assert out.state.step_index == 1

    def test_reward_is_probe_delta(self, movie_schema):
        state = self._state(movie_schema)
        out = step(state, ACTED, FakeProbe(), 0.1, movie_schema, max_steps=4)
        assert out.reward == pytest.approx(0.2 - 0.1)
        assert out.probe_metric == pytest.approx(0.2)

    def test_step_limit_terminates(self, movie_schema):
        state = SearchState.create(movie_schema, initial_set(USER_SYMMETRIC, movie_schema))
        state = SearchState(state.pset, 3, state.encoding)
        out = step(state, ACTED, FakeProbe(), 0.0, movie_schema, max_steps=4)
        assert out.done

    def test_probe_failure_maps_to_minus_one(self, movie_schema):
        probe = FakeProbe(fail_on={((WATCH, WATCHED), (WATCH, ACTED, ACT, WATCHED))})
        state = self._state(movie_schema)
        out = step(state, ACTED, probe, 0.0, movie_schema, max_steps=4)
        assert out.reward == -1.0
        assert out.state.pset.key() == state.pset.key()
        assert "degenerate" in out.diagnostic

    def test_reward_telescoping(self, movie_schema):
        probe = FakeProbe()
        env = SearchEnv(movie_schema, USER_SYMMETRIC, lambda u, i: probe(u), initial_set(ITEM_SYMMETRIC, movie_schema), max_steps=4)
        state = env.reset()
        first = env.probe(state.pset)
        rewards = []
        for action in (ACTED, DIRECTED):
            out = env.step(action)
            rewards.append(out.reward)
        assert sum(rewards) == pytest.approx(env.probe(out.state.pset) - first)


class TestEnv:
    def _env(self, schema, **kw):
        probe = FakeProbe()
        return SearchEnv(
            schema, USER_SYMMETRIC, lambda u, i: probe(u), initial_set(ITEM_SYMMETRIC, schema),
            max_steps=4, **kw,
        ), probe

    def test_episode_flow_and_trace(self, movie_schema, tmp_path):
        trace = tmp_path / "trace.jsonl"
        env, _ = self._env(movie_schema, trace_path=str(trace))
        env.reset()
        done = False
        steps = 0
        while not done:
            done = env.step(ACTED if steps == 0 else 0).done
            steps += 1
        lines = trace.read_text().strip().splitlines()
        assert len(lines) == steps
        import json

        rec = json.loads(lines[0])
        assert set(rec) >= {"episode", "step", "action", "set", "reward", "probe_metric", "wall_ms"}

    def test_encoding_matches_encode_set(self, movie_schema):
        env, _ = self._env(movie_schema)
        state = env.reset()
        np.testing.assert_allclose(state.encoding, encode_set(movie_schema, state.pset))


class TestBaselines:
    def _env(self, schema):
        probe = FakeProbe()
        return SearchEnv(
            schema, USER_SYMMETRIC, lambda u, i: probe(u), initial_set(ITEM_SYMMETRIC, schema), max_steps=4
        )

    def test_random_zero_budget_returns_initial(self, movie_schema):
        env = self._env(movie_schema)
        out = random_search(env, 0, np.random.default_rng(0))
        assert out.key() == initial_set(USER_SYMMETRIC, movie_schema).key()

    def test_random_deterministic(self, movie_schema):
        a = random_search(self._env(movie_schema), 12, np.random.default_rng(5))
        b = random_search(self._env(movie_schema), 12, np.random.default_rng(5))
        assert a.key() == b.key()

    def test_random_returns_best_probed(self, movie_schema):
        env = self._env(movie_schema)
        out = random_search(env, 10, np.random.default_rng(1))
        # FakeProbe scores by size, so the winner is at least as large as the start.
        assert len(out) >= 1

    def test_greedy_keeps_current_when_no_improvement(self, movie_schema):
        class FlatProbe:
            def __call__(self, pset):
                return 0.5

        env = SearchEnv(
            movie_schema, USER_SYMMETRIC, lambda u, i: FlatProbe()(u),
            initial_set(ITEM_SYMMETRIC, movie_schema), max_steps=4,
        )
        out = greedy_search(env, 8, 2, np.random.default_rng(2))
        assert out.key() == initial_set(USER_SYMMETRIC, movie_schema).key()

    def test_greedy_deterministic(self, movie_schema):
        a = greedy_search(self._env(movie_schema), 9, 3, np.random.default_rng(7))
        b = greedy_search(self._env(movie_schema), 9, 3, np.random.default_rng(7))
        assert a.key() == b.key()

    @pytest.mark.parametrize("candidates", [0, -1])
    def test_greedy_rejects_rounds_without_candidates(self, movie_schema, candidates):
        # A round with no candidates spends no budget, so the search would never end.
        with pytest.raises(ConfigError, match="greedy_candidates"):
            greedy_search(self._env(movie_schema), 8, candidates, np.random.default_rng(0))

    def test_baselines_trace_each_probe_and_failures(self, movie_schema, tmp_path):
        start = initial_set(USER_SYMMETRIC, movie_schema)
        probe = FakeProbe(fail_on={start.key()})
        trace = tmp_path / "trace.jsonl"
        env = SearchEnv(
            movie_schema, USER_SYMMETRIC, lambda u, i: probe(u), initial_set(ITEM_SYMMETRIC, movie_schema),
            max_steps=4, trace_path=str(trace), trace_tag="user",
        )
        greedy_search(env, 6, 2, np.random.default_rng(3))
        random_search(env, 5, np.random.default_rng(3))
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        failed = [line for line in lines if line["probe_metric"] is None]
        assert lines[0] in failed
        assert len(lines) == len(failed) + len(probe.calls)
        for line in failed:
            assert line["set"] == start.labels() and line["reward"] == 0.0
        for line in lines:
            if line["probe_metric"] is not None:
                assert line["reward"] == line["probe_metric"] == pytest.approx(0.1 * len(line["set"]))
        assert {line["agent"] for line in lines} == {"user"}

    @pytest.mark.parametrize("strategy", ["random", "greedy"])
    def test_raises_when_every_probe_fails(self, movie_schema, strategy):
        def failing(u, i):
            raise ProbeFailure("degenerate set")

        env = SearchEnv(movie_schema, USER_SYMMETRIC, failing, initial_set(ITEM_SYMMETRIC, movie_schema), max_steps=4)
        with pytest.raises(ProbeFailure, match=f"{strategy} search: no probe succeeded"):
            if strategy == "random":
                random_search(env, 5, np.random.default_rng(0))
            else:
                greedy_search(env, 6, 2, np.random.default_rng(0))

    def test_greedy_single_candidate_walks(self, movie_schema):
        out = greedy_search(self._env(movie_schema), 6, 1, np.random.default_rng(11))
        assert len(out) >= 1
