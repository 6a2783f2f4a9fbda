import json

import numpy as np
import pytest

from hinrec import cli, evaluation
from hinrec.config import RunConfig
from hinrec.evaluation import PerformanceProbe, split_leave_one_out
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
    MAX_STEPS,
    SearchEnv,
    apply_action,
    greedy_search,
    initial_set,
    random_search,
)
from hinrec.util import derive_rng, read_json

from conftest import WATCH, WATCHED, ACT, ACTED, DIRECT, DIRECTED, random_hin, reachable_sets

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
    """Metric = 0.1 * number of user-side paths; records the user sets it scores.

    Its density filter accepts every path except those in ``rejected``.
    """

    def __init__(self, rejected=(), score=None):
        self.calls = []
        self.rejected = set(rejected)
        self.score = score or (lambda pset: 0.1 * len(pset))

    def pair(self, user_set, item_set):
        self.calls.append(user_set.key())
        return self.score(user_set)

    def subgraph(self, path):
        return None if path.relation_ids in self.rejected else path


def user_env(schema, probe, **kw):
    """A user-side env with the item side frozen at its initial set (``max_steps`` 4)."""
    return SearchEnv(schema, USER_SYMMETRIC, probe, initial_set(ITEM_SYMMETRIC, schema), max_steps=4, **kw)


class TestExtend:
    def test_keeps_only_accepted_new_paths(self, movie_schema):
        env = SearchEnv(
            movie_schema, ITEM_SYMMETRIC, FakeProbe(rejected={(ACTED, ACT, WATCHED, WATCH)}),
            initial_set(USER_SYMMETRIC, movie_schema), max_steps=4,
        )
        start = initial_set(ITEM_SYMMETRIC, movie_schema)
        assert apply_action(start, ACTED, movie_schema).labels() == ["MUM", "MAMUM", "MAM"]
        assert env.extend(start, ACTED).labels() == ["MUM", "MAM"]

    def test_returns_the_same_set_when_nothing_accepted_is_new(self, movie_schema):
        start = initial_set(USER_SYMMETRIC, movie_schema)
        env = user_env(movie_schema, FakeProbe(rejected={(WATCH, ACTED, ACT, WATCHED)}))
        assert env.extend(start, ACTED) is start
        assert env.extend(start, ACT) is start  # act: Actor -> Movie fits no user path


class TestStep:
    def test_stop_rewards_zero_and_ends(self, movie_schema):
        env = user_env(movie_schema, FakeProbe())
        state = env.reset()
        out = env.step(0)
        assert out.reward == 0.0
        assert out.done and not out.changed
        assert out.state.pset.key() == state.pset.key()
        assert out.probe_metric is None
        with pytest.raises(RuntimeError, match="reset"):
            env.step(ACTED)

    def test_no_change_action_rewards_minus_one(self, movie_schema):
        probe = FakeProbe()
        env = SearchEnv(movie_schema, ITEM_SYMMETRIC, probe, initial_set(USER_SYMMETRIC, movie_schema), max_steps=4)
        env.reset()
        out = env.step(ACT)
        assert out.reward == -1.0
        assert not out.done and not out.changed
        assert out.state.step_index == 1
        assert len(probe.calls) == 1  # the start set's probe only

    def test_action_adding_only_rejected_paths_is_a_no_op(self, movie_schema):
        probe = FakeProbe(rejected={(WATCH, ACTED, ACT, WATCHED)})
        env = user_env(movie_schema, probe)
        state = env.reset()
        out = env.step(ACTED)
        assert (out.reward, out.changed, out.probe_metric) == (-1.0, False, None)
        assert out.state.pset.key() == state.pset.key()
        assert len(probe.calls) == 1

    def test_reward_is_probe_delta(self, movie_schema):
        env = user_env(movie_schema, FakeProbe())
        env.reset()
        out = env.step(ACTED)
        assert out.reward == pytest.approx(0.2 - 0.1)
        assert out.probe_metric == pytest.approx(0.2)
        assert out.changed

    def test_step_limit_terminates(self, movie_schema):
        env = user_env(movie_schema, FakeProbe())
        env.reset()
        assert [env.step(ACTED).done for _ in range(4)] == [False, False, False, True]

    def test_reward_telescoping(self, movie_schema):
        env = user_env(movie_schema, FakeProbe())
        state = env.reset()
        first = env.probe(state.pset)
        rewards = []
        for action in (ACTED, DIRECTED):
            out = env.step(action)
            rewards.append(out.reward)
        assert sum(rewards) == pytest.approx(env.probe(out.state.pset) - first)


class TestEnv:
    def test_episode_flow_and_trace(self, movie_schema, tmp_path):
        trace = tmp_path / "trace.jsonl"
        env = user_env(movie_schema, FakeProbe(), trace_path=str(trace))
        env.reset()
        done = False
        steps = 0
        while not done:
            done = env.step(ACTED if steps == 0 else 0).done
            steps += 1
        lines = trace.read_text().strip().splitlines()
        assert len(lines) == steps
        for line in lines:
            assert set(json.loads(line)) == {"episode", "step", "action", "set", "reward", "probe_metric", "wall_ms", "agent"}

    def test_encoding_matches_encode_set(self, movie_schema):
        env = user_env(movie_schema, FakeProbe())
        state = env.reset()
        np.testing.assert_allclose(state.encoding, encode_set(movie_schema, state.pset))


class TestBaselines:
    def _env(self, schema, probe=None):
        return user_env(schema, probe or FakeProbe())

    def test_random_deterministic(self, movie_schema):
        a = random_search(self._env(movie_schema), 12, np.random.default_rng(5))
        b = random_search(self._env(movie_schema), 12, np.random.default_rng(5))
        assert a.key() == b.key()

    def test_random_returns_best_probed(self, movie_schema):
        probe = FakeProbe()
        out = random_search(self._env(movie_schema, probe), 10, np.random.default_rng(1))
        # FakeProbe scores by size; the first of the largest draws wins.
        largest = max(len(key) for key in probe.calls)
        assert out.key() == next(key for key in probe.calls if len(key) == largest)

    def test_greedy_keeps_current_when_no_improvement(self, movie_schema):
        env = self._env(movie_schema, FakeProbe(score=lambda pset: 0.5))
        out = greedy_search(env, 8, np.random.default_rng(2))
        assert out.key() == initial_set(USER_SYMMETRIC, movie_schema).key()

    def test_greedy_deterministic(self, movie_schema):
        a = greedy_search(self._env(movie_schema), 9, np.random.default_rng(7))
        b = greedy_search(self._env(movie_schema), 9, np.random.default_rng(7))
        assert a.key() == b.key()

    def test_baselines_trace_each_probe(self, movie_schema, tmp_path):
        probe = FakeProbe()
        trace = tmp_path / "trace.jsonl"
        env = user_env(movie_schema, probe, trace_path=str(trace), trace_tag="user")
        greedy_search(env, 6, np.random.default_rng(3))
        random_search(env, 5, np.random.default_rng(3))
        lines = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(lines) == len(probe.calls)
        for line in lines:
            assert set(line) == {"set", "reward", "probe_metric", "wall_ms", "agent"}
            assert line["reward"] == line["probe_metric"] == pytest.approx(0.1 * len(line["set"]))
        assert {line["agent"] for line in lines} == {"user"}

    @pytest.mark.parametrize("strategy", ["random", "greedy"])
    def test_baselines_probe_only_accepted_paths(self, movie_schema, strategy):
        rejected = {(WATCH, ACTED, ACT, WATCHED), (WATCH, DIRECTED, DIRECT, WATCHED)}
        probe = FakeProbe(rejected=rejected)
        env = self._env(movie_schema, probe)
        if strategy == "random":
            out = random_search(env, 20, np.random.default_rng(4))
        else:
            out = greedy_search(env, 20, np.random.default_rng(4))
        assert len(probe.calls) > 1
        for key in [*probe.calls, out.key()]:
            assert not rejected & set(key)

    def test_greedy_probes_only_sets_within_max_steps(self, movie_schema):
        """With every growth rewarded and budget to spare, greedy stops after ``max_steps`` moves."""
        probe = FakeProbe()
        env = self._env(movie_schema, probe)
        greedy_search(env, 400, np.random.default_rng(0))
        reachable = {pset.key() for pset, _ in reachable_sets(USER_SYMMETRIC, movie_schema, env.max_steps, env.extend)}
        assert set(probe.calls) <= reachable


def accepted_key(probe, pset):
    """The relation ids of the set's paths that the probe's density filter accepts."""
    return tuple(p.relation_ids for p in pset if probe.subgraph(p) is not None)


def walk_extends(graph, run_seed):
    """The run seed's probe, and per form the full walk's and the accepted walk's ``extend``.

    Each side is walked with the other frozen at its initial set, as ``cmd_search`` searches it.
    """
    schema = graph.schema
    split = split_leave_one_out(graph.interactions(), derive_rng(run_seed, "split"))
    probe = PerformanceProbe(graph, split, RunConfig(seed=run_seed))
    extends = {}
    for form, other in ((USER_SYMMETRIC, ITEM_SYMMETRIC), (ITEM_SYMMETRIC, USER_SYMMETRIC)):
        env = SearchEnv(schema, form, probe, initial_set(other, schema), MAX_STEPS)
        extends[form] = {"full": lambda pset, a: apply_action(pset, a, schema), "accepted": env.extend}
    return probe, extends


class TestAcceptedWalk:
    """Dropping rejected paths after every action loses no model the full walk reaches."""

    @pytest.mark.parametrize("run_seed", range(5))
    def test_accepted_walk_reaches_the_accepted_classes_of_the_full_walk(self, small_planted_1, run_seed):
        _, graph = small_planted_1
        probe, extends = walk_extends(graph, run_seed)
        sizes = {}
        for form, extend in extends.items():
            full = [s for s, _ in reachable_sets(form, graph.schema, MAX_STEPS, extend["full"])]
            accepted = [s for s, _ in reachable_sets(form, graph.schema, MAX_STEPS, extend["accepted"])]
            assert {s.key() for s in accepted} == {accepted_key(probe, s) for s in full}
            sizes[form] = (len(full), len(accepted))
        assert sizes == {USER_SYMMETRIC: (162, 4), ITEM_SYMMETRIC: (284, 81)}
        assert probe.calls == 0

    @pytest.mark.parametrize("walk", ["full", "accepted"])
    @pytest.mark.parametrize("run_seed", range(5))
    def test_walk_returns_distinct_sets_that_their_actions_reach(self, small_planted_1, run_seed, walk):
        """Each set comes once, and replaying its recorded actions from the initial set reaches it again."""
        _, graph = small_planted_1
        _, extends = walk_extends(graph, run_seed)
        for form, extend in extends.items():
            sets = reachable_sets(form, graph.schema, MAX_STEPS, extend[walk])
            keys = [pset.key() for pset, _ in sets]
            assert len(set(keys)) == len(keys)
            for pset, actions in sets:
                assert len(actions) <= MAX_STEPS
                replayed = initial_set(form, graph.schema)
                for action in actions:
                    replayed = extend[walk](replayed, action)
                assert replayed.key() == pset.key()

    def test_default_rms_probes_each_accepted_model_once(self, small_planted_1, tmp_path, monkeypatch):
        directory, _ = small_planted_1
        probed = []
        pair = evaluation.PerformanceProbe.pair

        def recording(probe, user_set, item_set):
            probed.append((accepted_key(probe, user_set), accepted_key(probe, item_set)))
            assert probed[-1] == (user_set.key(), item_set.key())
            return pair(probe, user_set, item_set)

        monkeypatch.setattr(evaluation.PerformanceProbe, "pair", recording)
        assert cli.main(["search", "--dataset", str(directory), "--strategy", "rms",
                         "--seed", "0", "--out", str(tmp_path)]) == 0
        doc = read_json(tmp_path / "sets.json")
        assert doc["probe_calls"] == len(probed)
        assert doc["probe_evaluations"] == len(set(probed))
        paths = {(side, path) for pair in probed for side, key in enumerate(pair) for path in key}
        assert doc["probe_path_tables"] == len(paths)
