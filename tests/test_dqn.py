import logging

import numpy as np
import pytest

from hinrec.config import RunConfig
from hinrec.dqn import (
    DqnAgent,
    QNetworkParams,
    ReplayBuffer,
    Transition,
    huber_loss,
    q_forward,
    search,
    select_action,
    td_update,
)


def make_params(n_in=4, n_out=5, hidden=(6, 7), seed=0):
    return QNetworkParams.init(n_in, n_out, hidden, np.random.default_rng(seed))


class TestForward:
    def test_zero_params_zero_output(self):
        p = make_params()
        for w in p.weights:
            w[:] = 0.0
        assert np.allclose(q_forward(p, np.ones(4)), 0.0)

    def test_single_layer_identity_pads(self):
        w = np.zeros((3, 5))
        w[:3, :3] = np.eye(3)
        p = QNetworkParams([w], [np.zeros(5)])
        s = np.asarray([0.3, -0.7, 1.1])
        np.testing.assert_allclose(q_forward(p, s), np.concatenate([s, [0.0, 0.0]]))

    def test_finite_in_finite_out(self):
        p = make_params()
        out = q_forward(p, np.random.default_rng(1).normal(size=4))
        assert np.all(np.isfinite(out))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            q_forward(make_params(), np.ones(3))


class TestSelectAction:
    def test_greedy_argmax(self):
        p = make_params(n_in=2, n_out=3, hidden=())
        p.weights[0][:] = 0.0
        p.biases[0][:] = [0.1, 0.9, 0.3]
        a = select_action(p, np.zeros(2), np.ones(3, dtype=bool), 0.0, np.random.default_rng(0))
        assert a == 1

    def test_tie_breaks_to_lowest_id(self):
        p = make_params(n_in=2, n_out=6, hidden=())
        p.weights[0][:] = 0.0
        p.biases[0][:] = [0.0, 0.0, 0.7, 0.1, 0.2, 0.7]
        a = select_action(p, np.zeros(2), np.ones(6, dtype=bool), 0.0, np.random.default_rng(0))
        assert a == 2

    def test_mask_respected(self):
        p = make_params(n_in=2, n_out=3, hidden=())
        p.weights[0][:] = 0.0
        p.biases[0][:] = [0.1, 0.9, 0.3]
        mask = np.asarray([True, False, True])
        assert select_action(p, np.zeros(2), mask, 0.0, np.random.default_rng(0)) == 2

    def test_epsilon_one_uniform_chi_square(self):
        """Frequencies within 3 sigma of uniform over 10k draws (binomial oracle)."""
        p = make_params(n_in=2, n_out=4, hidden=())
        rng = np.random.default_rng(42)
        n = 10_000
        counts = np.zeros(4)
        for _ in range(n):
            counts[select_action(p, np.zeros(2), np.ones(4, dtype=bool), 1.0, rng)] += 1
        expect = n / 4
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - expect) <= 3 * sigma)

    def test_greedy_shift_invariance(self):
        p = make_params(n_in=3, n_out=4, hidden=())
        shifted = QNetworkParams([w.copy() for w in p.weights], [b.copy() for b in p.biases])
        shifted.biases[0] += 5.0
        s = np.random.default_rng(3).normal(size=3)
        mask = np.ones(4, dtype=bool)
        a = select_action(p, s, mask, 0.0, np.random.default_rng(0))
        b = select_action(shifted, s, mask, 0.0, np.random.default_rng(0))
        assert a == b

    def test_pure_function_at_epsilon_zero(self):
        p = make_params(n_in=3, n_out=4)
        s = np.random.default_rng(9).normal(size=3)
        picks = {
            select_action(p, s, np.ones(4, dtype=bool), 0.0, np.random.default_rng(k))
            for k in range(5)
        }
        assert len(picks) == 1


class TestHuber:
    def test_quadratic_branch(self):
        assert huber_loss(0.5) == pytest.approx(0.125)

    def test_linear_branch(self):
        assert huber_loss(2.0) == pytest.approx(1.5)

    def test_boundary_continuity(self):
        assert huber_loss(1.0) == pytest.approx(0.5)
        assert huber_loss(-1.0) == pytest.approx(0.5)


class TestTdUpdate:
    def _batch(self, rng, p, n=6, n_in=4, n_out=5):
        return [
            Transition(
                rng.normal(size=n_in),
                int(rng.integers(n_out)),
                float(rng.normal()),
                rng.normal(size=n_in),
                bool(rng.random() < 0.3),
            )
            for _ in range(n)
        ]

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        params = make_params()
        target = make_params(seed=1)
        batch = self._batch(rng, params)

        def loss_of(p):
            s = np.stack([t.s for t in batch])
            s2 = np.stack([t.s_next for t in batch])
            a = np.asarray([t.a for t in batch])
            r = np.asarray([t.r for t in batch])
            done = np.asarray([t.done for t in batch])
            from hinrec.dqn import _forward_batch

            qn, _ = _forward_batch(target, s2)
            y = r + np.where(done, 0.0, 0.9 * qn.max(axis=1))
            q, _ = _forward_batch(p, s)
            return float(np.mean(huber_loss(q[np.arange(len(batch)), a] - y)))

        before = params.copy()
        td_update(params, target, batch, gamma=0.9, lr=1.0)
        # With lr = 1 the applied step equals the gradient: grad = before - after.
        h = 1e-5
        for k in range(len(before.weights)):
            grad_w = before.weights[k] - params.weights[k]
            fd = np.zeros_like(grad_w)
            for idx in np.ndindex(*grad_w.shape):
                orig = before.weights[k][idx]
                before.weights[k][idx] = orig + h
                up = loss_of(before)
                before.weights[k][idx] = orig - h
                down = loss_of(before)
                before.weights[k][idx] = orig
                fd[idx] = (up - down) / (2 * h)
            err = np.abs(grad_w - fd) / np.maximum(1.0, np.abs(fd))
            assert err.max() < 1e-4

    def test_single_terminal_transition_contracts(self):
        """After one small step, |Q(s,a) - r| strictly decreases (hand oracle)."""
        params = QNetworkParams(
            [np.asarray([[0.5]]), np.asarray([[0.8]])],
            [np.asarray([0.1]), np.asarray([0.0])],
        )
        target = params.copy()
        s = np.asarray([1.0])
        t = Transition(s, 0, 1.0, s, True)
        before = abs(q_forward(params, s)[0] - 1.0)
        td_update(params, target, [t], gamma=0.9, lr=0.05)
        after = abs(q_forward(params, s)[0] - 1.0)
        assert after < before

    def test_gamma_zero_targets_reward(self):
        params = make_params()
        target = make_params(seed=2)
        rng = np.random.default_rng(5)
        t = Transition(rng.normal(size=4), 1, 0.7, rng.normal(size=4) * 100, False)
        # With gamma=0 the huge next state must not matter: same update as done.
        p1, p2 = params.copy(), params.copy()
        td_update(p1, target, [t], gamma=0.0, lr=0.01)
        td_update(p2, target, [Transition(t.s, t.a, t.r, t.s_next, True)], gamma=0.5, lr=0.01)
        for w1, w2 in zip(p1.weights, p2.weights):
            np.testing.assert_allclose(w1, w2)

    def test_zero_everything_is_fixed_point(self):
        params = make_params()
        for w in params.weights:
            w[:] = 0.0
        target = params.copy()
        rng = np.random.default_rng(0)
        batch = [Transition(rng.normal(size=4), 2, 0.0, rng.normal(size=4), False)]
        loss = td_update(params, target, batch, gamma=0.9, lr=0.1)
        assert loss == 0.0
        assert all(np.allclose(w, 0.0) for w in params.weights)

    def test_rejects_bad_args(self):
        params = make_params()
        with pytest.raises(ValueError):
            td_update(params, params.copy(), [], 0.9, 0.1)
        t = Transition(np.zeros(4), 0, 0.0, np.zeros(4), False)
        with pytest.raises(ValueError):
            td_update(params, params.copy(), [t], 1.0, 0.1)


class TestReplayBuffer:
    def test_fifo_eviction(self):
        buf = ReplayBuffer(capacity=3)
        for k in range(5):
            buf.push(Transition(np.asarray([float(k)]), k, 0.0, np.asarray([0.0]), False))
        assert len(buf) == 3
        kept = sorted(t.a for t in buf._items)
        assert kept == [2, 3, 4]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(capacity=10)
        for k in range(10):
            buf.push(Transition(np.asarray([float(k)]), k, 0.0, np.asarray([0.0]), False))
        batch = buf.sample(10, np.random.default_rng(0))
        assert sorted(t.a for t in batch) == list(range(10))


class TestAgent:
    @pytest.mark.parametrize("total_steps, horizon", [(20, 10), (1, 1), (0, 1)])
    def test_epsilon_decays_over_half_the_total_steps(self, total_steps, horizon):
        agent = DqnAgent(3, 2, RunConfig(), seed=0, total_steps=total_steps)
        assert agent.eps_horizon == horizon
        for steps, expected in ((0, 1.0), (horizon, 0.1), (horizon + 7, 0.1)):
            agent.env_steps = steps
            assert agent.epsilon() == pytest.approx(expected)
        agent.env_steps = 5
        assert agent.epsilon() == pytest.approx(1.0 - 0.9 * min(1.0, 5 / horizon))


class ToyBanditEnv:
    """Step rewards: +1 for the one good relation, -1 otherwise, 0 for STOP."""

    class State:
        def __init__(self, counts, step):
            self.counts = counts
            self.step_index = step
            norm = np.linalg.norm(counts)
            self.encoding = counts / norm if norm else counts
            self.pset = tuple(counts.tolist())

    def __init__(self, n_relations=5, good=3, max_steps=4):
        self.n_relations = n_relations
        self.good = good
        self.max_steps = max_steps
        self._state = None

    @property
    def n_actions(self):
        return self.n_relations + 1

    @property
    def state_dim(self):
        return self.n_relations

    def action_mask(self):
        return np.ones(self.n_actions, dtype=bool)

    def reset(self):
        self._state = self.State(np.zeros(self.n_relations), 0)
        return self._state

    def step(self, action):
        from hinrec.search_env import StepOutcome

        s = self._state
        if action == 0:
            nxt = self.State(s.counts, s.step_index + 1)
            return StepOutcome(nxt, 0.0, True, None, changed=False)
        counts = s.counts.copy()
        counts[action - 1] += 1
        nxt = self.State(counts, s.step_index + 1)
        self._state = nxt
        reward = 1.0 if action == self.good else -1.0
        return StepOutcome(nxt, reward, s.step_index + 1 >= self.max_steps, None, changed=True)


class TestSearch:
    CFG = RunConfig(dqn_lr=0.01, dqn_batch=32, eps_fraction=0.5)

    def test_learns_toy_bandit(self):
        # The greedy episode takes the good relation (3) at each of its 4 steps.
        assert search(ToyBanditEnv(), self.CFG, 0, 60) == (0.0, 0.0, 4.0, 0.0, 0.0)

    def test_zero_episodes_still_returns_state(self):
        env = ToyBanditEnv()
        out = search(env, RunConfig(), 1, 0)
        assert out is not None

    def test_deterministic_per_seed(self):
        out1 = search(ToyBanditEnv(), self.CFG, 0, 60)
        out2 = search(ToyBanditEnv(), self.CFG, 0, 60)
        assert out1 == out2

    def test_warns_when_training_makes_no_update(self, caplog):
        # 2 episodes of at most 4 steps give at most 8 transitions, below the warm-up of 32.
        with caplog.at_level(logging.WARNING, logger="hinrec.dqn"):
            search(ToyBanditEnv(), self.CFG, 0, 2)
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert "no TD update" in warnings[0] and "2 episodes" in warnings[0]
        assert "threshold of 32" in warnings[0]

    def test_no_warning_once_updates_run(self, caplog):
        with caplog.at_level(logging.WARNING, logger="hinrec.dqn"):
            search(ToyBanditEnv(), self.CFG, 0, 60)
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
