"""Deep Q-learning for meta-path search: MLP Q-function, replay, TD updates.

The Q-network scores every action (STOP plus each relation) from a set
encoding. Training interleaves epsilon-greedy episodes with Huber-loss TD
updates against a periodically synced target network; inference runs one
greedy episode and returns its final meta-path set. The agent reads
``gamma``, ``dqn_lr``, ``dqn_batch`` (also its replay warm-up),
``dqn_buffer``, ``target_sync``, ``eps_start``, ``eps_end`` and
``eps_fraction`` from a :class:`~hinrec.config.RunConfig`; the seed and the
episode count are passed in. Per-episode and per-update RNG streams are
derived from (seed, counter), so a search is reproducible from its seed.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .util import derive_rng

log = logging.getLogger(__name__)

DEFAULT_HIDDEN = (32, 64, 32)


@dataclass
class QNetworkParams:
    """Fully-connected rectifier MLP: weight/bias per layer, linear output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def init(
        cls,
        n_in: int,
        n_out: int,
        hidden: tuple[int, ...],
        rng: np.random.Generator,
    ) -> "QNetworkParams":
        dims = (n_in, *hidden, n_out)
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    def copy(self) -> "QNetworkParams":
        return QNetworkParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])

    @property
    def n_in(self) -> int:
        return self.weights[0].shape[0]


def _forward_batch(params: QNetworkParams, s: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass keeping post-activation values for the backward pass."""
    acts = [s]
    h = s
    last = len(params.weights) - 1
    for k, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if k != last:
            h = np.maximum(h, 0.0)
        acts.append(h)
    return h, acts


def q_forward(params: QNetworkParams, s: np.ndarray) -> np.ndarray:
    """Q-values for one state vector."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (params.n_in,):
        raise ValueError(f"state shape {s.shape} does not match input dim {params.n_in}")
    out, _ = _forward_batch(params, s[None, :])
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite Q values")
    return out[0]


def select_action(
    params: QNetworkParams,
    s: np.ndarray,
    mask: np.ndarray,
    epsilon: float,
    rng: np.random.Generator,
) -> int:
    """Epsilon-greedy over legal actions; greedy ties break to the lowest id."""
    legal = np.flatnonzero(mask)
    if len(legal) == 0:
        raise ValueError("no legal action (STOP must always be legal)")
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.choice(legal))
    q = q_forward(params, s).copy()
    q[~np.asarray(mask, dtype=bool)] = -np.inf
    return int(np.argmax(q))


def huber_loss(delta: np.ndarray) -> np.ndarray:
    """0.5*d^2 inside the unit interval, |d| - 0.5 outside, elementwise."""
    return np.where(np.abs(delta) <= 1.0, 0.5 * delta**2, np.abs(delta) - 0.5)


@dataclass(frozen=True)
class Transition:
    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray
    done: bool


class ReplayBuffer:
    """FIFO ring of transitions."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._items: list[Transition] = []
        self._pos = 0

    def __len__(self) -> int:
        return len(self._items)

    def push(self, t: Transition) -> None:
        if len(self._items) < self.capacity:
            self._items.append(t)
        else:
            self._items[self._pos] = t
        self._pos = (self._pos + 1) % self.capacity

    def sample(self, k: int, rng: np.random.Generator) -> list[Transition]:
        idx = rng.choice(len(self._items), size=k, replace=False)
        return [self._items[i] for i in idx]


def td_update(
    params: QNetworkParams,
    target_params: QNetworkParams,
    batch: list[Transition],
    gamma: float,
    lr: float,
) -> float:
    """One mean-Huber TD step in place; returns the batch loss.

    Bootstrap values come from the target network and are zeroed on
    terminal transitions.
    """
    if not batch:
        raise ValueError("td_update needs a non-empty batch")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    s = np.stack([t.s for t in batch]).astype(np.float64)
    s2 = np.stack([t.s_next for t in batch]).astype(np.float64)
    a = np.asarray([t.a for t in batch], dtype=np.int64)
    r = np.asarray([t.r for t in batch], dtype=np.float64)
    done = np.asarray([t.done for t in batch], dtype=bool)

    q_next, _ = _forward_batch(target_params, s2)
    bootstrap = np.where(done, 0.0, gamma * q_next.max(axis=1))
    y = r + bootstrap

    q, acts = _forward_batch(params, s)
    rows = np.arange(len(batch))
    delta = q[rows, a] - y
    loss = float(np.mean(huber_loss(delta)))
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite TD loss; delta={delta!r}")

    # Reverse pass: d(mean Huber)/dQ[rows, a] = clip(delta, -1, 1) / B.
    # All gradients are taken at the pre-update weights, then applied at once.
    g = np.zeros_like(q)
    g[rows, a] = np.clip(delta, -1.0, 1.0) / len(batch)
    n_layers = len(params.weights)
    grads_w: list[np.ndarray | None] = [None] * n_layers
    grads_b: list[np.ndarray | None] = [None] * n_layers
    for k in range(n_layers - 1, -1, -1):
        grads_w[k] = acts[k].T @ g
        grads_b[k] = g.sum(axis=0)
        if k > 0:
            g = (g @ params.weights[k].T) * (acts[k] > 0.0)
    for k in range(n_layers):
        params.weights[k] -= lr * grads_w[k]
        params.biases[k] -= lr * grads_b[k]
    return loss


class DqnAgent:
    """Owns the online/target networks, the buffer, and the schedule position.

    TD updates start once the buffer holds one batch, ``dqn_batch``
    transitions (:attr:`min_buffer`). Epsilon decays linearly over the first
    ``eps_fraction`` of ``total_steps``, the run's expected environment steps.
    """

    def __init__(self, n_state: int, n_actions: int, cfg: RunConfig, seed: int, total_steps: int):
        self.cfg = cfg
        self.seed = seed
        self.min_buffer = cfg.dqn_batch
        rng = derive_rng(seed, "qnet-init")
        self.params = QNetworkParams.init(n_state, n_actions, DEFAULT_HIDDEN, rng)
        self.target = self.params.copy()
        self.buffer = ReplayBuffer(cfg.dqn_buffer)
        self.env_steps = 0
        self.updates = 0
        self.eps_horizon = max(1, int(cfg.eps_fraction * total_steps))

    def epsilon(self) -> float:
        cfg = self.cfg
        frac = min(1.0, self.env_steps / self.eps_horizon)
        return cfg.eps_start + frac * (cfg.eps_end - cfg.eps_start)

    def observe(self, t: Transition) -> None:
        self.buffer.push(t)
        self.env_steps += 1
        if len(self.buffer) >= self.min_buffer:
            batch = self.buffer.sample(self.cfg.dqn_batch, derive_rng(self.seed, "update", self.updates))
            td_update(self.params, self.target, batch, self.cfg.gamma, self.cfg.dqn_lr)
            self.updates += 1
            if self.updates % self.cfg.target_sync == 0:
                self.target = self.params.copy()


def run_episode(env, agent: DqnAgent, rng: np.random.Generator, greedy: bool = False):
    """One episode; during training every transition feeds the buffer/updates."""
    state = env.reset()
    final_state = state
    total_reward = 0.0
    while True:
        eps = 0.0 if greedy else agent.epsilon()
        action = select_action(agent.params, state.encoding, env.action_mask(), eps, rng)
        out = env.step(action)
        if not greedy:
            agent.observe(
                Transition(state.encoding.copy(), action, out.reward, out.state.encoding.copy(), out.done)
            )
        total_reward += out.reward
        final_state = out.state
        state = out.state
        if out.done:
            return final_state, total_reward


def search(env, cfg: RunConfig, seed: int, episodes: int):
    """Train a fresh agent for ``episodes`` episodes, then run one greedy inference episode.

    Returns the inference episode's final meta-path set. Logs a warning
    when training ends without a TD update, since the greedy episode then
    follows an untrained network.
    """
    agent = DqnAgent(env.state_dim, env.n_actions, cfg, seed, episodes * env.max_steps)
    for ep in range(episodes):
        rng = derive_rng(seed, "episode", ep)
        _, total = run_episode(env, agent, rng)
        log.debug("episode %d: return %.4f eps %.3f", ep, total, agent.epsilon())
    if agent.updates == 0:
        log.warning(
            "DQN training made no TD update: %d episodes gave %d transitions, "
            "below the warm-up threshold of %d (dqn_batch)",
            episodes, agent.env_steps, agent.min_buffer,
        )
    final_state, _ = run_episode(env, agent, derive_rng(seed, "inference"), greedy=True)
    return final_state.pset
