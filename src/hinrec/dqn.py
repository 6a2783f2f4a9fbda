"""Deep Q-learning for meta-path search: MLP Q-function, replay, TD updates.

The Q-network scores every action (STOP plus each relation) from a set
encoding. Its parameters are :class:`~hinrec.autodiff.Var` leaves by name,
as HRec's are, and it runs on the same reverse-mode tape: a TD update
records the forward pass and the Huber loss and calls
:meth:`~hinrec.autodiff.Tape.backward`, while action selection and the
target network record on a tape that is then dropped. Training
interleaves epsilon-greedy episodes with Huber-loss TD updates against a
periodically synced target network; inference runs one greedy episode
and returns its final meta-path set. The agent's hyperparameters are the
module constants below, none of them a setting; the seed and the side's
probe budget are passed in. Per-episode and per-update RNG streams are
derived from (seed, counter), so a search is reproducible from its seed.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Var, glorot
from .util import derive_rng

log = logging.getLogger(__name__)

DEFAULT_HIDDEN = (32, 64, 32)
# This reproduction's own discount and SGD step size; 0.001 is also Adam's
# default rate (Kingma & Ba, arXiv:1412.6980).
GAMMA = 0.9
LR = 0.001
# From Mnih et al. (Nature 518, 2015): a minibatch of 32, here also the
# replay warm-up; a periodically copied target network; epsilon falling
# linearly from 1.0 to 0.1, here over the first half of the run's steps.
BATCH = 32
TARGET_SYNC = 100
EPS_START = 1.0
EPS_END = 0.1
EPS_FRACTION = 0.5


def init_q_network(
    n_in: int, n_out: int, hidden: tuple[int, ...], rng: np.random.Generator
) -> dict[str, Var]:
    """A rectifier MLP's parameters: Glorot weight ``W{k}`` and zero bias ``b{k}`` per layer."""
    dims = (n_in, *hidden, n_out)
    params: dict[str, Var] = {}
    for k, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        params[f"W{k}"] = Var(glorot(rng, fan_in, fan_out))
        params[f"b{k}"] = Var(np.zeros(fan_out))
    return params


def copy_params(params: dict[str, Var]) -> dict[str, Var]:
    return {name: Var(var.value.copy()) for name, var in params.items()}


def q_batch(tape: Tape, params: dict[str, Var], states: np.ndarray) -> Var:
    """Q-values of a (B, n_in) batch of states, recorded on ``tape``.

    Every layer is affine; all but the last are rectified.
    """
    h = Var(states)
    last = len(params) // 2 - 1
    for k in range(last + 1):
        h = tape.add_bias(tape.matmul(h, params[f"W{k}"]), params[f"b{k}"])
        if k != last:
            h = tape.relu(h)
    return h


def q_forward(params: dict[str, Var], s: np.ndarray) -> np.ndarray:
    """Q-values for one state vector, on a tape that is then dropped."""
    s = np.asarray(s, dtype=np.float64)
    n_in = params["W0"].shape[0]
    if s.shape != (n_in,):
        raise ValueError(f"state shape {s.shape} does not match input dim {n_in}")
    out = q_batch(Tape(), params, s[None, :]).value
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite Q values")
    return out[0]


def select_action(
    params: dict[str, Var],
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


@dataclass(frozen=True)
class Transition:
    s: np.ndarray
    a: int
    r: float
    s_next: np.ndarray
    done: bool


def td_update(
    params: dict[str, Var],
    target_params: dict[str, Var],
    batch: list[Transition],
    gamma: float,
    lr: float,
) -> float:
    """One mean-Huber TD step in place; returns the batch loss.

    Bootstrap values come from the target network and are zeroed on
    terminal transitions. The loss is recorded on a tape, and
    :meth:`~hinrec.autodiff.Tape.backward` takes every gradient at the
    pre-update weights before one SGD step applies them all. Each
    ``Q(s, a)`` receives ``(1/B) * clip(delta, -1, 1)``; at a power-of-two
    batch size B, as :data:`BATCH` is, that has the bits of
    ``clip(delta, -1, 1) / B``.
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

    q_next = q_batch(Tape(), target_params, s2).value
    y = r + np.where(done, 0.0, gamma * q_next.max(axis=1))

    tape = Tape()
    q = q_batch(tape, params, s)
    delta = tape.sub(tape.pick(q, (np.arange(len(batch)), a)), Var(y))
    loss = tape.mean(tape.huber(delta))
    if not np.isfinite(loss.value):
        raise FloatingPointError(f"non-finite TD loss; delta={delta.value!r}")
    tape.backward(loss)
    for var in params.values():
        var.value -= lr * var.grad
        var.grad = None
    return float(loss.value)


class DqnAgent:
    """Owns the online/target networks, the replay list, and the schedule position.

    The replay list keeps every transition: a search's budget bounds them to
    at most ``max(max_steps, budget)``. TD updates start once it holds
    :data:`BATCH` transitions, and sample that many without replacement.
    Epsilon decays linearly over the first :data:`EPS_FRACTION` of
    ``total_steps``, the run's expected environment steps.
    """

    def __init__(self, n_state: int, n_actions: int, seed: int, total_steps: int):
        self.seed = seed
        rng = derive_rng(seed, "qnet-init")
        self.params = init_q_network(n_state, n_actions, DEFAULT_HIDDEN, rng)
        self.target = copy_params(self.params)
        self.buffer: list[Transition] = []
        self.env_steps = 0
        self.updates = 0
        self.eps_horizon = max(1, int(EPS_FRACTION * total_steps))

    def epsilon(self) -> float:
        frac = min(1.0, self.env_steps / self.eps_horizon)
        return EPS_START + frac * (EPS_END - EPS_START)

    def observe(self, t: Transition) -> None:
        self.buffer.append(t)
        self.env_steps += 1
        if len(self.buffer) >= BATCH:
            rng = derive_rng(self.seed, "update", self.updates)
            batch = [self.buffer[i] for i in rng.choice(len(self.buffer), size=BATCH, replace=False)]
            td_update(self.params, self.target, batch, GAMMA, LR)
            self.updates += 1
            if self.updates % TARGET_SYNC == 0:
                self.target = copy_params(self.params)


def run_episode(env, agent: DqnAgent, rng: np.random.Generator, greedy: bool = False):
    """One episode; during training every transition feeds the buffer/updates."""
    state = env.reset()
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
        state = out.state
        if out.done:
            return state, total_reward


def search(env, seed: int, budget: int):
    """Train a fresh agent, then run one greedy inference episode.

    The side's probe budget buys ``budget // env.max_steps`` training
    episodes, at least one. Returns the inference episode's final meta-path
    set. Logs a warning when training ends without a TD update, since the
    greedy episode then follows an untrained network.
    """
    episodes = max(1, budget // env.max_steps)
    agent = DqnAgent(env.state_dim, env.n_actions, seed, episodes * env.max_steps)
    for ep in range(episodes):
        rng = derive_rng(seed, "episode", ep)
        _, total = run_episode(env, agent, rng)
        log.debug("episode %d: return %.4f eps %.3f", ep, total, agent.epsilon())
    if agent.updates == 0:
        log.warning(
            "DQN training made no TD update: %d episodes gave %d transitions, "
            "below the warm-up threshold of %d (BATCH)",
            episodes, agent.env_steps, BATCH,
        )
    final_state, _ = run_episode(env, agent, derive_rng(seed, "inference"), greedy=True)
    return final_state.pset
