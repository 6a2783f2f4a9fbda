"""Minimal reverse-mode tape for the recommender's fixed operation set.

The computation graph is known and small (projection, two attention
levels, inner-product scoring, pairwise ranking loss), so instead of a
general autodiff system each op records one backward closure on a tape.
Everything runs in float64; segment ops assume contiguous, non-empty
groups (guaranteed by the sampled neighborhood views).
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.special import expit


class Var:
    """A value participating in one tape's forward pass."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Records ops during forward; replays their adjoints in reverse."""

    def __init__(self):
        self._steps: list[tuple[Var, Callable[[np.ndarray], None]]] = []

    def _emit(self, value: np.ndarray, back: Callable[[np.ndarray], None]) -> Var:
        out = Var(value)
        self._steps.append((out, back))
        return out

    def backward(self, out: Var) -> None:
        """Seed d(out)/d(out) = 1 and accumulate gradients into every Var."""
        out.grad = np.ones_like(out.value)
        for var, back in reversed(self._steps):
            if var.grad is not None:
                back(var.grad)

    # -- linear algebra ----------------------------------------------------

    def matmul(self, a: Var, b: Var) -> Var:
        def back(g):
            a.accumulate(g @ b.value.T)
            b.accumulate(a.value.T @ g)

        return self._emit(a.value @ b.value, back)

    def matvec(self, a: Var, v: Var) -> Var:
        def back(g):
            a.accumulate(np.outer(g, v.value))
            v.accumulate(a.value.T @ g)

        return self._emit(a.value @ v.value, back)

    def rowwise_dot(self, a: Var, b: Var) -> Var:
        def back(g):
            a.accumulate(g[:, None] * b.value)
            b.accumulate(g[:, None] * a.value)

        return self._emit(np.sum(a.value * b.value, axis=1), back)

    # -- structure ---------------------------------------------------------

    def gather(self, x: Var, idx: np.ndarray) -> Var:
        idx = np.asarray(idx, dtype=np.int64)

        def back(g):
            full = np.zeros_like(x.value)
            np.add.at(full, idx, g)
            x.accumulate(full)

        return self._emit(x.value[idx], back)

    def stack_scalars(self, items: list[Var]) -> Var:
        def back(g):
            for k, item in enumerate(items):
                item.accumulate(g[k])

        return self._emit(np.asarray([it.value for it in items]), back)

    def pick(self, v: Var, i: int) -> Var:
        def back(g):
            full = np.zeros_like(v.value)
            full[i] = g
            v.accumulate(full)

        return self._emit(v.value[i], back)

    def slice1d(self, v: Var, start: int, stop: int) -> Var:
        def back(g):
            full = np.zeros_like(v.value)
            full[start:stop] = g
            v.accumulate(full)

        return self._emit(v.value[start:stop], back)

    # -- arithmetic --------------------------------------------------------

    def add(self, a: Var, b: Var) -> Var:
        def back(g):
            a.accumulate(g)
            b.accumulate(g)

        return self._emit(a.value + b.value, back)

    def sub(self, a: Var, b: Var) -> Var:
        def back(g):
            a.accumulate(g)
            b.accumulate(-g)

        return self._emit(a.value - b.value, back)

    def mul(self, a: Var, b: Var) -> Var:
        def back(g):
            a.accumulate(g * b.value)
            b.accumulate(g * a.value)

        return self._emit(a.value * b.value, back)

    def neg(self, a: Var) -> Var:
        def back(g):
            a.accumulate(-g)

        return self._emit(-a.value, back)

    def add_bias(self, x: Var, b: Var) -> Var:
        def back(g):
            x.accumulate(g)
            b.accumulate(g.sum(axis=0))

        return self._emit(x.value + b.value, back)

    def mul_rows(self, x: Var, w: Var) -> Var:
        """(E,d) rows scaled by a length-E weight vector."""

        def back(g):
            x.accumulate(g * w.value[:, None])
            w.accumulate(np.sum(g * x.value, axis=1))

        return self._emit(x.value * w.value[:, None], back)

    def scale(self, x: Var, s: Var) -> Var:
        """Whole-array scaling by a scalar Var."""

        def back(g):
            x.accumulate(g * s.value)
            s.accumulate(np.sum(g * x.value))

        return self._emit(x.value * s.value, back)

    def mul_const(self, x: Var, c: np.ndarray) -> Var:
        def back(g):
            x.accumulate(g * c)

        return self._emit(x.value * c, back)

    def mean(self, v: Var) -> Var:
        n = v.value.size

        def back(g):
            v.accumulate(np.full_like(v.value, g / n))

        return self._emit(v.value.mean(), back)

    # -- activations -------------------------------------------------------

    def leaky_relu(self, x: Var, slope: float = 0.2) -> Var:
        factor = np.where(x.value >= 0.0, 1.0, slope)

        def back(g):
            x.accumulate(g * factor)

        return self._emit(x.value * factor, back)

    def relu(self, x: Var) -> Var:
        return self.leaky_relu(x, slope=0.0)

    def elu(self, x: Var) -> Var:
        y = np.where(x.value >= 0.0, x.value, np.expm1(x.value))

        def back(g):
            x.accumulate(g * np.where(x.value >= 0.0, 1.0, y + 1.0))

        return self._emit(y, back)

    def tanh(self, x: Var) -> Var:
        y = np.tanh(x.value)

        def back(g):
            x.accumulate(g * (1.0 - y * y))

        return self._emit(y, back)

    def softplus(self, x: Var) -> Var:
        """log(1 + e^x) in the overflow-safe branch form."""

        def back(g):
            x.accumulate(g * expit(x.value))

        return self._emit(np.logaddexp(0.0, x.value), back)

    # -- normalization -----------------------------------------------------

    def softmax(self, v: Var) -> Var:
        shifted = v.value - v.value.max()
        e = np.exp(shifted)
        y = e / e.sum()

        def back(g):
            v.accumulate(y * (g - np.dot(g, y)))

        return self._emit(y, back)

    def segment_softmax(self, e: Var, indptr: np.ndarray, src: np.ndarray) -> Var:
        """Softmax within contiguous groups of a length-E vector.

        ``indptr`` delimits groups (all non-empty), ``src`` maps each entry
        to its group index.
        """
        starts = indptr[:-1]
        mx = np.maximum.reduceat(e.value, starts)
        ex = np.exp(e.value - mx[src])
        denom = np.add.reduceat(ex, starts)
        y = ex / denom[src]

        def back(g):
            inner = np.add.reduceat(g * y, starts)
            e.accumulate(y * (g - inner[src]))

        return self._emit(y, back)

    def segment_sum(self, x: Var, indptr: np.ndarray, src: np.ndarray) -> Var:
        """Sum (E,d) rows into (m,d) by contiguous non-empty groups."""
        starts = indptr[:-1]

        def back(g):
            x.accumulate(g[src])

        return self._emit(np.add.reduceat(x.value, starts, axis=0), back)


def activation(tape: Tape, name: str):
    """Resolve a configured activation name to its tape method."""
    table = {
        "leaky_relu": lambda x: tape.leaky_relu(x, 0.2),
        "relu": tape.relu,
        "elu": tape.elu,
        "tanh": tape.tanh,
    }
    if name not in table:
        raise ValueError(f"unknown activation {name!r}; expected one of {sorted(table)}")
    return table[name]


def activation_fn(name: str):
    """Plain-numpy activation for the reference ops in :mod:`hinrec.recommender`."""
    table = {
        "leaky_relu": lambda x: np.where(x >= 0.0, x, 0.2 * x),
        "relu": lambda x: np.maximum(x, 0.0),
        "elu": lambda x: np.where(x >= 0.0, x, np.expm1(x)),
        "tanh": np.tanh,
    }
    if name not in table:
        raise ValueError(f"unknown activation {name!r}; expected one of {sorted(table)}")
    return table[name]
