"""Minimal reverse-mode tape for the recommender's fixed operation set.

The computation graph is known and small (projection, two attention
levels, inner-product scoring, pairwise ranking loss), so instead of a
general autodiff system each op records one backward closure on a tape.
Everything runs in float64; segment ops assume contiguous, non-empty
groups (guaranteed by the sampled neighborhood views).

Node-level aggregation is one fused op, :meth:`Tape.segment_weighted_sum`:
each group's sum of neighbour rows under per-edge weights, as one sparse
product forward and backward. It records one step and keeps no per-edge
row array on the tape.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.sparse import csr_matrix
from scipy.special import expit

# Entries per block of :meth:`Tape.segment_weighted_sum`'s weight gradient.
# Its two (block, d) temporaries are 256 KB at d = 64; on planted-mam's
# training views 512 and 1024 tie and 4096 takes 1.4-2x as long.
WEIGHT_GRAD_BLOCK = 512
# Negative-side slope of :meth:`Tape.leaky_relu`, as in GAT's node-level scores
# (Velickovic et al., arXiv:1710.10903).
LEAKY_SLOPE = 0.2


def scatter_rows(op: np.ufunc, table: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> None:
    """``op.at(table, rows, vals)`` in place: each row of ``table`` takes its
    ``vals`` in index order, with the bits of that row-indexed call.

    A 2-D table is scattered through its flat view, which numpy (1.25 and
    later) runs on its one-dimensional fast path. A float64 table of even
    width is viewed as ``complex128`` pairs: a complex add or subtract is one
    float64 add or subtract on each part, so every element takes the same
    operations in the same order, and ``ufunc.at`` walks half as many
    indices. One 512 x 64 scatter, index build included, took about 50 us
    this way, 70 us unpaired and 380 us row-indexed (numpy 2.4.6, one Xeon
    core). ``table`` must be C-contiguous, so that the flat view is not a
    copy.
    """
    if table.ndim == 1:
        op.at(table, rows, vals)
        return
    if not table.flags.c_contiguous:
        raise ValueError("scatter_rows needs a C-contiguous table")
    d = table.shape[1]
    dtype, k = (np.complex128, d // 2) if table.dtype == np.float64 and d % 2 == 0 else (table.dtype, d)
    flat = np.ascontiguousarray(vals, dtype=table.dtype).view(dtype).reshape(-1)
    op.at(table.view(dtype).reshape(-1), (rows[:, None] * k + np.arange(k)).reshape(-1), flat)


class Var:
    """A value participating in one tape's forward pass."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            # One pass with the bits of ``zeros + g``: -0.0 becomes +0.0 here too.
            self.grad = np.add(g, 0.0, out=np.empty_like(self.value))
        else:
            self.grad += g

    @property
    def shape(self):
        return self.value.shape


class Tape:
    """Records ops during forward; replays their adjoints in reverse, once.

    Each step is an op's output Var and its backward closure, which holds
    the op's inputs and any forward values its adjoint reads. A Var no op
    produced is a leaf: the model's parameters and a test's inputs.
    :meth:`backward` consumes the tape, so a tape is differentiated once.
    """

    def __init__(self):
        self._steps: list[tuple[Var, Callable[[np.ndarray], None]]] = []

    def _emit(self, value: np.ndarray, back: Callable[[np.ndarray], None]) -> Var:
        out = Var(value)
        self._steps.append((out, back))
        return out

    def backward(self, out: Var) -> None:
        """Seed d(out)/d(out) = 1 and accumulate gradients into the leaves.

        Steps are popped last first. Once a step's adjoint has run, its
        closure and its output's ``.grad`` are dropped, so the forward values
        and intermediate gradients no later adjoint reads are freed as the
        pass goes. Afterwards the tape holds no steps, every Var the tape
        produced has ``.grad`` None, and only leaves keep their gradients.
        """
        out.grad = np.ones_like(out.value)
        steps = self._steps
        while steps:
            var, back = steps.pop()
            if var.grad is not None:
                back(var.grad)
                var.grad = None

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
        """Rows ``x[idx]``; repeated indices sum their gradients.

        The backward scatters into zeros with :func:`scatter_rows` (as
        complex128 pairs at an even width), so each row adds its terms from
        zero in index order and the gradient is bit-identical to ``np.add.at``.
        """
        idx = np.asarray(idx, dtype=np.int64)

        def back(g):
            full = np.zeros_like(x.value)
            scatter_rows(np.add, full, idx, g)
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

    def neg(self, a: Var) -> Var:
        def back(g):
            a.accumulate(-g)

        return self._emit(-a.value, back)

    def add_bias(self, x: Var, b: Var) -> Var:
        def back(g):
            x.accumulate(g)
            b.accumulate(g.sum(axis=0))

        return self._emit(x.value + b.value, back)

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

    def leaky_relu(self, x: Var) -> Var:
        factor = np.where(x.value >= 0.0, 1.0, LEAKY_SLOPE)

        def back(g):
            x.accumulate(g * factor)

        return self._emit(x.value * factor, back)

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

    def segment_weighted_sum(
        self, x: Var, w: Var, indptr: np.ndarray, src: np.ndarray, dst: np.ndarray
    ) -> Var:
        """Per group, the sum of rows ``x[dst]`` weighted by the length-E ``w``.

        Groups are contiguous and non-empty as in :meth:`segment_softmax`;
        entry e belongs to group ``src[e]`` and reads row ``dst[e]``. With A
        the (m, n) CSR matrix of the weights, the value is ``A @ x`` and
        ``x``'s gradient is ``A.T @ g``, which adds each row's terms from
        zero in entry order, as :meth:`gather`'s backward does. The
        weights' gradient ``sum(g[src] * x[dst], axis=1)`` is taken
        :data:`WEIGHT_GRAD_BLOCK` entries at a time, so no (E, d) array is
        held whole; each entry's sum is the same as in one pass.
        """
        weights = csr_matrix((w.value, dst, indptr), shape=(len(indptr) - 1, len(x.value)))

        def back(g):
            grad = np.empty(len(dst))
            for lo in range(0, len(dst), WEIGHT_GRAD_BLOCK):
                block = slice(lo, lo + WEIGHT_GRAD_BLOCK)
                products = g[src[block]]
                products *= x.value[dst[block]]
                np.sum(products, axis=1, out=grad[block])
            w.accumulate(grad)
            x.accumulate(weights.T @ g)

        return self._emit(weights @ x.value, back)

