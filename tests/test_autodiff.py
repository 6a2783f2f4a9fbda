import numpy as np
import pytest
from scipy.special import expit

from hinrec.autodiff import Tape, Var

import reference_ops


def finite_diff(loss_fn, arrays, h=1e-6):
    """Central finite differences of loss_fn(arrays) wrt every entry."""
    grads = [np.zeros_like(a) for a in arrays]
    for ai, arr in enumerate(arrays):
        flat = arr.ravel()
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            up = loss_fn(arrays)
            flat[k] = orig - h
            down = loss_fn(arrays)
            flat[k] = orig
            grads[ai].ravel()[k] = (up - down) / (2 * h)
    return grads


def check_op(build_loss, shapes, seed=0, atol=1e-7):
    """build_loss(tape, vars) -> scalar Var; AD gradients must match FD."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=s) for s in shapes]

    def numeric(arrs):
        tape = Tape()
        vs = [Var(a.copy()) for a in arrs]
        return float(build_loss(tape, vs).value)

    tape = Tape()
    vs = [Var(a.copy()) for a in arrays]
    out = build_loss(tape, vs)
    tape.backward(out)
    fd = finite_diff(numeric, [a.copy() for a in arrays])
    for var, want in zip(vs, fd):
        got = var.grad if var.grad is not None else np.zeros_like(var.value)
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert err.max() < 1e-4, f"max rel err {err.max():.2e}"
        np.testing.assert_allclose(got, want, atol=1e-5)


INDPTR = np.asarray([0, 2, 5, 6])
SRC = np.asarray([0, 0, 1, 1, 1, 2])
DST = np.asarray([1, 2, 0, 1, 3, 2])


def weights(*shape, seed=17):
    """A fixed random array that contracts an op's output, so the check covers its whole Jacobian."""
    return np.random.default_rng(seed).normal(size=shape)


class TestOps:
    def test_matmul(self):
        check_op(lambda t, v: t.mean(t.matmul(v[0], v[1])), [(3, 4), (4, 2)])

    def test_matvec(self):
        check_op(lambda t, v: t.mean(t.matvec(v[0], v[1])), [(5, 3), (3,)])

    def test_rowwise_dot(self):
        check_op(lambda t, v: t.mean(t.rowwise_dot(v[0], v[1])), [(4, 3), (4, 3)])

    def test_gather_with_repeats(self):
        idx = np.asarray([0, 2, 2, 1])
        check_op(lambda t, v: t.mean(t.gather(v[0], idx)), [(4, 3)])

    def test_pick_slice(self):
        check_op(lambda t, v: t.mean(t.pick(v[0], slice(1, 4))), [(6,)])

    def test_pick_and_stack(self):
        def build(t, v):
            s = t.stack_scalars([t.mean(v[0]), t.mean(v[1]), t.mean(t.mul_const(v[2], weights(2)))])
            return t.pick(t.softmax(s), 1)

        check_op(build, [(3,), (4,), (2,)])

    def test_add_sub_mul_neg(self):
        def build(t, v):
            # the negated difference as the swapped sub, as bpr_loss_var takes it
            total = t.add(t.mul_const(t.add(v[0], v[1]), weights(3, 3)), t.sub(v[1], v[0]))
            return t.mean(t.mul_const(total, weights(3, 3, seed=18)))

        check_op(build, [(3, 3), (3, 3)])

    def test_add_bias(self):
        check_op(lambda t, v: t.mean(t.add_bias(v[0], v[1])), [(4, 3), (3,)])

    def test_mul_rows(self):
        # One entry per group, reading its own row: the fused op scales rows by w.
        rows = np.arange(5)
        check_op(
            lambda t, v: t.mean(t.segment_weighted_sum(v[0], v[1], np.arange(6), rows, rows)),
            [(5, 2), (5,)],
        )

    def test_weighted_sum(self):
        def build(t, v):
            w = t.softmax(t.mul_const(v[3], weights(3)))
            return t.mean(t.mul_const(t.weighted_sum(v[:3], w), weights(3, 2)))

        check_op(build, [(3, 2), (3, 2), (3, 2), (3,)])

    def test_mul_const(self):
        c = np.asarray([[2.0, -1.0], [0.5, 3.0]])
        check_op(lambda t, v: t.mean(t.mul_const(v[0], c)), [(2, 2)])

    def test_pick_fancy_index(self):
        # One entry per row, as the TD loss picks Q(s, a) from each row.
        rows, cols = np.arange(4), np.asarray([2, 0, 2, 1])
        check_op(lambda t, v: t.mean(t.mul_const(t.pick(v[0], (rows, cols)), weights(4))), [(4, 3)])

    def test_huber_on_both_branches(self):
        # Twelve points in [-2, 2], none at the branch points +-1; half lie outside them.
        arr = np.linspace(-2.0, 2.0, 12).reshape(3, 4)
        assert (np.abs(arr) > 1.0).sum() == 6

        def numeric(arrs):
            tape = Tape()
            return float(tape.mean(tape.mul_const(tape.huber(Var(arrs[0].copy())), weights(3, 4))).value)

        tape = Tape()
        var = Var(arr.copy())
        tape.backward(tape.mean(tape.mul_const(tape.huber(var), weights(3, 4))))
        fd = finite_diff(numeric, [arr.copy()])
        np.testing.assert_allclose(var.grad, fd[0], atol=1e-6)
        np.testing.assert_allclose(var.grad, np.clip(arr, -1.0, 1.0) * weights(3, 4) / 12, rtol=1e-12)

    @pytest.mark.parametrize("act", [Tape.relu, Tape.leaky_relu, Tape.elu, Tape.tanh],
                             ids=["relu", "leaky_relu", "elu", "tanh"])
    def test_activations(self, act):
        # Shift values away from the kink so FD stays clean.
        rng = np.random.default_rng(11)
        arr = rng.normal(size=(4, 3))
        arr[np.abs(arr) < 0.05] += 0.2

        def numeric(arrs):
            tape = Tape()
            var = Var(arrs[0].copy())
            return float(tape.mean(act(tape, var)).value)

        tape = Tape()
        var = Var(arr.copy())
        out = tape.mean(act(tape, var))
        tape.backward(out)
        fd = finite_diff(numeric, [arr.copy()])
        np.testing.assert_allclose(var.grad, fd[0], atol=1e-6)

    def test_softplus_matches_fd_and_is_stable(self):
        check_op(lambda t, v: t.mean(t.softplus(v[0])), [(5,)])
        tape = Tape()
        big = Var(np.asarray([-800.0, 0.0, 800.0]))
        out = tape.softplus(big)
        assert np.all(np.isfinite(out.value))
        assert out.value[2] == pytest.approx(800.0)

    def test_softmax(self):
        check_op(lambda t, v: t.pick(t.softmax(v[0]), 2), [(5,)])

    def test_segment_softmax_sums_to_one(self):
        tape = Tape()
        e = Var(np.random.default_rng(0).normal(size=6))
        alpha = tape.segment_softmax(e, INDPTR, SRC)
        np.testing.assert_allclose(np.add.reduceat(alpha.value, INDPTR[:-1]), 1.0, atol=1e-12)

    def test_segment_softmax_grad(self):
        check_op(
            lambda t, v: t.mean(t.mul_const(t.segment_softmax(v[0], INDPTR, SRC), weights(6))),
            [(6,)],
        )

    def test_segment_sum(self):
        # Unit weights and each entry reading its own row: a plain group sum.
        ones = Var(np.ones(6))
        check_op(
            lambda t, v: t.mean(t.segment_weighted_sum(v[0], ones, INDPTR, SRC, np.arange(6))),
            [(6, 3)],
        )

    def test_segment_weighted_sum(self):
        # DST repeats rows 1 and 2 across groups, so their gradients sum.
        check_op(
            lambda t, v: t.mean(t.mul_const(t.segment_weighted_sum(v[0], v[1], INDPTR, SRC, DST), weights(3, 3))),
            [(4, 3), (6,)],
        )

    def test_segment_weighted_sum_values(self):
        tape = Tape()
        x = Var(np.arange(8.0).reshape(4, 2))
        w = Var(np.asarray([0.5, 2.0, 1.0, -1.0, 3.0, 0.25]))
        out = tape.segment_weighted_sum(x, w, INDPTR, SRC, DST)
        np.testing.assert_allclose(out.value[0], 0.5 * x.value[1] + 2.0 * x.value[2])
        np.testing.assert_allclose(out.value[1], x.value[0] - x.value[1] + 3.0 * x.value[3])
        np.testing.assert_allclose(out.value[2], 0.25 * x.value[2])


class TestComposition:
    def test_attention_like_chain(self):
        """A miniature of the real forward: gather/attention/aggregate/fuse."""

        def build(t, v):
            Z, a, q = v
            e = t.leaky_relu(
                t.add(t.gather(t.matvec(Z, t.pick(a, slice(0, 3))), SRC),
                      t.gather(t.matvec(Z, t.pick(a, slice(3, 6))), DST))
            )
            alpha = t.segment_softmax(e, INDPTR, SRC)
            h = t.elu(t.segment_weighted_sum(Z, alpha, INDPTR, SRC, DST))
            return t.mean(t.matvec(t.tanh(h), q))

        check_op(build, [(4, 3), (6,), (3,)], seed=3)

    def test_bpr_chain(self):
        def build(t, v):
            pos, neg = v
            return t.mean(t.softplus(t.sub(neg, pos)))

        check_op(build, [(5,), (5,)])

    def test_grad_accumulates_across_reuse(self):
        tape = Tape()
        x = Var(np.asarray([1.0, 2.0]))
        out = tape.mean(tape.add(x, x))
        tape.backward(out)
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_backward_consumes_the_tape(self):
        """No steps remain, no produced Var keeps a gradient, and leaves keep theirs."""
        tape = Tape()
        x, w = Var(np.asarray([[1.0, -2.0], [0.5, 3.0]])), Var(np.asarray([0.3, -0.7]))
        c = weights(2)
        h = tape.tanh(tape.matvec(x, w))
        y = tape.softplus(tape.mul_const(h, c))
        out = tape.mean(tape.add(y, h))
        tape.backward(out)
        assert tape._steps == []
        assert all(v.grad is None for v in (h, y, out))
        dh = (c * expit(c * h.value) + 1.0) / 2.0 * (1.0 - h.value**2)
        np.testing.assert_allclose(x.grad, np.outer(dh, w.value), rtol=1e-12)
        np.testing.assert_allclose(w.grad, x.value.T @ dh, rtol=1e-12)

    def test_activation_fn_matches_tape(self):
        rng = np.random.default_rng(4)
        arr = rng.normal(size=(5, 4))
        for op, reference in ((Tape.relu, lambda x: np.maximum(x, 0.0)), (Tape.leaky_relu, reference_ops.leaky_relu),
                              (Tape.elu, reference_ops.elu), (Tape.tanh, np.tanh), (Tape.huber, reference_ops.huber)):
            assert op(Tape(), Var(arr)).value.tobytes() == reference(arr).tobytes(), op.__name__


# Signed zeros, infinities, nan, the smallest subnormal, a value expm1 returns
# unrounded, and one where it returns -1.
SPECIAL_VALUES = np.asarray([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e-17, -1e-17, -700.0])


class Spy(Var):
    """A leaf that keeps the raw array each accumulate passes it."""

    __slots__ = ("seen",)

    def accumulate(self, g):
        self.seen = g.copy()


class TestActivationBits:
    """The branch-free activations against the ``np.where`` selects, bit for bit.

    Lengths 1, 7 and 9 run numpy's scalar loops or a SIMD body with a short
    tail; 64 and 1,100 x 64 (a node-level aggregate) run whole vectors. Every
    other entry is a special value, cycled so that each of them takes each
    such slot over the shifts, and length 1 takes each of them alone.
    """

    @staticmethod
    def inputs(length):
        rng = np.random.default_rng(length)
        for shift in range(len(SPECIAL_VALUES)):
            x = rng.normal(size=length) * 10.0 ** rng.integers(-3, 3, size=length)
            x[::2] = SPECIAL_VALUES[(np.arange(0, length, 2) // 2 + shift) % len(SPECIAL_VALUES)]
            g = rng.normal(size=length)
            g[::5] = SPECIAL_VALUES[(np.arange(0, length, 5) + shift) % len(SPECIAL_VALUES)]
            shape = (1100, 64) if length == 70_400 else (length,)
            yield x.reshape(shape), g.reshape(shape)

    @pytest.mark.parametrize("length", [1, 7, 9, 64, 70_400])
    @pytest.mark.parametrize(
        "op, value, grad",
        [
            (Tape.leaky_relu, reference_ops.leaky_relu, reference_ops.leaky_relu_grad),
            (Tape.elu, reference_ops.elu, reference_ops.elu_grad),
        ],
        ids=["leaky_relu", "elu"],
    )
    def test_value_and_gradient_bytes_match_the_selects(self, op, value, grad, length):
        for x, g in self.inputs(length):
            tape = Tape()
            leaf = Spy(x)
            y = op(tape, leaf)
            assert y.value.tobytes() == value(x).tobytes()
            # The upstream gradient reaches y as g + 0.0 (Var.accumulate), which only drops -0.0's sign.
            with np.errstate(invalid="ignore"):  # inf * 0 in the products
                tape.backward(tape.mul_const(y, g))
                assert leaf.seen.tobytes() == grad(x, g + 0.0).tobytes()
