import numpy as np
import pytest

from hinrec.autodiff import Tape, Var, activation_fn


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

    def test_slice1d(self):
        check_op(lambda t, v: t.mean(t.slice1d(v[0], 1, 4)), [(6,)])

    def test_pick_and_stack(self):
        def build(t, v):
            s = t.stack_scalars([t.mean(v[0]), t.mean(v[1]), t.mean(t.mul(v[2], v[2]))])
            return t.pick(t.softmax(s), 1)

        check_op(build, [(3,), (4,), (2,)])

    def test_add_sub_mul_neg(self):
        check_op(lambda t, v: t.mean(t.mul(t.add(v[0], v[1]), t.neg(t.sub(v[0], v[1])))), [(3, 3), (3, 3)])

    def test_add_bias(self):
        check_op(lambda t, v: t.mean(t.add_bias(v[0], v[1])), [(4, 3), (3,)])

    def test_mul_rows(self):
        check_op(lambda t, v: t.mean(t.mul_rows(v[0], v[1])), [(5, 2), (5,)])

    def test_scale(self):
        check_op(lambda t, v: t.mean(t.scale(v[0], t.mean(v[1]))), [(3, 2), (2,)])

    def test_mul_const(self):
        c = np.asarray([[2.0, -1.0], [0.5, 3.0]])
        check_op(lambda t, v: t.mean(t.mul_const(v[0], c)), [(2, 2)])

    @pytest.mark.parametrize("act", ["leaky_relu", "relu", "elu", "tanh"])
    def test_activations(self, act):
        def build(t, v):
            fn = {"leaky_relu": t.leaky_relu, "relu": t.relu, "elu": t.elu, "tanh": t.tanh}[act]
            return t.mean(fn(v[0]))

        # Shift values away from the kink so FD stays clean.
        rng = np.random.default_rng(11)
        arr = rng.normal(size=(4, 3))
        arr[np.abs(arr) < 0.05] += 0.2

        def numeric(arrs):
            tape = Tape()
            var = Var(arrs[0].copy())
            fn = {"leaky_relu": tape.leaky_relu, "relu": tape.relu, "elu": tape.elu, "tanh": tape.tanh}[act]
            return float(tape.mean(fn(var)).value)

        tape = Tape()
        var = Var(arr.copy())
        fn = {"leaky_relu": tape.leaky_relu, "relu": tape.relu, "elu": tape.elu, "tanh": tape.tanh}[act]
        out = tape.mean(fn(var))
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
            lambda t, v: t.mean(t.mul(t.segment_softmax(v[0], INDPTR, SRC), v[1])),
            [(6,), (6,)],
        )

    def test_segment_sum(self):
        check_op(lambda t, v: t.mean(t.segment_sum(v[0], INDPTR, SRC)), [(6, 3)])

    def test_segment_sum_values(self):
        tape = Tape()
        x = Var(np.arange(12.0).reshape(6, 2))
        out = tape.segment_sum(x, INDPTR, SRC)
        np.testing.assert_allclose(out.value[0], x.value[0] + x.value[1])
        np.testing.assert_allclose(out.value[1], x.value[2] + x.value[3] + x.value[4])
        np.testing.assert_allclose(out.value[2], x.value[5])


class TestComposition:
    def test_attention_like_chain(self):
        """A miniature of the real forward: gather/attention/aggregate/fuse."""

        def build(t, v):
            Z, a, q = v
            e = t.leaky_relu(
                t.add(t.gather(t.matvec(Z, t.slice1d(a, 0, 3)), SRC),
                      t.gather(t.matvec(Z, t.slice1d(a, 3, 6)), DST))
            )
            alpha = t.segment_softmax(e, INDPTR, SRC)
            h = t.elu(t.segment_sum(t.mul_rows(t.gather(Z, DST), alpha), INDPTR, SRC))
            return t.mean(t.matvec(t.tanh(h), q))

        check_op(build, [(4, 3), (6,), (3,)], seed=3)

    def test_bpr_chain(self):
        def build(t, v):
            pos, neg = v
            return t.mean(t.softplus(t.neg(t.sub(pos, neg))))

        check_op(build, [(5,), (5,)])

    def test_grad_accumulates_across_reuse(self):
        tape = Tape()
        x = Var(np.asarray([1.0, 2.0]))
        out = tape.mean(tape.add(x, x))
        tape.backward(out)
        np.testing.assert_allclose(x.grad, [1.0, 1.0])

    def test_activation_fn_matches_tape(self):
        rng = np.random.default_rng(4)
        arr = rng.normal(size=(5, 4))
        for name in ("leaky_relu", "relu", "elu", "tanh"):
            tape = Tape()
            fn = {"leaky_relu": tape.leaky_relu, "relu": tape.relu, "elu": tape.elu, "tanh": tape.tanh}[name]
            np.testing.assert_allclose(fn(Var(arr)).value, activation_fn(name)(arr))
