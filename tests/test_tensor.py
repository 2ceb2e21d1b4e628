"""Autodiff engine tests: hand values, errors, finite-difference oracles."""

import numpy as np
import pytest

from seqrig import tensor as T
from seqrig.tensor import (NonFiniteError, Parameter, Runtime, backward, const)

from helpers import finite_diff_check


class TestForwardValues:
    def test_matmul_identity(self):
        x = const([[3.0], [7.0]])
        out = T.matmul(const(np.eye(2)), x)
        np.testing.assert_array_equal(out.value, x.value)

    def test_matmul_hand_product(self):
        out = T.matmul(const([[1.0, 2.0], [3.0, 4.0]]), const([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.value, [[3.0], [7.0]])

    def test_matmul_shape_mismatch_names_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\) @ \(2, 3\)"):
            T.matmul(const(np.ones((2, 3))), const(np.ones((2, 3))))

    def test_tanh_zero(self):
        p = Parameter("p", np.zeros(3))
        out = T.tanh(p.expr())
        np.testing.assert_array_equal(out.value, np.zeros(3))
        backward(T.esum(out))
        np.testing.assert_allclose(p.grad, np.ones(3))  # derivative 1 at 0

    def test_sigmoid_zero_is_half(self):
        np.testing.assert_allclose(T.sigmoid(const([0.0])).value, [0.5])

    def test_sigmoid_stable_in_tails(self):
        out = T.sigmoid(const([-800.0, 800.0]))
        np.testing.assert_allclose(out.value, [0.0, 1.0], atol=1e-12)

    def test_log_domain_error(self):
        with pytest.raises(ValueError, match="positive"):
            T.log(const([1.0, 0.0]))

    def test_nonfinite_forward_aborts_with_op_name(self):
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="exp"):
            T.exp(const([1000.0]))

    @pytest.mark.parametrize("values", [
        [1e308, 1e308],  # the sum overflows to inf
        [1e308, -1e308, 1e308],
        [1e308, 1e308, -1e308, -1e308, 0.0, 0.0, 0.0, 0.0],  # pairwise: inf - inf
    ], ids=["overflow", "alternating", "inf-minus-inf"])
    def test_finite_values_near_overflow_pass(self, values):
        # even where the sum's overflow raises, the exact scan decides
        with np.errstate(over="raise", invalid="raise"):
            np.testing.assert_array_equal(const(values).value, values)

    @pytest.mark.parametrize("values", [
        [1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf], [np.inf, -np.inf],
    ], ids=["nan", "inf", "-inf", "inf-and-minus-inf"])
    def test_edited_parameter_aborts_at_first_op_that_reads_it(self, values):
        p = Parameter("p", np.zeros(2))
        p.value[...] = values  # edited outside any trainer step or load
        leaf = p.expr()  # parameter leaves are checked where they change
        with np.errstate(invalid="ignore"), \
                pytest.raises(NonFiniteError, match="op 'scale'"):
            T.scale(leaf, 1.0)

    def test_concat_single_is_identity(self):
        x = const([1.0, 2.0])
        np.testing.assert_array_equal(T.concat([x], axis=0).value, x.value)

    def test_concat_vector_lengths(self):
        out = T.concat([const([1.0, 2.0]), const([3.0, 4.0, 5.0])], axis=0)
        assert out.value.shape == (5,)

    def test_concat_shape_mismatch(self):
        with pytest.raises(ValueError, match="concat shape mismatch"):
            T.concat([const(np.ones((2, 2))), const(np.ones((3, 2)))], axis=1)


class TestSoftmaxFamily:
    def test_uniform_logits(self):
        np.testing.assert_allclose(T.softmax(const([0.0] * 4)).value, [0.25] * 4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = const(rng.normal(size=(8, 5)) * 10)
        sums = T.softmax(x).value.sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-9)

    def test_pick_neg_log_softmax_closed_form(self):
        out = T.pick_neg_log_softmax(const([0.0, 0.0]), 0)
        np.testing.assert_allclose(out.value, np.log(2.0), atol=1e-12)

    def test_pick_gradient_is_softmax_minus_onehot(self):
        p = Parameter("p", np.asarray([0.5, -1.0, 2.0]))
        backward(T.pick_neg_log_softmax(p.expr(), 2))
        soft = np.exp(p.value) / np.exp(p.value).sum()
        expected = soft - np.asarray([0.0, 0.0, 1.0])
        np.testing.assert_allclose(p.grad, expected, atol=1e-12)

    def test_pick_index_out_of_range(self):
        with pytest.raises(IndexError):
            T.pick_neg_log_softmax(const([0.0, 0.0]), 2)

    def test_rowwise_pick(self):
        x = const(np.zeros((2, 3)))
        out = T.pick_neg_log_softmax(x, np.asarray([0, 2]))
        np.testing.assert_allclose(out.value, [np.log(3.0)] * 2)


class TestLookup:
    def test_row_copy(self):
        table = Parameter("t", np.arange(12.0).reshape(4, 3))
        out = T.lookup(table.expr(), [0])
        np.testing.assert_array_equal(out.value, [[0.0, 1.0, 2.0]])

    def test_backward_hits_only_that_row(self):
        table = Parameter("t", np.zeros((5, 3)))
        backward(T.esum(T.lookup(table.expr(), [3])))
        expected = np.zeros((5, 3))
        expected[3] = 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_repeated_rows_accumulate(self):
        table = Parameter("t", np.zeros((4, 2)))
        backward(T.esum(T.lookup(table.expr(), [1, 1])))
        assert np.all(table.grad[1] == 2.0)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            T.lookup(const(np.zeros((2, 2))), [2])

    @staticmethod
    def _full_table_lookup(table, ids):
        """The lookup that scattered into a zero table the size of the whole
        table and added all of it; the oracle for the row scatter."""
        ids = np.asarray(ids, dtype=np.int64)

        def bwd(node):
            g = np.zeros_like(table.value)
            np.add.at(g, ids, node.grad)
            table._accum(g)

        return T.Expr(table.value[ids].copy(), (table,), "lookup", bwd)

    @staticmethod
    def _loss(lookup, table, weights, with_dense_term):
        # duplicate ids; with the dense term last, both lookups add into a
        # gradient the table node already holds
        leaf = table.expr()
        terms = [T.esum(T.mul(lookup(leaf, ids), const(w))) for ids, w in weights]
        if with_dense_term:
            terms.append(T.esum(T.mul(leaf, const(np.linspace(-1.0, 2.0, 18).reshape(6, 3)))))
        loss = terms[0]
        for term in terms[1:]:
            loss = T.add(loss, term)
        return loss

    def test_row_scatter_equals_full_table_path(self):
        rng = np.random.default_rng(0)
        id_sets = ([2, 5, 2, 2, 0], [[5, 1], [1, 5]], [4])
        weights = [(ids, rng.normal(size=np.shape(ids) + (3,))) for ids in id_sets]
        for with_dense_term in (False, True):
            for n_terms in (1, 2, 3):
                grads = []
                for lookup in (T.lookup, self._full_table_lookup):
                    table = Parameter("t", np.random.default_rng(1).normal(size=(6, 3)))
                    backward(self._loss(lookup, table, weights[:n_terms], with_dense_term))
                    grads.append(table.grad)
                np.testing.assert_array_equal(grads[0], grads[1])

    def test_row_scatter_finite_differences(self):
        rng = np.random.default_rng(2)
        weights = [(ids, rng.normal(size=np.shape(ids) + (3,)))
                   for ids in ([2, 5, 2, 2, 0], [[5, 1], [1, 5]])]
        table = Parameter("t", rng.normal(size=(6, 3)))
        for with_dense_term in (False, True):
            err = finite_diff_check(lambda: self._loss(T.lookup, table, weights, with_dense_term),
                                    [table])
            assert err < 1e-7


class TestBackward:
    def test_sum_gives_ones(self):
        p = Parameter("p", np.asarray([1.0, 2.0, 3.0]))
        backward(T.esum(p.expr()))
        np.testing.assert_array_equal(p.grad, np.ones(3))

    def test_unreachable_parameter_keeps_zero_grad(self):
        p = Parameter("p", np.ones(3))
        q = Parameter("q", np.ones(3))
        backward(T.esum(p.expr()))
        np.testing.assert_array_equal(q.grad, np.zeros(3))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(const([1.0, 2.0]))

    def test_graph_isolation_between_steps(self):
        p = Parameter("p", np.ones(3))

        def collect(node, seen):
            if node.uid in seen:
                return
            seen[node.uid] = node
            for parent in node.parents:
                collect(parent, seen)

        first, second = {}, {}
        collect(T.esum(T.tanh(p.expr())), first)
        collect(T.esum(T.tanh(p.expr())), second)
        assert not (set(first) & set(second))

    def test_parameter_leaves_add_straight_into_parameter_grad(self):
        p = Parameter("p", np.asarray([1.0, 2.0]))
        first, second = p.expr(), p.expr()  # two leaves of one parameter in one graph
        assert first.grad is p.grad and second.grad is p.grad
        backward(T.add(T.esum(first), T.esum(T.scale(second, 3.0))))
        np.testing.assert_array_equal(p.grad, [4.0, 4.0])

    def test_gradients_accumulate_across_backwards(self):
        p = Parameter("p", np.ones(2))
        backward(T.esum(p.expr()))
        backward(T.esum(p.expr()))
        np.testing.assert_array_equal(p.grad, 2 * np.ones(2))


class TestDropout:
    def test_rate_zero_identity(self):
        x = const(np.ones((4, 3)))
        assert T.variational_dropout(x, 0.0, np.random.default_rng(0), {}, "k") is x

    def test_inference_identity_any_rate(self):
        x = const(np.ones((4, 3)))
        assert T.variational_dropout(x, 0.9, np.random.default_rng(0), {}, "k",
                                     train=False) is x
        assert T.word_dropout(x, 1.0, np.random.default_rng(0), train=False) is x

    def test_variational_mask_reused_across_steps(self):
        rng = np.random.default_rng(3)
        cache = {}
        outs = [T.variational_dropout(const(np.ones((6, 8))), 0.5, rng, cache, "h")
                for _ in range(10)]
        patterns = [tuple((o.value == 0).reshape(-1)) for o in outs]
        assert len(set(patterns)) == 1
        assert any(patterns[0])  # something was actually dropped

    def test_distinct_keys_get_distinct_masks(self):
        rng = np.random.default_rng(3)
        cache = {}
        a = T.variational_dropout(const(np.ones((16, 16))), 0.5, rng, cache, "a")
        b = T.variational_dropout(const(np.ones((16, 16))), 0.5, rng, cache, "b")
        assert not np.array_equal(a.value, b.value)

    def test_word_dropout_full_rate_zeroes_everything(self):
        out = T.word_dropout(const(np.ones((5, 4))), 1.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out.value, np.zeros((5, 4)))

    def test_word_dropout_zeroes_whole_rows_without_rescale(self):
        rng = np.random.default_rng(12)
        out = T.word_dropout(const(np.ones((200, 3))), 0.4, rng)
        rows = out.value
        assert set(np.unique(rows)) <= {0.0, 1.0}
        assert all(len(np.unique(row)) == 1 for row in rows)  # whole vectors

    def test_variational_dropout_rescales(self):
        rng = np.random.default_rng(7)
        out = T.variational_dropout(const(np.ones((100, 100))), 0.25, rng, {}, "k")
        kept = out.value[out.value != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.75)

    def test_scaled_rates_must_be_below_one(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            T.variational_dropout(const(np.ones(3)), 1.0, rng, {}, "k")
        with pytest.raises(ValueError):
            T.variational_dropout(const(np.ones(3)), -0.1, rng, {}, "k")
        with pytest.raises(ValueError):
            T.word_dropout(const(np.ones(3)), 1.1, rng)


class TestRuntimeDeterminism:
    def test_same_seed_same_draws(self):
        a, b = Runtime(42), Runtime(42)
        pa = a.params.add("x", (4, 4), a.rng)
        pb = b.params.add("x", (4, 4), b.rng)
        np.testing.assert_array_equal(pa.value, pb.value)
        np.testing.assert_array_equal(a.rng.random(10), b.rng.random(10))

    def test_duplicate_parameter_names_rejected(self):
        runtime = Runtime(0)
        runtime.params.add("x", (2,), runtime.rng)
        with pytest.raises(ValueError, match="duplicate"):
            runtime.params.add("x", (2,), runtime.rng)

    def test_clip_global_norm(self):
        p = Parameter("p", np.zeros(4))
        p.grad[...] = 3.0  # norm 6
        norm = T.clip_global_norm([p], 3.0)
        assert norm == pytest.approx(6.0)
        np.testing.assert_allclose(np.sqrt((p.grad ** 2).sum()), 3.0)


def _random_op_loss(rng: np.random.Generator, params: list):
    """Build a random depth-<=5 graph over the given parameter leaves."""
    exprs = [p.expr() for p in params]
    unary = [T.tanh, T.sigmoid, lambda x: T.exp(T.scale(x, 0.1)),
             lambda x: T.log(T.add(T.mul(x, x), const(np.ones(x.shape) * 0.5))),
             lambda x: T.scale(x, -1.7), T.softmax, T.log_softmax]
    binary = [T.add, T.mul, lambda x, y: T.add(x, T.scale(y, -1.0))]
    for _ in range(int(rng.integers(2, 6))):
        if rng.random() < 0.5 and len(exprs) >= 2:
            i, j = rng.integers(0, len(exprs), size=2)
            if exprs[i].shape == exprs[j].shape:
                exprs.append(binary[rng.integers(0, len(binary))](exprs[i], exprs[j]))
                continue
        i = rng.integers(0, len(exprs))
        exprs.append(unary[rng.integers(0, len(unary))](exprs[i]))
    total = None
    for e in exprs:
        s = T.esum(e)
        total = s if total is None else T.add(total, s)
    return total


class TestFiniteDifferences:
    """Every differentiable op agrees with central differences (h=1e-5)."""

    def test_per_op_suite(self):
        rng = np.random.default_rng(99)
        errors = []
        for trial in range(100):
            a = Parameter("a", rng.uniform(-2, 2, size=(3, 4)))
            b = Parameter("b", rng.uniform(-2, 2, size=(3, 4)))
            w = Parameter("w", rng.uniform(-2, 2, size=(4, 3)))
            bias = Parameter("bias", rng.uniform(-2, 2, size=(3,)))
            table = Parameter("table", rng.uniform(-2, 2, size=(5, 4)))
            ids = rng.integers(0, 5, size=3)
            picked = rng.integers(0, 3, size=3)
            builders = [
                lambda: T.esum(T.mul(a.expr(), b.expr())),
                lambda: T.esum(T.add(a.expr(), b.expr())),
                lambda: T.esum(T.add(a.expr(), T.scale(b.expr(), -1.0))),
                lambda: T.esum(T.tanh(T.add(T.matmul(a.expr(), w.expr()), bias.expr()))),
                lambda: T.esum(T.sigmoid(T.matmul(a.expr(), w.expr()))),
                lambda: T.esum(T.exp(T.scale(a.expr(), 0.3))),
                lambda: T.esum(T.log(T.add(T.mul(a.expr(), a.expr()),
                                           const(np.full((3, 4), 0.5))))),
                lambda: T.esum(T.softmax(T.matmul(a.expr(), w.expr()))),
                lambda: T.esum(T.log_softmax(a.expr())),
                lambda: T.esum(T.pick_neg_log_softmax(T.matmul(a.expr(), w.expr()),
                                                      picked)),
                lambda: T.esum(T.lookup(table.expr(), ids)),
                lambda: T.esum(T.concat([a.expr(), b.expr()], axis=1)),
                lambda: T.esum(T.slice_last(a.expr(), 1, 3)),
                lambda: T.esum(T.sum_last(T.tanh(a.expr()))),
                lambda: T.esum(T.mul(T.transpose(w.expr()), a.expr())),
            ]
            build = builders[trial % len(builders)]
            errors.append(finite_diff_check(build, [a, b, w, bias, table]))
        assert np.percentile(errors, 95) < 1e-4
        assert np.median(errors) < 1e-6

    def test_dropout_backward_with_fixed_mask(self):
        rng = np.random.default_rng(5)
        p = Parameter("p", rng.uniform(-2, 2, size=(4, 6)))
        cache = {}
        # sample the mask once; the cache makes repeated builds deterministic
        T.variational_dropout(p.expr(), 0.5, rng, cache, "m")

        def build():
            return T.esum(T.tanh(T.variational_dropout(p.expr(), 0.5, rng, cache, "m")))

        assert finite_diff_check(build, [p]) < 1e-4

    def test_randomized_graphs_depth_five(self):
        rng = np.random.default_rng(123)
        errors = []
        for _ in range(100):
            params = [Parameter(f"p{i}", rng.uniform(-2, 2, size=(2, 3)))
                      for i in range(int(rng.integers(1, 4)))]
            graph_seed = int(rng.integers(0, 2 ** 32))

            def build(seed=graph_seed, params=params):
                # same seed per trial: every rebuild yields the same graph
                return _random_op_loss(np.random.default_rng(seed), params)

            errors.append(finite_diff_check(build, params))
        assert np.percentile(errors, 95) < 1e-4
