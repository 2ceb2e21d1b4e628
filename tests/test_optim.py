"""Optimizer recurrences checked against hand arithmetic."""

import numpy as np
import pytest

from seqrig.optim import AdamTrainer, SgdTrainer
from seqrig.tensor import Parameter


def scalar_param(value: float, grad: float) -> Parameter:
    p = Parameter("p", np.asarray([value]))
    p.grad[...] = grad
    return p


class TestSgd:
    def test_hand_value(self):
        p = scalar_param(1.0, 2.0)
        SgdTrainer(lr=0.1).step([p])
        np.testing.assert_allclose(p.value, [0.8])

    def test_zero_grad_leaves_unchanged(self):
        p = scalar_param(1.0, 0.0)
        SgdTrainer(lr=0.1).step([p])
        np.testing.assert_array_equal(p.value, [1.0])

    def test_grads_zeroed_after_step(self):
        p = scalar_param(1.0, 2.0)
        SgdTrainer(lr=0.1).step([p])
        np.testing.assert_array_equal(p.grad, [0.0])


def reference_adam_step(p, moments, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The out-of-place Adam step the in-place trainer replaced (oracle)."""
    m, v = moments.get(p.name, (np.zeros_like(p.value), np.zeros_like(p.value)))
    m = b1 * m + (1.0 - b1) * p.grad
    v = b2 * v + (1.0 - b2) * p.grad ** 2
    moments[p.name] = (m, v)
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    p.value -= lr * m_hat / (np.sqrt(v_hat) + eps)
    p.grad[...] = 0.0


class TestAdam:
    def test_in_place_steps_bitwise_equal_reference(self):
        rng = np.random.default_rng(0)
        shapes = [(7, 5), (5,), (3, 4), (11,)]
        values = [rng.normal(size=shape) for shape in shapes]
        ours = [Parameter(f"p{i}", v.copy()) for i, v in enumerate(values)]
        ref = [Parameter(f"p{i}", v) for i, v in enumerate(values)]
        trainer, moments = AdamTrainer(lr=0.01), {}
        for t in range(1, 7):
            trainer.lr = 0.01 / t  # the decay policy rewrites lr between steps
            for a, b in zip(ours, ref):
                a.grad[...] = b.grad[...] = rng.normal(scale=10.0 ** rng.integers(-6, 3),
                                                       size=a.shape)
            trainer.step(ours)
            for b in ref:
                reference_adam_step(b, moments, t, trainer.lr)
            for a, b in zip(ours, ref):
                np.testing.assert_array_equal(a.value, b.value)
                np.testing.assert_array_equal(a.grad, 0.0)
                for x, y in zip(trainer._moments[a.name], moments[b.name]):
                    np.testing.assert_array_equal(x, y)

    def test_shared_parameter_moments_stay_per_trainer(self):
        # a trainer that stepped a shared parameter before must not change
        # what another trainer does with it
        rng = np.random.default_rng(3)
        shared, grads = Parameter("w", rng.normal(size=(4, 3))), rng.normal(size=(3, 4, 3))
        busy, fresh, lone = AdamTrainer(lr=0.1), AdamTrainer(lr=0.1), AdamTrainer(lr=0.1)
        for g in grads:
            shared.grad[...] = g
            busy.step([shared])
        alone = Parameter("w", shared.value.copy())
        shared.grad[...] = alone.grad[...] = grads[0]
        fresh.step([shared])
        lone.step([alone])
        np.testing.assert_array_equal(shared.value, alone.value)
        np.testing.assert_array_equal(fresh._moments["w"][0], lone._moments["w"][0])
        assert not np.array_equal(busy._moments["w"][0], fresh._moments["w"][0])

    def test_zero_grad_leaves_unchanged(self):
        p = scalar_param(3.0, 0.0)
        AdamTrainer(lr=0.01).step([p])
        np.testing.assert_array_equal(p.value, [3.0])

    def test_first_step_matches_hand_recurrence(self):
        # m1 = (1-b1) g, v1 = (1-b2) g^2; bias correction makes
        # m_hat = g and v_hat = g^2, so the update is lr * g / (|g| + eps)
        lr, b1, b2, eps, g = 0.003, 0.9, 0.999, 1e-8, -1.7
        p = scalar_param(0.5, g)
        AdamTrainer(lr=lr, beta_1=b1, beta_2=b2, eps=eps).step([p])
        expected = 0.5 - lr * g / (abs(g) + eps)
        np.testing.assert_allclose(p.value, [expected], rtol=1e-12)
        # update magnitude ~ lr with the sign of -g
        assert abs(abs(p.value[0] - 0.5) - lr) < 1e-9

    def test_second_step_matches_hand_recurrence(self):
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        g1, g2 = 2.0, -1.0
        p = scalar_param(0.0, g1)
        trainer = AdamTrainer(lr=lr, beta_1=b1, beta_2=b2, eps=eps)
        trainer.step([p])
        m1, v1 = (1 - b1) * g1, (1 - b2) * g1 ** 2
        x1 = -lr * (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + eps)
        np.testing.assert_allclose(p.value, [x1], rtol=1e-12)
        p.grad[...] = g2
        trainer.step([p])
        m2 = b1 * m1 + (1 - b1) * g2
        v2 = b2 * v1 + (1 - b2) * g2 ** 2
        x2 = x1 - lr * (m2 / (1 - b1 ** 2)) / (np.sqrt(v2 / (1 - b2 ** 2)) + eps)
        np.testing.assert_allclose(p.value, [x2], rtol=1e-12)

    def test_lr_is_mutable_between_steps(self):
        trainer = AdamTrainer(lr=0.4)
        trainer.lr *= 0.5
        trainer.lr *= 0.5
        assert trainer.lr == pytest.approx(0.1)

    def test_per_trainer_moments_are_independent(self):
        # two trainers over one shared parameter must not share state
        p = scalar_param(0.0, 1.0)
        t1, t2 = AdamTrainer(lr=0.1), AdamTrainer(lr=0.1)
        t1.step([p])
        p.grad[...] = 1.0
        t2.step([p])
        assert t1.t == 1 and t2.t == 1
        assert not np.shares_memory(t1._moments["p"][0], t2._moments["p"][0])
