"""Tests of loss functions, including the distillation losses of Eqs. (3)/(4)."""

import numpy as np
import pytest
from scipy.special import log_softmax as scipy_log_softmax, softmax as scipy_softmax

from repro.nn.losses import (
    CrossEntropyLoss,
    DistillationLoss,
    KLDivergenceLoss,
    MSELoss,
    cross_entropy,
    kl_divergence,
    mse_loss,
)
from repro.tensor import Tensor, gradcheck


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        expected = -scipy_log_softmax(logits, axis=1)[np.arange(6), labels].mean()
        loss = cross_entropy(Tensor(logits), labels)
        assert float(loss.data) == pytest.approx(expected)

    def test_perfect_prediction_is_near_zero(self):
        logits = np.full((3, 3), -50.0)
        logits[np.arange(3), np.arange(3)] = 50.0
        loss = cross_entropy(Tensor(logits), np.arange(3))
        assert float(loss.data) < 1e-6

    def test_label_smoothing_increases_loss_of_confident_model(self):
        logits = np.full((2, 4), -20.0)
        logits[:, 0] = 20.0
        labels = np.zeros(2, dtype=int)
        plain = float(cross_entropy(Tensor(logits), labels).data)
        smoothed = float(cross_entropy(Tensor(logits), labels, label_smoothing=0.2).data)
        assert smoothed > plain

    def test_gradients(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        labels = rng.integers(0, 5, size=4)
        gradcheck(lambda: cross_entropy(logits, labels), [logits])

    def test_batch_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(rng.normal(size=(4, 3))), np.zeros(5, dtype=int))

    def test_module_wrapper(self, rng):
        loss_fn = CrossEntropyLoss(label_smoothing=0.1)
        logits = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        loss = loss_fn(logits, np.array([0, 1, 2]))
        assert loss.size == 1

    def test_invalid_smoothing(self):
        with pytest.raises(ValueError):
            CrossEntropyLoss(label_smoothing=1.5)


class TestMSE:
    def test_value(self, rng):
        prediction = rng.normal(size=(5, 3))
        target = rng.normal(size=(5, 3))
        assert float(mse_loss(Tensor(prediction), target).data) == pytest.approx(
            ((prediction - target) ** 2).mean())

    def test_module(self, rng):
        assert float(MSELoss()(Tensor(np.ones((2, 2))), np.ones((2, 2))).data) == 0.0


class TestKLDivergence:
    def test_zero_when_distributions_match(self, rng):
        logits = rng.normal(size=(4, 6))
        divergence = kl_divergence(Tensor(logits), Tensor(logits.copy()), temperature=2.0)
        assert float(divergence.data) == pytest.approx(0.0, abs=1e-10)

    def test_non_negative(self, rng):
        for _ in range(5):
            student = Tensor(rng.normal(size=(3, 5)))
            teacher = Tensor(rng.normal(size=(3, 5)))
            assert float(kl_divergence(student, teacher).data) >= -1e-12

    def test_matches_manual_kl(self, rng):
        student = rng.normal(size=(2, 4))
        teacher = rng.normal(size=(2, 4))
        temperature = 3.0
        p = scipy_softmax(teacher / temperature, axis=1)
        log_p = scipy_log_softmax(teacher / temperature, axis=1)
        log_q = scipy_log_softmax(student / temperature, axis=1)
        expected = (p * (log_p - log_q)).sum(axis=1).mean() * temperature ** 2
        ours = kl_divergence(Tensor(student), Tensor(teacher), temperature=temperature)
        assert float(ours.data) == pytest.approx(expected)

    def test_gradient_flows_only_to_student(self, rng):
        student = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        teacher = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        kl_divergence(student, teacher).backward()
        assert student.grad is not None
        assert teacher.grad is None

    def test_invalid_temperature(self, rng):
        with pytest.raises(ValueError):
            kl_divergence(Tensor(rng.normal(size=(2, 2))), Tensor(rng.normal(size=(2, 2))),
                          temperature=0.0)

    @pytest.mark.parametrize("temperature", [1.0, 2.0, 3.7])
    def test_bit_identical_to_graph_softmax_formulation(self, rng, temperature):
        """The out-of-graph peer distribution matches F.softmax / F.log_softmax exactly."""
        from repro.tensor import functional as F

        for scale in (0.1, 1.0, 30.0):
            student_logits = scale * rng.normal(size=(16, 10))
            teacher_logits = scale * rng.normal(size=(16, 10))
            ours_input = Tensor(student_logits.copy(), requires_grad=True)
            graph_input = Tensor(student_logits.copy(), requires_grad=True)
            ours = kl_divergence(ours_input, teacher_logits, temperature=temperature)
            scaled = Tensor(teacher_logits / temperature)
            graph = (F.softmax(scaled, axis=-1)
                     * (F.log_softmax(scaled, axis=-1)
                        - F.log_softmax(graph_input / temperature, axis=-1))
                     ).sum(axis=-1).mean() * (temperature ** 2)
            ours.backward()
            graph.backward()
            assert ours.data == graph.data
            assert np.array_equal(ours_input.grad, graph_input.grad)

    def test_peer_distribution_is_a_replayable_trace_input(self, rng):
        from repro.tensor.tensor import trace_tape

        with trace_tape() as trace:
            kl_divergence(Tensor(rng.normal(size=(4, 3)), requires_grad=True),
                          rng.normal(size=(4, 3)), temperature=2.0)
        assert not trace.volatile
        assert {"kd_target_probs", "kd_target_log_probs"} <= set(trace.inputs)
        assert trace.inputs["kd_target_probs"][1] == {"temperature": 2.0}

    def test_module_wrapper(self, rng):
        loss_fn = KLDivergenceLoss(temperature=2.0)
        value = loss_fn(Tensor(rng.normal(size=(2, 3))), Tensor(rng.normal(size=(2, 3))))
        assert value.size == 1


class TestDistillationLoss:
    def test_alpha_zero_equals_cross_entropy(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)))
        peer = Tensor(rng.normal(size=(4, 5)))
        labels = rng.integers(0, 5, size=4)
        loss = DistillationLoss(alpha=0.0)(logits, labels, peer)
        assert float(loss.data) == pytest.approx(float(cross_entropy(logits, labels).data))

    def test_no_peer_equals_cross_entropy(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)))
        labels = rng.integers(0, 5, size=4)
        loss = DistillationLoss(alpha=1.0)(logits, labels, None)
        assert float(loss.data) == pytest.approx(float(cross_entropy(logits, labels).data))

    def test_combined_is_ce_plus_alpha_kl(self, rng):
        logits = Tensor(rng.normal(size=(4, 5)))
        peer = Tensor(rng.normal(size=(4, 5)))
        labels = rng.integers(0, 5, size=4)
        alpha, temperature = 0.7, 2.0
        combined = DistillationLoss(alpha=alpha, temperature=temperature)(logits, labels, peer)
        expected = (float(cross_entropy(logits, labels).data)
                    + alpha * float(kl_divergence(logits, peer, temperature=temperature).data))
        assert float(combined.data) == pytest.approx(expected)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            DistillationLoss(alpha=-1.0)
