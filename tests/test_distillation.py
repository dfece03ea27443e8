"""Tests of SCVNN-CVNN mutual learning (Section III-C)."""

import copy

import numpy as np
import pytest

from repro.assignment import get_scheme
from repro.core.config import TrainingConfig
from repro.core.distillation import MutualLearningResult, MutualLearningTrainer
from repro.core.training import apply_parameter_constraints, prepare_batch
from repro.data import DataLoader
from repro.data.dataset import ArrayDataset
from repro.models import ComplexFCNN, ComplexResNet
from repro.nn import Dropout, Module
from repro.nn.losses import cross_entropy, kl_divergence
from repro.tensor.random import seed_all


def loaders(dataset, batch_size=16):
    return (DataLoader(dataset, batch_size=batch_size, shuffle=True, rng=np.random.default_rng(0)),
            DataLoader(dataset, batch_size=batch_size, shuffle=False))


def build_pair(rng):
    """A split student (half width) and a conventional-assignment teacher."""
    student = ComplexFCNN(18, (10,), 2, decoder="merge", rng=rng)
    teacher = ComplexFCNN(36, (20,), 2, decoder="photodiode", rng=rng)
    return student, teacher


class TestMutualLearning:
    def test_both_networks_learn(self, tiny_flat_dataset, rng):
        student, teacher = build_pair(rng)
        config = TrainingConfig(epochs=5, batch_size=16, learning_rate=0.05,
                                distillation_alpha=1.0, seed=0)
        trainer = MutualLearningTrainer(student, teacher, config,
                                        student_scheme=get_scheme("SI"))
        train_loader, test_loader = loaders(tiny_flat_dataset)
        result = trainer.fit(train_loader, test_loader)
        assert isinstance(result, MutualLearningResult)
        assert result.student_test_accuracy > 0.75
        assert result.teacher_test_accuracy > 0.75
        assert len(result.student_history.train_loss) == 5
        assert result.student_history.train_loss[-1] < result.student_history.train_loss[0]

    def test_teacher_defaults_to_conventional_assignment(self, rng):
        student, teacher = build_pair(rng)
        trainer = MutualLearningTrainer(student, teacher, TrainingConfig(epochs=1),
                                        student_scheme=get_scheme("SI"))
        assert trainer.teacher_scheme.name == "conventional"

    def test_alpha_zero_reduces_to_independent_training(self, tiny_flat_dataset, rng):
        """With alpha = 0 the distillation terms vanish; the losses are plain CE."""
        student, teacher = build_pair(rng)
        config = TrainingConfig(epochs=1, batch_size=16, learning_rate=0.05,
                                distillation_alpha=0.0, seed=0)
        trainer = MutualLearningTrainer(student, teacher, config,
                                        student_scheme=get_scheme("SI"))
        train_loader, test_loader = loaders(tiny_flat_dataset)
        result = trainer.fit(train_loader, test_loader)
        assert np.isfinite(result.student_history.train_loss[0])

    def test_single_step_updates_both_models(self, tiny_flat_dataset, rng):
        student, teacher = build_pair(rng)
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.1, seed=0)
        trainer = MutualLearningTrainer(student, teacher, config,
                                        student_scheme=get_scheme("SI"))
        images = np.stack([tiny_flat_dataset[i][0] for i in range(8)])
        labels = np.array([tiny_flat_dataset[i][1] for i in range(8)])
        student_before = student.trunk[0].weight_real.data.copy()
        teacher_before = teacher.trunk[0].weight_real.data.copy()
        student_loss, teacher_loss = trainer._mutual_step(images, labels)
        assert np.isfinite(student_loss) and np.isfinite(teacher_loss)
        assert not np.allclose(student.trunk[0].weight_real.data, student_before)
        assert not np.allclose(teacher.trunk[0].weight_real.data, teacher_before)

    def test_distillation_pulls_student_towards_teacher(self, tiny_flat_dataset, rng):
        """With a huge alpha the student's predictions approach the teacher's."""
        from repro.core.training import prepare_batch
        from repro.tensor import no_grad
        from repro.tensor.functional import softmax

        student, teacher = build_pair(rng)
        config = TrainingConfig(epochs=6, batch_size=16, learning_rate=0.05,
                                distillation_alpha=10.0, seed=0)
        trainer = MutualLearningTrainer(student, teacher, config,
                                        student_scheme=get_scheme("SI"))
        train_loader, _ = loaders(tiny_flat_dataset)
        trainer.fit(train_loader)

        images = np.stack([tiny_flat_dataset[i][0] for i in range(16)])
        with no_grad():
            student_probabilities = softmax(student(prepare_batch(images, get_scheme("SI")))).data
            teacher_probabilities = softmax(teacher(prepare_batch(images, get_scheme("conventional")))).data
        agreement = (student_probabilities.argmax(1) == teacher_probabilities.argmax(1)).mean()
        assert agreement > 0.7


# --------------------------------------------------------------------------- #
# compiled mutual learning
# --------------------------------------------------------------------------- #

def build_resnet_pair():
    """A small split ResNet student and a deeper conventional ResNet teacher."""
    rng = np.random.default_rng(3)
    student = ComplexResNet(depth=8, in_channels=2, num_classes=3,
                            base_widths=(2, 4, 4), decoder="merge", rng=rng)
    teacher = ComplexResNet(depth=14, in_channels=3, num_classes=3,
                            base_widths=(2, 4, 4), decoder="photodiode", rng=rng)
    return student, teacher


def resnet_dataset():
    rng = np.random.default_rng(11)
    samples = 20   # batch 8 -> two full batches and a tail batch of 4
    labels = np.arange(samples) % 3
    images = rng.normal(0.0, 0.5, size=(samples, 3, 8, 8))
    images[labels == 1, :, :4] += 1.0
    images[labels == 2, :, 4:] += 1.0
    return ArrayDataset(images, labels, num_classes=3)


class _DropoutHead(Module):
    """A complex FCNN whose logits pass through dropout: an unreplayable trace."""

    def __init__(self, body, rng):
        super().__init__()
        self.body = body
        self.dropout = Dropout(0.3, rng=rng)

    def forward(self, inputs):
        return self.dropout(self.body(inputs))


def fit_mutual(pair, dataset, planned, alpha=1.0, batch_size=8,
               epochs=2, scheme="CL"):
    """One seeded mutual-learning run; returns (trainer, result)."""
    seed_all(0)
    student, teacher = pair()
    config = TrainingConfig(epochs=epochs, batch_size=batch_size, learning_rate=0.05,
                            distillation_alpha=alpha, distillation_temperature=2.0,
                            seed=0, compile_train_step=planned)
    trainer = MutualLearningTrainer(student, teacher, config,
                                    student_scheme=get_scheme(scheme))
    loader = DataLoader(dataset, batch_size=batch_size, shuffle=True,
                        rng=np.random.default_rng(0))
    return trainer, trainer.fit(loader)


def assert_states_equal(expected, actual):
    expected_state, actual_state = expected.state_dict(), actual.state_dict()
    assert expected_state.keys() == actual_state.keys()
    mismatched = [key for key in expected_state
                  if not np.array_equal(np.asarray(expected_state[key]),
                                        np.asarray(actual_state[key]))]
    assert not mismatched, f"state diverged at {mismatched}"


def fcnn_pair():
    return build_pair(np.random.default_rng(5))


def dropout_pair():
    rng = np.random.default_rng(5)
    student, teacher = build_pair(rng)
    return _DropoutHead(student, np.random.default_rng(9)), teacher


class TestPlannedMutualLearning:
    """Planned mutual learning is bit-identical to the eager tape."""

    @pytest.mark.parametrize("pair,data,scheme", [
        ("fcnn", "flat", "SI"),
        ("resnet", "image", "CL"),
    ])
    @pytest.mark.parametrize("alpha", [1.0, 0.0])
    def test_planned_matches_eager_bit_for_bit(self, pair, data, scheme, alpha,
                                               tiny_flat_dataset):
        build = fcnn_pair if pair == "fcnn" else build_resnet_pair
        # 60 flat samples at batch 16 and 20 images at batch 8: both end
        # with a smaller tail batch, which compiles plans of its own
        dataset = tiny_flat_dataset if data == "flat" else resnet_dataset()
        batch_size = 16 if data == "flat" else 8
        eager, eager_result = fit_mutual(build, dataset, False, alpha,
                                         batch_size, scheme=scheme)
        planned, planned_result = fit_mutual(build, dataset, True, alpha,
                                             batch_size, scheme=scheme)
        for role, stats in planned.plan_stats.items():
            assert stats["fallback_reason"] is None, role
            assert stats["compiled"] == 2, role   # full batch + tail batch
        assert eager.plan_stats["student"]["compiled"] == 0
        assert (planned_result.student_history.train_loss
                == eager_result.student_history.train_loss)
        assert (planned_result.teacher_history.train_loss
                == eager_result.teacher_history.train_loss)
        assert_states_equal(eager.student, planned.student)
        assert_states_equal(eager.teacher, planned.teacher)

    def test_volatile_model_falls_back_cleanly(self, tiny_flat_dataset):
        eager, eager_result = fit_mutual(dropout_pair, tiny_flat_dataset,
                                         False, batch_size=16, scheme="SI")
        planned, planned_result = fit_mutual(dropout_pair, tiny_flat_dataset,
                                             True, batch_size=16, scheme="SI")
        stats = planned.plan_stats
        assert stats["student"]["compiled"] == 0
        assert "dropout" in stats["student"]["fallback_reason"]
        assert stats["teacher"]["fallback_reason"] is None
        assert stats["teacher"]["compiled"] == 2
        assert (planned_result.student_history.train_loss
                == eager_result.student_history.train_loss)
        assert_states_equal(eager.student, planned.student)
        assert_states_equal(eager.teacher, planned.teacher)

    def test_benchmark_pair_compiles_without_fallback(self):
        from repro.models.factory import ModelSpec, build_model

        student_spec = ModelSpec("resnet", "scvnn", (3, 16, 16), 10, assignment="CL",
                                 depth=8, width_divider=2)
        teacher_spec = ModelSpec("resnet", "cvnn", (3, 16, 16), 10, depth=14,
                                 width_divider=2)
        trainer = MutualLearningTrainer(
            build_model(student_spec, rng=np.random.default_rng(0)),
            build_model(teacher_spec, rng=np.random.default_rng(1)),
            TrainingConfig(epochs=1, batch_size=4, scheduler="none"),
            student_scheme=student_spec.scheme())
        rng = np.random.default_rng(2)
        for _ in range(2):   # trace, then replay
            trainer._mutual_step(rng.normal(size=(4, 3, 16, 16)), rng.integers(0, 10, 4))
        stats = trainer.plan_stats
        assert set(stats) == {"student", "teacher"}
        for role in ("student", "teacher"):
            assert stats[role]["fallback_reason"] is None, role
            assert stats[role]["compiled"] == 1, role


def _double_forward_step(trainer, images, labels):
    """The mutual step as first written: the teacher runs forward twice.

    Kept as the reference the single-forward step is pinned against.
    """
    config = trainer.config
    alpha = config.distillation_alpha
    temperature = config.distillation_temperature

    trainer.student_trainer.optimizer.zero_grad()
    student_logits = trainer.student(prepare_batch(images, trainer.student_scheme))
    teacher_logits = trainer.teacher(prepare_batch(images, trainer.teacher_scheme))
    student_loss = cross_entropy(student_logits, labels,
                                 label_smoothing=config.label_smoothing)
    student_loss = student_loss + alpha * kl_divergence(
        student_logits, teacher_logits.detach(), temperature=temperature)
    student_loss.backward()
    trainer.student_trainer.optimizer.clip_grad_norm(config.grad_clip)
    trainer.student_trainer.optimizer.step()
    apply_parameter_constraints(trainer.student)

    trainer.teacher_trainer.optimizer.zero_grad()
    teacher_logits = trainer.teacher(prepare_batch(images, trainer.teacher_scheme))
    teacher_loss = cross_entropy(teacher_logits, labels,
                                 label_smoothing=config.label_smoothing)
    teacher_loss = teacher_loss + alpha * kl_divergence(
        teacher_logits, student_logits.detach(), temperature=temperature)
    teacher_loss.backward()
    trainer.teacher_trainer.optimizer.clip_grad_norm(config.grad_clip)
    trainer.teacher_trainer.optimizer.step()
    apply_parameter_constraints(trainer.teacher)
    return float(student_loss.data), float(teacher_loss.data)


def _batch_norms(model):
    from repro.nn.normalization import _BatchNorm

    return [(name, module) for name, module in model.named_modules()
            if isinstance(module, _BatchNorm)]


class TestSingleTeacherForward:
    """The teacher runs forward once per mutual step."""

    def _trainer(self, planned):
        seed_all(0)
        student, teacher = build_resnet_pair()
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05,
                                distillation_temperature=2.0, seed=0,
                                compile_train_step=planned)
        return MutualLearningTrainer(student, teacher, config,
                                     student_scheme=get_scheme("CL"))

    def _batches(self, count):
        rng = np.random.default_rng(4)
        return [(rng.normal(0.0, 0.5, size=(8, 3, 8, 8)), rng.integers(0, 3, size=8))
                for _ in range(count)]

    @pytest.mark.parametrize("planned", [True, False])
    def test_teacher_bn_statistics_move_once_per_step(self, planned):
        trainer = self._trainer(planned)
        teacher_scheme = trainer.teacher_scheme
        # step 1 traces (or runs eagerly), step 2 replays the compiled plan
        for images, labels in self._batches(2):
            once = copy.deepcopy(trainer.teacher)
            once(prepare_batch(images, teacher_scheme))   # one momentum update
            trainer._mutual_step(images, labels)
            norms = _batch_norms(trainer.teacher)
            assert norms
            for (name, module), (_, expected) in zip(norms, _batch_norms(once)):
                assert np.array_equal(module.running_mean, expected.running_mean), name
                assert np.array_equal(module.running_var, expected.running_var), name
            twice = copy.deepcopy(once)
            twice(prepare_batch(images, teacher_scheme))
            assert not all(np.array_equal(module.running_mean, doubled.running_mean)
                           for (_, module), (_, doubled)
                           in zip(norms, _batch_norms(twice)))

    @pytest.mark.parametrize("planned", [True, False])
    def test_student_trajectory_matches_double_forward_reference(self, planned):
        reference = self._trainer(False)
        trainer = self._trainer(planned)
        for images, labels in self._batches(5):
            expected = _double_forward_step(reference, images, labels)
            actual = trainer._mutual_step(images, labels)
            assert actual == expected
        assert_states_equal(reference.student, trainer.student)
        for (name, expected), (_, actual) in zip(reference.teacher.named_parameters(),
                                                 trainer.teacher.named_parameters()):
            assert np.array_equal(expected.data, actual.data), name
