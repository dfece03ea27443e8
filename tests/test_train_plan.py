"""Tests of the compiled training step (tape-to-plan lowering).

The contract under test: a :class:`~repro.core.training.Trainer` with
``compile_train_step=True`` must produce **bit-identical** training
trajectories to the eager tape — same per-epoch losses, same final
parameters, same batch-norm running buffers — while actually replaying a
compiled plan (not silently falling back to eager).
"""

import numpy as np
import pytest

from repro.assignment import get_scheme
from repro.core.config import TrainingConfig
from repro.core.train_plan import PlanUnsupported, compile_train_step
from repro.core.training import Trainer, prepare_batch
from repro.data import DataLoader
from repro.data.dataset import ArrayDataset
from repro.models import ComplexFCNN, ComplexLeNet5, ComplexResNet
from repro.nn import Dropout, Linear, Module, ReLU, Sequential
from repro.nn.losses import cross_entropy
from repro.tensor.random import seed_all
from repro.tensor.tensor import trace_tape


def flat_dataset(rng):
    samples, height, width = 60, 6, 6
    labels = np.arange(samples) % 2
    images = rng.normal(0.0, 0.4, size=(samples, 1, height, width))
    images[labels == 1, :, :3, :] += 1.2
    images[labels == 0, :, 3:, :] += 1.2
    return ArrayDataset(images, labels, num_classes=2)


def image_dataset(rng):
    samples = 40
    labels = np.arange(samples) % 2
    images = rng.normal(0.0, 0.4, size=(samples, 2, 32, 16))
    images[labels == 1, :, :16] += 1.0
    return ArrayDataset(images, labels, num_classes=2)


def build_model(name):
    rng = np.random.default_rng(7)
    if name == "fcnn":
        return ComplexFCNN(18, (12,), 2, decoder="merge", rng=rng)
    if name == "lenet":
        return ComplexLeNet5(in_channels=2, num_classes=2, image_size=(16, 16),
                             channels=(3, 8), hidden_sizes=(30, 21),
                             kernel_size=3, padding=1, rng=rng)
    return ComplexResNet(depth=8, in_channels=2, num_classes=2,
                         base_widths=(2, 4, 8), decoder="merge", rng=rng)


def fit_once(name, compiled, optimizer="sgd", scheduler="none", epochs=2):
    """One full training run from a fixed seed; returns (model, trainer, history)."""
    seed_all(0)
    rng = np.random.default_rng(1234)
    dataset = flat_dataset(rng) if name == "fcnn" else image_dataset(rng)
    model = build_model(name)
    config = TrainingConfig(epochs=epochs, batch_size=16, learning_rate=0.05,
                            optimizer=optimizer, scheduler=scheduler, seed=0)
    trainer = Trainer(model, config, scheme=get_scheme("SI"),
                      compile_train_step=compiled)
    loader = DataLoader(dataset, batch_size=16, shuffle=True,
                        rng=np.random.default_rng(0))
    history = trainer.fit(loader)
    return model, trainer, history


def assert_state_dicts_equal(eager_model, planned_model):
    eager_state = eager_model.state_dict()
    planned_state = planned_model.state_dict()
    assert eager_state.keys() == planned_state.keys()
    mismatched = [key for key in eager_state
                  if not np.array_equal(np.asarray(eager_state[key]),
                                        np.asarray(planned_state[key]))]
    assert not mismatched, f"state diverged at {mismatched}"


def plan_inputs(trainer, images, labels, plan):
    """Every per-step array of ``plan.execute`` for a cross-entropy step."""
    return {**trainer._forward_inputs(images),
            **trainer._loss_inputs(labels, None, plan.input_meta)}


class TestTrajectoryParity:
    """Planned and eager runs must be bit-identical, not merely close."""

    @pytest.mark.parametrize("name,optimizer", [
        ("fcnn", "sgd"),
        ("lenet", "sgd"),
        ("lenet", "adam"),
        ("resnet", "sgd"),
        ("resnet", "adam"),
    ])
    def test_multi_epoch_trajectory_is_bit_identical(self, name, optimizer):
        eager_model, _, eager_history = fit_once(name, False, optimizer)
        planned_model, planned_trainer, planned_history = fit_once(name, True, optimizer)
        stats = planned_trainer.plan_stats
        assert stats["fallback_reason"] is None
        assert stats["compiled"] >= 1
        # exact float equality: the plan replays the same instruction stream
        assert planned_history.train_loss == eager_history.train_loss
        assert planned_history.train_accuracy == eager_history.train_accuracy
        # state_dict covers parameters AND batch-norm running buffers
        assert_state_dicts_equal(eager_model, planned_model)

    def test_tail_batch_gets_its_own_plan(self):
        # 40 samples at batch 16 -> shapes (16, ...) and (8, ...): two plans
        _, trainer, _ = fit_once("lenet", True)
        assert trainer.plan_stats["compiled"] == 2
        for plan_stats in trainer.plan_stats["plans"].values():
            assert plan_stats["forward_instructions"] > 0
            assert plan_stats["backward_instructions"] > 0

    def test_plan_uses_specialized_kernels(self):
        _, trainer, _ = fit_once("resnet", True, epochs=1)
        plans = trainer.plan_stats["plans"]
        assert plans
        for plan_stats in plans.values():
            # conv / linear / batch-norm backwards lower to dedicated builders
            assert plan_stats["specialized_backward"] > 0
            # relu / sigmoid chains collapse into fused instructions
            assert plan_stats["fused_activations"] > 0
            assert plan_stats["parameter_gradients"] > 0


class TestCompilation:
    """What the compiler emits, and what it must not run while compiling."""

    #: forward / backward instruction counts and specialized backward builders
    #: of each model's plans, pinned since the compiler stopped dry-running
    #: the backward closures
    EXPECTED_STATS = {
        "fcnn": (18, 24, 2),
        "lenet": (25, 45, 5),
        "resnet": (50, 86, 28),
    }

    @pytest.mark.parametrize("name,optimizer", [
        ("fcnn", "sgd"),
        ("lenet", "sgd"),
        ("lenet", "adam"),
        ("resnet", "sgd"),
        ("resnet", "adam"),
    ])
    def test_plan_stats_are_pinned(self, name, optimizer):
        _, trainer, _ = fit_once(name, True, optimizer)
        plans = trainer.plan_stats["plans"]
        assert len(plans) == 2   # full batch + tail batch
        for plan_stats in plans.values():
            counts = (plan_stats["forward_instructions"],
                      plan_stats["backward_instructions"],
                      plan_stats["specialized_backward"])
            assert counts == self.EXPECTED_STATS[name]

    def test_compile_invokes_no_backward_closure(self, rng):
        model = build_model("resnet")
        config = TrainingConfig(epochs=1, batch_size=4, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=get_scheme("SI"))
        images = rng.normal(size=(4, 2, 32, 16))
        labels = rng.integers(0, 2, size=4)
        with trace_tape() as trace:
            logits = model(prepare_batch(images, get_scheme("SI")))
            loss = cross_entropy(logits, labels)
            loss.backward()
        calls = []

        def counted(closure):
            def wrapper(grad):
                calls.append(closure)
                return closure(grad)
            return wrapper

        for entry in trace.entries:
            if entry.backward is not None:
                entry.backward = counted(entry.backward)
        plan = compile_train_step(trace, loss, logits, trainer.optimizer)
        assert calls == []
        assert plan.stats["backward_instructions"] == self.EXPECTED_STATS["resnet"][1]

    def test_backward_outside_the_trace_is_unsupported(self, rng):
        model = build_model("fcnn")
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=4, seed=0),
                          scheme=get_scheme("SI"))
        with trace_tape() as trace:
            logits = model(prepare_batch(rng.normal(size=(4, 1, 6, 6)), get_scheme("SI")))
            loss = cross_entropy(logits, rng.integers(0, 2, size=4))
        loss.backward()   # no contribution patterns recorded
        with pytest.raises(PlanUnsupported, match="backward"):
            compile_train_step(trace, loss, logits, trainer.optimizer)

    @pytest.mark.parametrize("scheme", ["SI", "conventional"])
    def test_replays_never_write_into_the_traced_batch(self, rng, scheme):
        """The plan owns its input buffers, even under view-returning assignments."""
        features = 18 if scheme == "SI" else 36
        model = ComplexFCNN(features, (12,), 2, decoder="merge",
                            rng=np.random.default_rng(7))
        trainer = Trainer(model, TrainingConfig(epochs=1, batch_size=8, seed=0),
                          scheme=get_scheme(scheme), compile_train_step=True)
        batches = [(rng.normal(size=(8, 1, 6, 6)), rng.integers(0, 2, size=8))
                   for _ in range(3)]
        pristine = [images.copy() for images, _ in batches]
        for images, labels in batches:   # trace + 2 replays
            trainer.train_step(images, labels)
        assert trainer.plan_stats["compiled"] == 1
        for (images, _), original in zip(batches, pristine):
            assert np.array_equal(images, original)

    def test_phases_compose_to_execute(self, rng):
        model = build_model("resnet")
        config = TrainingConfig(epochs=1, batch_size=4, seed=0)
        trainer = Trainer(model, config, scheme=get_scheme("SI"), compile_train_step=True)
        trainer.optimizer.lr = 0.0   # every execution sees the same parameters
        images = rng.normal(size=(4, 2, 32, 16))
        labels = rng.integers(0, 2, size=4)
        trainer.train_step(images, labels)   # trace + compile
        plan = next(iter(trainer._plans.values()))
        inputs = plan_inputs(trainer, images, labels, plan)
        loss, predictions = plan.execute(inputs)
        logits = plan.forward(inputs).copy()
        assert np.array_equal(logits.argmax(axis=1), predictions)
        assert plan.finish(inputs)[0] == loss
        assert plan.stats["loss_head_instructions"] > 0


class TestPlannedGradients:
    """The plan's backward pass must agree with finite differences."""

    def _compiled_plan(self):
        seed_all(0)
        rng = np.random.default_rng(1234)
        model = ComplexFCNN(18, (12,), 2, decoder="merge", rng=rng)
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=get_scheme("SI"),
                          compile_train_step=True)
        trainer.optimizer.lr = 0.0  # keep the parameters frozen at the trace point
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.train()
        trainer.train_step(images, labels)  # trace + compile
        assert trainer.plan_stats["compiled"] == 1, trainer.plan_stats
        plan = next(iter(trainer._plans.values()))
        inputs = plan_inputs(trainer, images, labels, plan)
        return model, plan, inputs

    def test_execute_without_update_leaves_grads_bound(self):
        model, plan, inputs = self._compiled_plan()
        before = {name: parameter.data.copy()
                  for name, parameter in model.named_parameters()}
        plan.execute(inputs, update=False)
        for name, parameter in model.named_parameters():
            assert parameter.grad is not None, name
            assert parameter.grad.shape == parameter.data.shape
            assert np.array_equal(parameter.data, before[name]), name
        # the grad buffers are persistent: re-executing rebinds the same arrays
        bound = {name: parameter.grad for name, parameter in model.named_parameters()}
        plan.execute(inputs, update=False)
        for name, parameter in model.named_parameters():
            assert parameter.grad is bound[name], name

    def test_planned_backward_matches_finite_differences(self):
        model, plan, inputs = self._compiled_plan()
        loss, _ = plan.execute(inputs, update=False)
        assert np.isfinite(loss)
        analytic = {name: parameter.grad.copy()
                    for name, parameter in model.named_parameters()}
        step = 1e-6
        rng = np.random.default_rng(3)
        for name, parameter in model.named_parameters():
            flat = parameter.data.reshape(-1)
            for index in rng.choice(flat.size, size=min(3, flat.size), replace=False):
                original = flat[index]
                flat[index] = original + step
                loss_plus, _ = plan.execute(inputs, update=False)
                flat[index] = original - step
                loss_minus, _ = plan.execute(inputs, update=False)
                flat[index] = original
                numeric = (loss_plus - loss_minus) / (2.0 * step)
                expected = analytic[name].reshape(-1)[index]
                assert numeric == pytest.approx(expected, rel=1e-4, abs=1e-6), name


class TestSchedulerInteraction:
    """The learning rate is read per step, never baked into the plan."""

    def test_cosine_schedule_trajectory_is_bit_identical(self):
        eager_model, _, eager_history = fit_once("fcnn", False, scheduler="cosine",
                                                 epochs=3)
        planned_model, planned_trainer, planned_history = fit_once(
            "fcnn", True, scheduler="cosine", epochs=3)
        assert planned_trainer.plan_stats["compiled"] >= 1
        assert planned_history.train_loss == eager_history.train_loss
        assert_state_dicts_equal(eager_model, planned_model)

    def test_manual_lr_change_affects_compiled_plan(self, rng):
        seed_all(0)
        model = ComplexFCNN(18, (12,), 2, decoder="merge",
                            rng=np.random.default_rng(7))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=get_scheme("SI"),
                          compile_train_step=True)
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.train()
        trainer.train_step(images, labels)
        assert trainer.plan_stats["compiled"] == 1
        trainer.optimizer.lr = 0.0  # a plan with lr baked in would keep moving
        before = {name: parameter.data.copy()
                  for name, parameter in model.named_parameters()}
        trainer.train_step(images, labels)
        for name, parameter in model.named_parameters():
            assert np.array_equal(parameter.data, before[name]), name


class _DropoutNet(Module):
    """A real-valued net whose dropout mask makes the trace volatile."""

    def __init__(self, rng):
        super().__init__()
        self.network = Sequential(Linear(36, 16, rng=rng), ReLU(),
                                  Dropout(0.5, rng=rng), Linear(16, 2, rng=rng))

    def forward(self, inputs):
        return self.network(inputs.flatten(start_dim=1))


class TestFallbackAndOverrides:
    def test_volatile_trace_falls_back_to_eager(self, rng):
        model = _DropoutNet(np.random.default_rng(7))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, compile_train_step=True)
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.train()
        loss, _ = trainer.train_step(images, labels)
        assert np.isfinite(loss)
        stats = trainer.plan_stats
        assert stats["compiled"] == 0
        assert stats["fallback_reason"] is not None
        assert "dropout" in stats["fallback_reason"]
        # training keeps working on the eager path
        loss, _ = trainer.train_step(images, labels)
        assert np.isfinite(loss)
        assert trainer.plan_stats["compiled"] == 0

    @pytest.mark.parametrize("configured,argument,expected", [
        (True, None, True),
        (False, None, False),
        (True, False, False),
        (False, True, True),
    ], ids=["config-on", "config-off", "argument-off", "argument-on"])
    def test_argument_overrides_config(self, configured, argument, expected, rng):
        model = ComplexFCNN(18, (12,), 2, decoder="merge",
                            rng=np.random.default_rng(7))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0,
                                compile_train_step=configured)
        trainer = Trainer(model, config, scheme=get_scheme("SI"),
                          compile_train_step=argument)
        assert trainer.plan_stats["enabled"] is expected
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.train()
        trainer.train_step(images, labels)
        assert trainer.plan_stats["compiled"] == int(expected)

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_environment_does_not_override(self, value, monkeypatch):
        monkeypatch.setenv("REPRO_TRAIN_PLAN", value)
        model = ComplexFCNN(18, (12,), 2, decoder="merge",
                            rng=np.random.default_rng(7))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        for flag in (True, False):
            trainer = Trainer(model, config, compile_train_step=flag)
            assert trainer.plan_stats["enabled"] is flag

    def test_eval_mode_skips_the_plan(self, rng):
        model = ComplexFCNN(18, (12,), 2, decoder="merge",
                            rng=np.random.default_rng(7))
        config = TrainingConfig(epochs=1, batch_size=8, learning_rate=0.05, seed=0)
        trainer = Trainer(model, config, scheme=get_scheme("SI"),
                          compile_train_step=True)
        images = rng.normal(size=(8, 1, 6, 6))
        labels = rng.integers(0, 2, size=8)
        trainer.model.eval()
        trainer.train_step(images, labels)
        assert trainer.plan_stats["compiled"] == 0
