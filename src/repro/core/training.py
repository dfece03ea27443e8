"""Supervised training loop shared by every experiment.

The :class:`Trainer` hides the difference between real and complex models: a
data-assignment scheme turns each numpy image batch into either a real tensor
(RVNN) or a :class:`~repro.nn.complex.ComplexTensor` (CVNN / SCVNN), and the
model maps it to real logits.

The hot path is compiled: the first step at each ``(image, label)`` batch
shape runs eagerly under :func:`~repro.tensor.tensor.trace_tape` and is
lowered by :mod:`repro.core.train_plan` to a flat instruction plan
(forward + backward + optimizer update on preallocated buffers).  Later
steps with the same shapes replay the plan; anything the tracer cannot
lower (dropout, custom ops) falls back to the eager tape transparently.

A step can also run in two phases, :meth:`Trainer.begin_step` (forward to
the logits) and :meth:`Trainer.finish_step` (loss, backward, update),
optionally against a peer network's logits: this is how mutual learning
(:mod:`repro.core.distillation`) interleaves two trainers.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.assignment import AssignmentScheme
from repro.core.config import TrainingConfig
from repro.core.train_plan import PlanUnsupported, TrainStepPlan, compile_train_step
from repro.data.loader import DataLoader
from repro.nn.complex import ComplexTensor
from repro.nn.losses import (
    cross_entropy,
    kl_divergence,
    smoothed_targets,
    softened_distribution,
)
from repro.nn.module import Module
from repro.optim import SGD, Adam, CosineAnnealingLR, MultiStepLR
from repro.tensor.tensor import TapeTrace, Tensor, mark_trace_input, no_grad, trace_tape


def prepare_batch(images: np.ndarray, scheme: Optional[AssignmentScheme]):
    """Convert a numpy image batch into the input the model expects.

    With a scheme, the batch is packed into a :class:`ComplexTensor` (complex
    models); without one it is wrapped as a real :class:`Tensor` (RVNN).  The
    wrapped tensors are marked as trace inputs so a recorded step knows which
    leaf buffers to refresh per batch.
    """
    if scheme is None:
        tensor = Tensor(np.asarray(images, dtype=float))
        mark_trace_input(tensor, "input", {})
        return tensor
    result = scheme.assign(images)
    real = Tensor(result.real)
    imag = Tensor(result.imag)
    mark_trace_input(real, "input_real", {})
    mark_trace_input(imag, "input_imag", {})
    return ComplexTensor(real, imag)


def apply_parameter_constraints(model: Module) -> None:
    """Re-project constrained modules (e.g. unitary decoders) after an update."""
    for module in model.modules():
        project = getattr(module, "project_to_unitary", None)
        if callable(project):
            project()


def evaluate_accuracy(model: Module, loader: DataLoader,
                      scheme: Optional[AssignmentScheme] = None) -> float:
    """Top-1 accuracy of ``model`` over ``loader``."""
    model.eval()
    correct = 0
    total = 0
    with no_grad():
        for images, labels in loader:
            logits = model(prepare_batch(images, scheme))
            predictions = logits.data.argmax(axis=1)
            correct += int((predictions == labels).sum())
            total += labels.shape[0]
    model.train()
    return correct / total if total else 0.0


@dataclass
class TrainingHistory:
    """Per-epoch metrics collected by the trainer."""

    train_loss: List[float] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)
    #: wall-clock seconds spent in the training batches of each epoch
    epoch_time: List[float] = field(default_factory=list)
    #: training throughput of each epoch (samples / epoch_time)
    samples_per_second: List[float] = field(default_factory=list)

    @property
    def best_test_accuracy(self) -> float:
        return max(self.test_accuracy) if self.test_accuracy else 0.0

    @property
    def final_test_accuracy(self) -> float:
        return self.test_accuracy[-1] if self.test_accuracy else 0.0


@dataclass
class _PendingStep:
    """A step between :meth:`Trainer.begin_step` and :meth:`Trainer.finish_step`."""

    labels: np.ndarray
    distill: bool
    #: the compiled plan replaying this step, if any
    plan: Optional[TrainStepPlan] = None
    #: eager (and traced) steps: the logits tensor of the forward phase
    logits: Optional[Tensor] = None
    #: traced steps: the tape being recorded and the plan key it compiles to
    trace: Optional[TapeTrace] = None
    key: Optional[Tuple] = None

    def tracing(self):
        """Record into this step's tape, if it is being traced."""
        return trace_tape(self.trace) if self.trace is not None else contextlib.nullcontext()


class Trainer:
    """Standard cross-entropy trainer.

    Parameters
    ----------
    model:
        The network to train (real or complex flavour).
    config:
        Training hyper-parameters.
    scheme:
        Data-assignment scheme for complex models; ``None`` for real models.
    compile_train_step:
        Override ``config.compile_train_step``.  ``None`` keeps the config
        value.
    """

    #: distinct batch shapes the trainer keeps compiled plans for; typically a
    #: run only ever sees two (the full batch and the smaller final batch)
    MAX_PLANS = 8

    def __init__(self, model: Module, config: TrainingConfig,
                 scheme: Optional[AssignmentScheme] = None,
                 compile_train_step: Optional[bool] = None):
        self.model = model
        self.config = config
        self.scheme = scheme
        self.optimizer = self._build_optimizer()
        self.scheduler = self._build_scheduler()
        self._plan_enabled = (config.compile_train_step if compile_train_step is None
                              else compile_train_step)
        self._plans: Dict[Tuple, TrainStepPlan] = {}
        self._plan_fallback_reason: Optional[str] = None
        self._pending: Optional[_PendingStep] = None

    def _build_optimizer(self):
        params = self.model.parameters()
        if self.config.optimizer == "adam":
            return Adam(params, lr=self.config.learning_rate,
                        weight_decay=self.config.weight_decay)
        return SGD(params, lr=self.config.learning_rate, momentum=self.config.momentum,
                   weight_decay=self.config.weight_decay)

    def _build_scheduler(self):
        if self.config.scheduler == "cosine":
            return CosineAnnealingLR(self.optimizer, total_epochs=self.config.epochs)
        if self.config.scheduler == "multistep" and self.config.milestones:
            return MultiStepLR(self.optimizer, milestones=self.config.milestones)
        return None

    # ------------------------------------------------------------------ #
    # the training step: compiled plan when possible, eager tape otherwise
    # ------------------------------------------------------------------ #
    @property
    def plan_stats(self) -> dict:
        """Diagnostics of the plan compiler: per-shape stats and fallbacks."""
        return {
            "enabled": self._plan_enabled,
            "compiled": len(self._plans),
            "fallback_reason": self._plan_fallback_reason,
            "plans": {str(key): plan.stats for key, plan in self._plans.items()},
        }

    def train_step(self, images: np.ndarray, labels: np.ndarray):
        """One optimizer update; returns ``(batch loss, predicted labels)``."""
        self.begin_step(images, labels)
        return self.finish_step()

    def begin_step(self, images: np.ndarray, labels: np.ndarray,
                   distill: bool = False) -> np.ndarray:
        """Forward phase of one step; returns the logits array.

        The logits stay valid until the next step begins.  ``distill`` says
        the matching :meth:`finish_step` gets a peer network's logits and adds
        the mutual-learning term ``alpha * kl_divergence(logits, peer)`` with
        the config's ``distillation_alpha`` and ``distillation_temperature``
        (ignored when alpha is 0, where the term vanishes).
        """
        pending = _PendingStep(labels=labels,
                               distill=distill and self.config.distillation_alpha > 0)
        if self._plan_enabled and self.model.training:
            key = (np.shape(images), np.shape(labels), pending.distill)
            pending.plan = self._plans.get(key)
            if (pending.plan is None and self._plan_fallback_reason is None
                    and len(self._plans) < self.MAX_PLANS):
                pending.trace, pending.key = TapeTrace(), key
                # the traced input leaves become the plan's input buffers and
                # later batches are copied into them: trace a private copy so
                # they never alias the caller's array (assignments may return
                # views of the images)
                images = np.array(images, copy=True)
        self._pending = pending
        if pending.plan is not None:
            return pending.plan.forward(self._forward_inputs(images))
        self.optimizer.zero_grad()
        with pending.tracing():
            pending.logits = self.model(prepare_batch(images, self.scheme))
        return pending.logits.data

    def finish_step(self, peer_logits: Optional[np.ndarray] = None):
        """Loss, backward and update of the step begun by :meth:`begin_step`.

        Returns ``(batch loss, predicted labels)``.  ``peer_logits``, the
        peer's ``(batch, classes)`` logits on the same images, is required
        when the step was begun with ``distill=True``.
        """
        pending, self._pending = self._pending, None
        if pending is None:
            raise RuntimeError("finish_step() called without begin_step()")
        if not pending.distill:
            peer_logits = None
        elif peer_logits is None:
            raise ValueError("a distillation step needs the peer's logits")
        if pending.plan is not None:
            loss, predictions = pending.plan.finish(
                self._loss_inputs(pending.labels, peer_logits, pending.plan.input_meta))
            apply_parameter_constraints(self.model)
            return loss, predictions
        logits = pending.logits
        with pending.tracing():
            loss = cross_entropy(logits, pending.labels,
                                 label_smoothing=self.config.label_smoothing)
            if peer_logits is not None:
                loss = loss + self.config.distillation_alpha * kl_divergence(
                    logits, peer_logits, temperature=self.config.distillation_temperature)
            # under a trace the backward also records each closure's gradient
            # pattern, which the plan compiler lowers
            loss.backward()
        if self.config.grad_clip:
            self.optimizer.clip_grad_norm(self.config.grad_clip)
        self.optimizer.step()
        apply_parameter_constraints(self.model)
        if pending.trace is not None:
            try:
                self._plans[pending.key] = compile_train_step(
                    pending.trace, loss, logits, self.optimizer,
                    grad_clip=self.config.grad_clip)
            except PlanUnsupported as reason:
                # models the tracer cannot replay keep the eager path for good
                self._plan_fallback_reason = str(reason)
        return float(loss.data), logits.data.argmax(axis=1)

    def _forward_inputs(self, images: np.ndarray) -> Dict[str, np.ndarray]:
        """The per-batch arrays a plan's forward phase copies into its input leaves."""
        if self.scheme is None:
            return {"input": np.asarray(images, dtype=float)}
        result = self.scheme.assign(images)
        return {"input_real": result.real, "input_imag": result.imag}

    @staticmethod
    def _loss_inputs(labels: np.ndarray, peer_logits: Optional[np.ndarray],
                     input_meta: dict) -> Dict[str, np.ndarray]:
        """The per-step arrays a plan's finish phase copies into its loss-target leaves."""
        values: Dict[str, np.ndarray] = {}
        target_meta = input_meta.get("cross_entropy_targets")
        if target_meta is not None:
            values["cross_entropy_targets"] = smoothed_targets(
                np.asarray(labels).astype(int).reshape(-1),
                target_meta["num_classes"],
                target_meta["label_smoothing"],
                target_meta["dtype"],
            )
        kd_meta = input_meta.get("kd_target_probs")
        if kd_meta is not None:
            values["kd_target_probs"], values["kd_target_log_probs"] = \
                softened_distribution(peer_logits, kd_meta["temperature"])
        return values

    def fit(self, train_loader: DataLoader, test_loader: Optional[DataLoader] = None,
            verbose: bool = False) -> TrainingHistory:
        """Run the full training schedule."""
        history = TrainingHistory()
        self.model.train()
        for epoch in range(self.config.epochs):
            epoch_loss = 0.0
            batches = 0
            correct = 0
            seen = 0
            epoch_start = time.perf_counter()
            for images, labels in train_loader:
                loss, predictions = self.train_step(images, labels)
                epoch_loss += loss
                batches += 1
                correct += int((predictions == labels).sum())
                seen += labels.shape[0]
            elapsed = time.perf_counter() - epoch_start
            history.epoch_time.append(elapsed)
            history.samples_per_second.append(seen / elapsed if elapsed > 0 else 0.0)
            history.train_loss.append(epoch_loss / max(batches, 1))
            history.train_accuracy.append(correct / max(seen, 1))
            if test_loader is not None:
                history.test_accuracy.append(evaluate_accuracy(self.model, test_loader, self.scheme))
            if self.scheduler is not None:
                self.scheduler.step()
            if verbose:
                test_acc = history.test_accuracy[-1] if history.test_accuracy else float("nan")
                print(f"epoch {epoch + 1:3d}: loss={history.train_loss[-1]:.4f} "
                      f"train_acc={history.train_accuracy[-1]:.4f} test_acc={test_acc:.4f} "
                      f"({history.samples_per_second[-1]:.1f} samples/s)")
        return history
