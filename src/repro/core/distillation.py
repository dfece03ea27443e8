"""SCVNN-CVNN mutual learning (Section III-C of the paper).

The split network (student) and a larger complex-valued network with
conventional assignment (teacher) are trained *jointly* from scratch, each
minimising its own cross-entropy plus a KL term towards the other's softened
predictions (deep mutual learning, Zhang et al. CVPR 2018):

.. math::

    L_{SCVNN} = L_{CE} + \\alpha \\, KL(p_{CVNN} \\,\\|\\, p_{SCVNN}), \\qquad
    L_{CVNN}  = L_{CE} + \\alpha \\, KL(p_{SCVNN} \\,\\|\\, p_{CVNN})

Both networks see the *same* images each step, but through their own data
assignment (the student through SI/CL/..., the teacher through the
conventional amplitude-only assignment).

Each network is driven by its own :class:`~repro.core.training.Trainer`, so
both halves of a mutual step replay compiled train-step plans (or fall back
to the eager tape exactly as a plain ``Trainer`` would).  One step runs the
teacher's forward phase once, then the student's whole step against the
teacher's logits, then the teacher's loss, backward and update against the
student's pre-update logits.  The teacher's batch-norm running statistics
therefore move once per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.assignment import AssignmentScheme, get_scheme
from repro.core.config import TrainingConfig
from repro.core.training import Trainer, TrainingHistory, evaluate_accuracy
from repro.data.loader import DataLoader
from repro.nn.module import Module


@dataclass
class MutualLearningResult:
    """Histories and final accuracies of a mutual-learning run."""

    student_history: TrainingHistory = field(default_factory=TrainingHistory)
    teacher_history: TrainingHistory = field(default_factory=TrainingHistory)
    student_test_accuracy: float = 0.0
    teacher_test_accuracy: float = 0.0


class MutualLearningTrainer:
    """Joint trainer for the SCVNN student and its CVNN teacher.

    Parameters
    ----------
    student, teacher:
        The two models.  The teacher is typically a larger network of the same
        family (e.g. CVNN ResNet-56 for an SCVNN ResNet-32 student).
    config:
        Shared hyper-parameters; ``distillation_alpha`` is the paper's alpha.
    student_scheme:
        Data assignment of the student (e.g. spatial interlace).
    teacher_scheme:
        Data assignment of the teacher; defaults to the conventional
        amplitude-only assignment.
    """

    def __init__(self, student: Module, teacher: Module, config: TrainingConfig,
                 student_scheme: AssignmentScheme,
                 teacher_scheme: Optional[AssignmentScheme] = None):
        self.student = student
        self.teacher = teacher
        self.config = config
        self.student_scheme = student_scheme
        self.teacher_scheme = teacher_scheme if teacher_scheme is not None else get_scheme("conventional")
        self.student_trainer = Trainer(student, config, scheme=student_scheme)
        self.teacher_trainer = Trainer(teacher, config, scheme=self.teacher_scheme)

    @property
    def plan_stats(self) -> dict:
        """The two trainers' plan diagnostics (see :attr:`Trainer.plan_stats`)."""
        return {"student": self.student_trainer.plan_stats,
                "teacher": self.teacher_trainer.plan_stats}

    def _mutual_step(self, images: np.ndarray, labels: np.ndarray) -> tuple:
        """One joint update of both networks; returns their batch losses.

        Each network's peer logits are a constant target: the student learns
        from the teacher's logits of this batch, the teacher from the
        student's logits before the student's update.
        """
        distill = self.config.distillation_alpha > 0
        teacher_logits = self.teacher_trainer.begin_step(images, labels, distill)
        student_logits = self.student_trainer.begin_step(images, labels, distill)
        student_loss, _ = self.student_trainer.finish_step(teacher_logits)
        teacher_loss, _ = self.teacher_trainer.finish_step(student_logits)
        return student_loss, teacher_loss

    def fit(self, train_loader: DataLoader, test_loader: Optional[DataLoader] = None,
            verbose: bool = False) -> MutualLearningResult:
        """Run the joint training schedule."""
        result = MutualLearningResult()
        self.student.train()
        self.teacher.train()
        for epoch in range(self.config.epochs):
            student_loss_sum = teacher_loss_sum = 0.0
            batches = 0
            for images, labels in train_loader:
                student_loss, teacher_loss = self._mutual_step(images, labels)
                student_loss_sum += student_loss
                teacher_loss_sum += teacher_loss
                batches += 1
            result.student_history.train_loss.append(student_loss_sum / max(batches, 1))
            result.teacher_history.train_loss.append(teacher_loss_sum / max(batches, 1))
            if test_loader is not None:
                student_acc = evaluate_accuracy(self.student, test_loader, self.student_scheme)
                teacher_acc = evaluate_accuracy(self.teacher, test_loader, self.teacher_scheme)
                result.student_history.test_accuracy.append(student_acc)
                result.teacher_history.test_accuracy.append(teacher_acc)
            for trainer in (self.student_trainer, self.teacher_trainer):
                if trainer.scheduler is not None:
                    trainer.scheduler.step()
            if verbose:
                student_acc = (result.student_history.test_accuracy[-1]
                               if result.student_history.test_accuracy else float("nan"))
                print(f"epoch {epoch + 1:3d}: student_loss={result.student_history.train_loss[-1]:.4f} "
                      f"student_acc={student_acc:.4f}")
        if test_loader is not None:
            result.student_test_accuracy = result.student_history.final_test_accuracy
            result.teacher_test_accuracy = result.teacher_history.final_test_accuracy
        return result
