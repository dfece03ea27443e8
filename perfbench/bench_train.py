"""Training phases: the compiled ``Trainer`` step and mutual learning.

Both loops run for at least ``seconds`` and at least ``accuracy_steps``
steps.  The test accuracy is taken after exactly ``accuracy_steps`` steps,
so it is a deterministic function of the seed that any change to the
numerics moves; evaluation pauses are excluded from every timing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

import benchlib as bl

BATCH = 32
#: seed of the mutual-learning reference trajectory (see :func:`kd`)
REFERENCE_SEED = 0
#: planned steps compared bit for bit with an eager trainer
PARITY_STEPS = 4
EVAL_BATCH = 8
#: evaluation passes over the test set; the evaluation tail is the median of
#: the passes' tails
EVAL_PASSES = 9
#: steps per window of the step-time tail: with enough steps the tail is the
#: median of the windows' tails, so one burst of slow steps moves one window
STEP_WINDOW = 150


@dataclass
class TrainShape:
    accuracy_steps: int
    setup_repeats: int = 3
    eval_passes: int = EVAL_PASSES


class Batches:
    """Endless seeded ``DataLoader`` batches (reshuffled every epoch)."""

    def __init__(self, dataset, seed: int):
        from repro.data.loader import DataLoader

        self.loader = DataLoader(dataset, BATCH, shuffle=True, drop_last=True,
                                 rng=bl.stream_rng(seed, "shuffle"))
        self._iterator: Iterator = iter(())

    def next(self):
        try:
            return next(self._iterator)
        except StopIteration:
            self._iterator = iter(self.loader)
            return next(self._iterator)


class Pulls:
    """Iterable handing ``fit`` a bounded run of batches, timing every pull.

    ``marks`` holds the time of each pull plus the final, exhausted pull, so
    consecutive differences are the per-batch step times of one ``fit``.
    """

    def __init__(self, batches: Batches, count: Optional[int] = None,
                 deadline: Optional[float] = None):
        self.batches = batches
        self.count = count
        self.deadline = deadline
        self.marks: List[float] = []

    def __iter__(self):
        pulled = 0
        while True:
            now = time.perf_counter()
            self.marks.append(now)
            if self.count is not None and pulled >= self.count:
                return
            if self.deadline is not None and now >= self.deadline and pulled:
                return
            yield self.batches.next()
            pulled += 1

    @property
    def steps(self) -> List[float]:
        return list(np.diff(self.marks))


class TimedLoader:
    """A test loader that records the batch intervals of each pass over it."""

    def __init__(self, loader):
        self.loader = loader
        self.passes: List[List[float]] = []

    def __iter__(self):
        marks = [time.perf_counter()]
        for batch in self.loader:
            yield batch
            marks.append(time.perf_counter())
        self.passes.append(list(np.diff(marks)))


class TimedScheme:
    """Assignment scheme proxy timing every ``assign`` call."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: List[float] = []

    def assign(self, images):
        start = time.perf_counter()
        result = self.inner.assign(images)
        self.calls.append(time.perf_counter() - start)
        return result

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _test_loader(test_set):
    from repro.data.loader import DataLoader

    return TimedLoader(DataLoader(test_set, EVAL_BATCH, shuffle=False))


def _config():
    from repro.core.config import TrainingConfig

    return TrainingConfig(epochs=1, batch_size=BATCH, scheduler="none")


def build(spec, seed: int, stream: str):
    """The model of ``spec``, initialised from the seed alone.

    Some layers draw from the library-wide default generator, so it is
    reseeded too: every build of one (seed, stream) is the same model.
    """
    from repro.models.factory import build_model
    from repro.tensor.random import seed_all

    rng = bl.stream_rng(seed, stream)
    seed_all(int(rng.integers(2**31)))
    return build_model(spec, rng=rng)


def train(spec, data, seed: int, seconds: float, trace: bool, shape: TrainShape) -> dict:
    """``Trainer.train_step`` on the compiled plan, after an eager parity check."""
    from repro.core.training import Trainer, evaluate_accuracy

    train_set, test_set = data
    scheme = spec.scheme()
    problems: List[str] = []
    batches = Batches(train_set, seed)
    # every trainer gets its own copy of the parity batches: a compiled
    # step may write later batches into the arrays its first step traced
    # (it does under view-returning assignments such as SI); that aliasing
    # is reported as a note, the parity gate compares the losses
    pristine = [batches.next() for _ in range(PARITY_STEPS)]
    setup, first_step = [], []
    for _ in range(shape.setup_repeats):
        start = time.perf_counter()
        model = build(spec, seed, "student-init")
        trainer = Trainer(model, _config(), scheme=scheme)
        copies = [(images.copy(), labels.copy()) for images, labels in pristine]
        stepped = time.perf_counter()
        losses = [trainer.train_step(*copies[0])[0]]
        setup.append(time.perf_counter() - start)
        first_step.append(time.perf_counter() - stepped)
    losses += [trainer.train_step(*batch)[0] for batch in copies[1:]]
    notes = []
    if not np.array_equal(copies[0][0], pristine[0][0]):
        notes.append("the compiled train step overwrote the caller's first batch "
                     "(its traced input buffers alias the images; not gated)")
    eager = Trainer(build(spec, seed, "student-init"), _config(), scheme=scheme,
                    compile_train_step=False)
    reference = [eager.train_step(images.copy(), labels.copy())[0]
                 for images, labels in pristine]
    if losses != reference:
        problems.append(f"planned losses {losses} differ from eager {reference}")
    plan_stats = trainer.plan_stats
    if plan_stats["fallback_reason"] is not None:
        problems.append(f"train plan fell back: {plan_stats['fallback_reason']}")

    # traced runs trace every other step, so the two halves' step times
    # give the tracing overhead
    timed_scheme = TimedScheme(scheme)
    spans = bl.Spans()
    loader_s, step_s, intervals, traced_intervals = [], [], [], []
    accuracy = None
    # the host has slow and fast spells lasting seconds, so the evaluation
    # passes are spread over the run: one after exactly accuracy_steps steps
    # (the accuracy), the rest due at even shares of the training time
    test_loader = _test_loader(test_set)
    extra = shape.eval_passes - 1
    eval_due = [seconds * (index + 0.5) / extra for index in range(extra)]
    trained_s = 0.0
    steps = 0
    deadline = time.perf_counter() + seconds
    while True:
        traced = trace and steps % 2 == 1
        trainer.scheme = timed_scheme if traced else scheme
        start = time.perf_counter()
        images, labels = batches.next()
        fetched = time.perf_counter()
        loss, _ = trainer.train_step(images, labels)
        end = time.perf_counter()
        steps += 1
        losses.append(loss)
        intervals.append(end - start)
        trained_s += end - start
        if traced:
            traced_intervals.append(end - start)
            loader_s.append(fetched - start)
            step_s.append(end - fetched)
            root = spans.add("train.step", start, end)
            spans.add("data.loader", start, fetched, parent=root)
            spans.add("core.train_step", fetched, end, parent=root)
        paused = time.perf_counter()
        if steps == shape.accuracy_steps:
            accuracy = evaluate_accuracy(trainer.model, test_loader, scheme)
        elif eval_due and trained_s >= eval_due[0]:
            eval_due.pop(0)
            evaluate_accuracy(trainer.model, test_loader, scheme)
        deadline += time.perf_counter() - paused
        if end >= deadline and accuracy is not None and not eval_due:
            break
    if not all(math.isfinite(loss) for loss in losses):
        problems.append("a training loss is not finite")

    result = _result(setup, intervals, test_loader.passes, accuracy, problems,
                     attempted=steps + PARITY_STEPS, model=trainer.model)
    result["notes"] = notes
    if trace:
        stats = next(iter(plan_stats["plans"].values()), {})
        result["layers"] = {
            "train.loader_ms": 1e3 * bl.median(loader_s),
            "train.assign_ms": 1e3 * bl.median(timed_scheme.calls),
            "train.step_ms_p50": 1e3 * bl.median(step_s),
            "train.step_ms_p99": 1e3 * bl.tail_percentile(step_s)[1],
            "train.first_step_s": bl.median(first_step),
            "train.plans_compiled": float(plan_stats["compiled"]),
            "train.forward_instructions": float(stats.get("forward_instructions", 0)),
            "train.backward_instructions": float(stats.get("backward_instructions", 0)),
            "train.specialized_backward": float(stats.get("specialized_backward", 0)),
            "train.fallback": float(plan_stats["fallback_reason"] is not None),
            "trace.overhead_pct": 100.0 * (bl.median(traced_intervals) / bl.median(
                intervals[0::2]) - 1.0),
        }
        result["spans"] = spans
    return result


def kd(student_spec, teacher_spec, data, seed: int, seconds: float, trace: bool,
       shape: TrainShape) -> dict:
    """``MutualLearningTrainer.fit`` (eager tape), alpha 1, T 2.

    The student's accuracy after a few dozen mutual steps spreads from 0.30
    to 0.50 across initialisations and batch orders, so the scored part is
    one fixed reference trajectory (:data:`REFERENCE_SEED`): its accuracy
    moves only when the numerics do.  The rest of the run draws its batch
    order from ``seed``.
    """
    from repro.assignment import get_scheme
    from repro.core.distillation import MutualLearningTrainer
    from repro.core.training import evaluate_accuracy

    train_set, test_set = data
    problems: List[str] = []
    batches = Batches(train_set, REFERENCE_SEED)
    first = [batches.next()]

    setup = []
    for _ in range(shape.setup_repeats):
        start = time.perf_counter()
        student = build(student_spec, REFERENCE_SEED, "student-init")
        teacher = build(teacher_spec, REFERENCE_SEED, "teacher-init")
        mutual = MutualLearningTrainer(student, teacher, _config(),
                                       student_scheme=student_spec.scheme(),
                                       teacher_scheme=get_scheme("conventional"))
        warm = mutual.fit(first)
        setup.append(time.perf_counter() - start)

    test_loader = _test_loader(test_set)
    scored = Pulls(batches, count=shape.accuracy_steps - 1)
    scored_result = mutual.fit(scored, test_loader)
    student_passes = [test_loader.passes[0]]        # passes[1] is the teacher's
    for _ in range(shape.eval_passes - 1):
        evaluate_accuracy(student, test_loader, student_spec.scheme())
        student_passes.append(test_loader.passes[-1])
    # the traced part: forward calls of the rest of the run are timed, and
    # its step time against the untraced scored part is the overhead
    forward_s: List[float] = []
    if trace:
        for model in (student, teacher):
            model.forward = _timed(model.forward, forward_s)
    rest = Pulls(Batches(train_set, seed),
                 deadline=time.perf_counter() + seconds - sum(scored.steps))
    try:
        rest_result = mutual.fit(rest)
    finally:
        for model in (student, teacher):
            model.__dict__.pop("forward", None)
    losses = [loss for outcome in (warm, scored_result, rest_result)
              for history in (outcome.student_history, outcome.teacher_history)
              for loss in history.train_loss]
    if not all(math.isfinite(loss) for loss in losses):
        problems.append("a mutual-learning loss is not finite")
    intervals = scored.steps + rest.steps
    result = _result(setup, intervals, student_passes,
                     scored_result.student_test_accuracy, problems,
                     attempted=len(intervals) + 1, model=student)
    if trace:
        eval_s = [sum(one_pass) for one_pass in test_loader.passes]
        result["layers"] = {
            "kd.step_ms_p50": 1e3 * bl.median(intervals),
            "kd.step_ms_p99": 1e3 * bl.tail_percentile(intervals)[1],
            "kd.forward_ms": 1e3 * sum(forward_s) / len(rest.steps),
            "kd.eval_s": bl.median(eval_s),
            "trace.overhead_pct": 100.0 * (bl.median(rest.steps)
                                           / bl.median(scored.steps) - 1.0),
        }
        spans = bl.Spans()
        for mark, step in zip(scored.marks + rest.marks, intervals):
            spans.add("kd.step", mark, mark + step)
        result["spans"] = spans
    return result


def _timed(function, sink: List[float]):
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - start)
    return timed


def _result(setup, intervals, eval_passes, accuracy, problems, attempted, model) -> dict:
    tail = bl.windowed_tail(intervals, window=STEP_WINDOW)
    eval_tail = bl.windowed_tail(np.concatenate(eval_passes),
                                 window=min(len(p) for p in eval_passes))
    samples = BATCH * len(intervals)
    return {
        "metrics": {
            "setup_s": bl.median(setup),
            "latency_p50_ms": 1e3 * bl.median(intervals),
            "latency_p99_ms": 1e3 * tail[1],
            "latency_hi_p99_ms": 1e3 * eval_tail[1],
            "capacity_samples_per_s": samples / float(np.sum(intervals)),
            "ok_frac": (attempted - (1 if problems else 0)) / attempted,
            "peak_rss_mb": bl.peak_rss_mb(),
            "test_accuracy": float(accuracy),
        },
        "samples": {"setup_s": len(setup), "latency_p50_ms": len(intervals),
                    "latency_p99_ms": f"{tail[2]} steps",
                    "latency_hi_p99_ms": f"{eval_tail[2]} eval batches",
                    "capacity_samples_per_s": f"{samples} samples",
                    "ok_frac": attempted, "peak_rss_mb": 1,
                    "test_accuracy": "1 evaluation"},
        "attempted": attempted,
        "failed": 1 if problems else 0,
        "problems": problems,
        "model": model,
    }
