"""Native training kernels against the numpy bodies they replace, bit for bit.

When the native library (:mod:`repro.photonics._native`) is loaded, the
compiled train step runs its split batch norm (forward and backward) and the
col2im scatter of every conv input gradient in C.  Each of those instructions
must produce exactly the bits of the numpy emitter it replaces, so every
comparison here is at ``rtol=0, atol=0`` on the raw float64 bit patterns.
The remaining tests pin which instructions run natively, the numpy
fallback's scatter against the eager ``col2im``, and the lifetime of the
buffers a native instruction points into.
"""

import gc

import numpy as np
import pytest

from repro.assignment import get_scheme
from repro.core import train_plan
from repro.core.config import TrainingConfig
from repro.core.training import Trainer
from repro.models import ComplexResNet
from repro.models.factory import ModelSpec, build_model
from repro.nn import BatchNorm1d, BatchNorm2d
from repro.nn.complex import ComplexConv2d, ComplexTensor, complex_conv2d
from repro.photonics import _native
from repro.tensor import Tensor, functional as F
from repro.tensor.tensor import trace_tape

requires_kernel = pytest.mark.skipif(
    _native.kernel() is None,
    reason=f"native kernel unavailable: {_native.load_error()}")


def assert_bits_equal(actual, expected, name=""):
    assert actual.shape == expected.shape, name
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64)), name


def contexts():
    """A compile context with the native library and one without it."""
    native = train_plan._CompileContext()
    reference = train_plan._CompileContext()
    reference.kernel = None
    return native, reference


def targets_of(slots):
    """Backward-builder targets from ``{position: (slot, first)}``."""
    return [(position, slot, first, False, slot.shape)
            for position, (slot, first) in slots.items()]


# --------------------------------------------------------------------------- #
# split batch norm
# --------------------------------------------------------------------------- #
BN_SHAPES = [
    (4, 3, 2, 3),     # S = 6 < 8: the plain pairwise loop
    (5, 2, 7, 9),     # S = 63: eight accumulators plus a remainder
    (3, 2, 13, 11),   # S = 143 > 128, not a multiple of 8: the pairwise split
    (1, 3, 5, 5),     # N = 1
    (6, 4),           # BatchNorm1d: S = 1
]


def traced_batch_norm(rng, shape, affine):
    channels = shape[1]
    axes = (0,) + tuple(range(2, len(shape))) if len(shape) > 2 else 0
    param_shape = (1, channels) + (1,) * (len(shape) - 2)
    x = Tensor(rng.normal(size=shape) * 3.0 + 0.5, requires_grad=True)
    weight = Tensor(rng.normal(size=channels), requires_grad=True) if affine else None
    bias = Tensor(rng.normal(size=channels), requires_grad=True) if affine else None
    with trace_tape() as trace:
        F.batch_norm(x, weight, bias, axes, param_shape, 1e-5)
    # replays must recompute everything: move the input off the traced values
    x.data[...] = rng.normal(size=shape) * np.exp(rng.uniform(-4, 4, size=shape))
    return next(entry for entry in trace.entries if entry.op == "batch_norm")


def replay_batch_norm(entry, ctx, grad, slots):
    """Compile and run one batch norm's two instructions, as the compiler orders them."""
    slots = {position: (slot.copy(), first) for position, (slot, first) in slots.items()}
    backward = train_plan._b_batch_norm_build(entry, grad, targets_of(slots), ctx)
    forward = train_plan._f_batch_norm(entry, ctx)
    entry.tensor.data.fill(np.nan)
    forward()
    backward()
    cache = entry.params["cache"]
    outputs = {name: cache[name].copy() for name in ("mean", "var", "sq", "sub", "norm")}
    outputs["out"] = entry.tensor.data.copy()
    outputs.update({f"grad{position}": slot for position, (slot, _) in slots.items()})
    return outputs


@requires_kernel
@pytest.mark.parametrize("shape", BN_SHAPES, ids=str)
@pytest.mark.parametrize("affine", [True, False], ids=["affine", "plain"])
@pytest.mark.parametrize("x_first", [True, False], ids=["first", "accumulate"])
def test_batch_norm_native_matches_numpy(rng, shape, affine, x_first):
    entry = traced_batch_norm(rng, shape, affine)
    grad = rng.normal(size=shape) * np.exp(rng.uniform(-3, 3, size=shape))
    channels = shape[1]
    param_slots = [(True, True), (True, False), (False, True), (False, False)]
    for with_weight, with_bias in (param_slots if affine else [(False, False)]):
        slots = {0: (rng.normal(size=shape), x_first)}
        if with_weight:
            slots[1] = (np.full(channels, np.nan), True)
        if with_bias:
            slots[2] = (np.full(channels, np.nan), True)
        native_ctx, reference_ctx = contexts()
        native = replay_batch_norm(entry, native_ctx, grad, slots)
        reference = replay_batch_norm(entry, reference_ctx, grad, slots)
        assert native_ctx.native_instructions == 2
        assert reference_ctx.native_instructions == 0
        assert native.keys() == reference.keys()
        for name in reference:
            assert_bits_equal(native[name], reference[name], name)


# --------------------------------------------------------------------------- #
# conv input-gradient scatter
# --------------------------------------------------------------------------- #
CONV_GEOMETRIES = [
    # (image, kernel, stride, padding)
    ((7, 9), (3, 3), (1, 1), (1, 1)),
    ((9, 7), (3, 3), (2, 2), (1, 1)),
    ((7, 7), (1, 1), (2, 2), (0, 0)),
    ((8, 6), (2, 2), (2, 2), (0, 0)),   # exact tiling: a copy, not a sum
]

PLANES = [
    {0: True, 1: True},
    {0: False, 1: False},
    {0: True, 1: False},
    {0: True},            # imaginary plane absent
    {1: False},           # real plane absent
]


def traced_complex_conv(rng, image, kernel, stride, padding, batch=3,
                        in_channels=2, out_channels=3):
    def tensor(shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    x = ComplexTensor(tensor((batch, in_channels) + image),
                      tensor((batch, in_channels) + image))
    weights = [tensor((out_channels, in_channels) + kernel) for _ in range(2)]
    with trace_tape() as trace:
        complex_conv2d(x, *weights, stride=stride, padding=padding)
    entry = next(entry for entry in trace.entries if entry.op == "complex_conv2d")
    return entry, x.real.shape


def replay_conv_backward(entry, ctx, grad, slots):
    slots = {position: (slot.copy(), first) for position, (slot, first) in slots.items()}
    train_plan._b_complex_conv2d_build(entry, grad, targets_of(slots), ctx)()
    return {position: slot for position, (slot, _) in slots.items()}


@requires_kernel
@pytest.mark.parametrize("image,kernel,stride,padding", CONV_GEOMETRIES, ids=str)
@pytest.mark.parametrize("planes", PLANES, ids=str)
def test_col2im_scatter_native_matches_numpy(rng, image, kernel, stride, padding,
                                             planes):
    entry, x_shape = traced_complex_conv(rng, image, kernel, stride, padding)
    grad = rng.normal(size=entry.tensor.data.shape)
    slots = {position: (rng.normal(size=x_shape), first)
             for position, first in planes.items()}
    native_ctx, reference_ctx = contexts()
    native = replay_conv_backward(entry, native_ctx, grad, slots)
    reference = replay_conv_backward(entry, reference_ctx, grad, slots)
    assert native_ctx.native_instructions == 1
    assert reference_ctx.native_instructions == 0
    for position in planes:
        assert_bits_equal(native[position], reference[position], f"plane {position}")


@pytest.mark.parametrize("image,kernel,stride,padding", CONV_GEOMETRIES, ids=str)
def test_numpy_col2im_planes_match_eager_col2im(rng, image, kernel, stride, padding):
    # the fallback's shifted accumulation adds in the order of the eager
    # scatter (bincount below its block limit), so the planes are exact
    shape = (3, 4) + image
    out_h, out_w = F._checked_output_size(shape, kernel, stride, padding)
    columns = rng.normal(size=(4 * kernel[0] * kernel[1], out_h * out_w * 3))
    run = train_plan._make_col2im_planes(shape, 1, kernel, stride, padding,
                                         np.float64, train_plan._ScratchArena(), 0)
    top, bottom = run(columns)
    eager = F.col2im(columns, shape, kernel, stride, padding)
    assert_bits_equal(np.ascontiguousarray(top), np.ascontiguousarray(eager[:, :1]))
    assert_bits_equal(np.ascontiguousarray(bottom), np.ascontiguousarray(eager[:, 1:]))


# --------------------------------------------------------------------------- #
# which instructions run natively
# --------------------------------------------------------------------------- #
BENCHMARK_MODELS = {
    "resnet8-student": ModelSpec("resnet", "scvnn", (3, 16, 16), 10, assignment="CL",
                                 depth=8, width_divider=2),
    "resnet14-teacher": ModelSpec("resnet", "cvnn", (3, 16, 16), 10, depth=14,
                                  width_divider=2),
}


def compiled_plan_stats(spec, rng):
    model = build_model(spec, rng=np.random.default_rng(3))
    trainer = Trainer(model, TrainingConfig(batch_size=4, seed=0),
                      scheme=spec.scheme(), compile_train_step=True)
    images = rng.normal(size=(4,) + spec.input_shape)
    trainer.train_step(images, np.arange(4) % spec.num_classes)
    stats = trainer.plan_stats
    assert stats["fallback_reason"] is None
    (plan_stats,) = stats["plans"].values()
    return model, plan_stats


@pytest.mark.parametrize("name", sorted(BENCHMARK_MODELS))
def test_benchmark_plans_run_batch_norm_and_scatter_natively(rng, name):
    model, stats = compiled_plan_stats(BENCHMARK_MODELS[name], rng)
    batch_norms = sum(isinstance(module, (BatchNorm1d, BatchNorm2d))
                      for module in model.modules())
    convs = sum(isinstance(module, ComplexConv2d) for module in model.modules())
    assert batch_norms > 0 and convs > 1
    if _native.kernel() is None:
        assert stats["native_instructions"] == 0
    else:
        # each batch norm: forward + backward; each conv but the stem (its
        # input is the data batch): the input-gradient scatter
        assert stats["native_instructions"] == 2 * batch_norms + convs - 1


def test_forced_reference_compiles_no_native_instruction(rng, monkeypatch):
    monkeypatch.setenv("REPRO_FORCE_REFERENCE", "1")
    _, stats = compiled_plan_stats(BENCHMARK_MODELS["resnet8-student"], rng)
    assert stats["native_instructions"] == 0


def test_native_plan_outlives_garbage_collection():
    # native instructions hold raw pointers into plan buffers; the bound
    # calls must keep every one of those buffers alive after compile
    rng = np.random.default_rng(11)
    batches = [(rng.normal(size=(8, 2, 32, 16)), np.arange(8) % 2) for _ in range(4)]

    def losses(compiled):
        model = ComplexResNet(depth=8, in_channels=2, num_classes=2,
                              base_widths=(2, 4, 8), decoder="merge",
                              rng=np.random.default_rng(7))
        trainer = Trainer(model, TrainingConfig(batch_size=8, learning_rate=0.05,
                                                seed=0),
                          scheme=get_scheme("SI"), compile_train_step=compiled)
        result = [trainer.train_step(images.copy(), labels)[0]
                  for images, labels in batches[:1]]
        gc.collect()
        result += [trainer.train_step(images.copy(), labels)[0]
                   for images, labels in batches[1:]]
        if compiled:
            assert trainer.plan_stats["fallback_reason"] is None
            assert trainer.plan_stats["compiled"] == 1
        return result

    assert losses(True) == losses(False)


@requires_kernel
@pytest.mark.parametrize("kernel,stride", [((2, 2), (2, 2)), ((2, 2), (1, 1))],
                         ids=["tiled", "overlapping"])
def test_scatter_signed_zeros_match_eager_col2im(kernel, stride):
    # exact tilings copy (keeping -0.0); overlapping windows sum onto +0.0
    shape = (2, 2, 4, 4)
    out_h, out_w = F._checked_output_size(shape, kernel, stride, (0, 0))
    columns = np.full((2 * kernel[0] * kernel[1], out_h * out_w * 2), -0.0)
    top, bottom = np.empty((2, 1, 4, 4)), np.empty((2, 1, 4, 4))
    _native.kernel().bind("trainops_col2im_planes", columns, *shape, *kernel, *stride,
                          0, 0, out_h, out_w, 1, top, 0, bottom, 0)()
    eager = F.col2im(columns, shape, kernel, stride, (0, 0))
    assert_bits_equal(top, np.ascontiguousarray(eager[:, :1]))
    assert_bits_equal(bottom, np.ascontiguousarray(eager[:, 1:]))
