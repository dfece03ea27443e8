#!/usr/bin/env python3
"""Outside-in benchmark of the OplixNet photonic compiler, server and trainer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-fcnn --seed 1 --seconds 40 --trace 0

Workloads: ``serve-fcnn``, ``serve-resnet``, ``train-resnet``, ``train-kd``
(see ``perfbench/README.md`` for why each exists and what it should move).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate
run that times the calls into each layer and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  BLAS threading is
left at the host default on purpose.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"

#: seconds the layer probes of a traced run spend on layers the workload's
#: own loop does not exercise: training probes, and the serving probe (one
#: deployment, so it gets longer)
PROBE_SECONDS = 2.0
SERVE_PROBE_SECONDS = 6.0


def bootstrap() -> None:
    """Import the program from this checkout's ``src/`` or exit non-zero."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}/repro; run from the root of "
              "a checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    # the native kernel compiles into the checkout, never into $HOME
    os.environ["REPRO_NATIVE_CACHE"] = str(RUNS / "native-cache")
    RUNS.mkdir(exist_ok=True)
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def workloads() -> dict:
    from bench_serve import ServeShape
    from bench_train import TrainShape
    from repro.data.synthetic import synthetic_cifar10, synthetic_mnist
    from repro.models.factory import ModelSpec

    fcnn = {"student": ModelSpec("fcnn", "scvnn", (1, 14, 14), 10, assignment="SI",
                                 width_divider=2),
            "teacher": ModelSpec("fcnn", "cvnn", (1, 14, 14), 10, width_divider=2),
            "data": lambda: synthetic_mnist(14, 14, train_samples=1024, test_samples=400),
            "serve": ServeShape(sizes=(1, 1), nominal_rate=1000.0, high_rate=2000.0,
                                window=64, pool=4096)}
    resnet = {"student": ModelSpec("resnet", "scvnn", (3, 16, 16), 10, assignment="CL",
                                   depth=8, width_divider=2),
              "teacher": ModelSpec("resnet", "cvnn", (3, 16, 16), 10, depth=14,
                                   width_divider=2),
              "data": lambda: synthetic_cifar10(16, 16, train_samples=2048,
                                                test_samples=1000),
              "serve": ServeShape(sizes=(1, 8), nominal_rate=15.0, high_rate=30.0,
                                  window=16, pool=256),
              "train": TrainShape(accuracy_steps=300, setup_repeats=5),
              "kd": TrainShape(accuracy_steps=40, setup_repeats=5)}
    return {"serve-fcnn": ("serve", fcnn), "serve-resnet": ("serve", resnet),
            "train-resnet": ("train", resnet), "train-kd": ("kd", resnet)}


def randomize_batchnorms(model, rng) -> None:
    """Non-trivial BN running statistics, so the affine stages do real work."""
    from repro.nn.normalization import _BatchNorm

    for _name, module in model.named_modules():
        if isinstance(module, _BatchNorm):
            module._set_buffer("running_mean", rng.normal(size=module.num_features) * 0.3)
            module._set_buffer("running_var", rng.uniform(0.5, 2.0, size=module.num_features))


def scheme_name(spec) -> str:
    return spec.assignment if spec.flavour == "scvnn" else "conventional"


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The workload's own loop, plus -- traced -- short probes of the rest.

    A traced run reports every layer metric, so it also spends
    :data:`PROBE_SECONDS` on each layer family its loop does not reach, on
    the workload's own model family: serving runs train and distil their
    architecture briefly, training runs serve the model they trained.
    """
    import benchlib as bl
    from bench_serve import serve
    from bench_train import TrainShape, build, kd, train

    kind, family = workloads()[workload]
    student, teacher = family["student"], family["teacher"]
    probe = TrainShape(accuracy_steps=4, setup_repeats=1, eval_passes=1)
    families = [kind] + ([other for other in ("serve", "train", "kd") if other != kind]
                         if trace else [])
    data = None
    parts: list = []
    for name in families:
        own = not parts
        span = seconds if own else SERVE_PROBE_SECONDS if name == "serve" else PROBE_SECONDS
        if name == "serve":
            if own:
                model = build(student, seed, "served-model")
                randomize_batchnorms(model, bl.stream_rng(seed, "served-bn"))
            else:
                model = parts[0]["model"]
            parts.append(serve(model, scheme_name(student), student.input_shape,
                               family["serve"], seed, span, trace,
                               deployments=4 if own else 1))
            continue
        data = data or family["data"]()
        if name == "train":
            parts.append(train(student, data, seed, span, trace,
                               family["train"] if own else probe))
        else:
            parts.append(kd(student, teacher, data, seed, span, trace,
                            family["kd"] if own else probe))
    main = parts[0]
    # the main loop's overhead wins over the probes'
    layers = {}
    for part in reversed(parts):
        layers.update(part.get("layers", {}))
    return {"main": main, "parts": parts, "layers": layers,
            "problems": [p for part in parts for p in part["problems"]],
            "notes": [n for part in parts for n in part.get("notes", [])],
            "attempted": sum(part["attempted"] for part in parts),
            "failed": sum(part["failed"] for part in parts)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bootstrap()
    import benchlib as bl

    try:
        return measure(args, parser)
    finally:
        bl.stop_children()


def measure(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    import benchlib as bl
    from repro.photonics._native.build import build_info

    if args.workload not in workloads():
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads())}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    record = bl.run_record(ROOT, args.seed, build_info())
    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# record {json.dumps(record, sort_keys=True)}")
    started = time.perf_counter()
    steal, total = bl.cpu_ticks()
    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    steal_end, total_end = bl.cpu_ticks()
    record["host_steal_share"] = (steal_end - steal) / max(total_end - total, 1)
    main_part = outcome["main"]
    values = outcome["layers"] if args.trace else main_part["metrics"]
    missing = [name for name in wanted if name not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")

    for name in sorted(main_part["metrics"]):
        print(f"  {name:<28} {main_part['metrics'][name]:>14.6g} "
              f"{units[name]:<10} n={main_part['samples'][name]}"
              f"{'' if not args.trace else '  (traced; not an end-to-end figure)'}")
    if args.trace:
        for name in wanted:
            print(f"  {name:<28} {values[name]:>14.6g} {units[name]}")
        report_trace(outcome)
    for problem in outcome["problems"]:
        print(f"  PROBLEM: {problem}")
    for note in outcome["notes"]:
        print(f"  NOTE: {note}")
    print(f"# wall {time.perf_counter() - started:.1f} s, host steal "
          f"{100 * record['host_steal_share']:.1f}% of CPU time")

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    document = {"record": record,
                "metrics": {key: values[key] for key in wanted},
                "problems": outcome["problems"], "notes": outcome["notes"]}
    if args.trace:
        traced = [part for part in outcome["parts"] if "spans" in part]
        document["self_time_s"] = [part["spans"].self_times() for part in traced]
        document["spans"] = [part["spans"].as_rows() for part in traced]
    tmp = RUNS / (name + ".tmp")
    tmp.write_text(json.dumps(document))
    os.replace(tmp, RUNS / name)

    print(json.dumps({
        "correct": not outcome["problems"],
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": {key: {"value": float(values[key]), "unit": units[key]}
                    for key in wanted},
    }))
    return 0


def report_trace(outcome: dict) -> None:
    """Per-request stage breakdown and per-layer self time of a traced run."""
    for part in outcome["parts"]:
        for phase, row in part.get("breakdown", {}).items():
            if not row:
                continue
            stages = (row["submit_us_p50"] / 1e3 + row["queue_wait_ms_p50"]
                      + row["roundtrip_ms_p50"])
            print(f"  [{phase}] per request p50 over {row['requests']} requests: "
                  f"submit {row['submit_us_p50']:.1f} us + queue wait "
                  f"{row['queue_wait_ms_p50']:.3f} ms + round trip "
                  f"{row['roundtrip_ms_p50']:.3f} ms = {stages:.3f} ms of "
                  f"{row['latency_ms_p50']:.3f} ms measured; residual p50 "
                  f"{row['residual_ms_p50']:.3f} ms ({100 * row['residual_share']:.1f}% "
                  "of summed latency: result scatter and callbacks)")
        if "spans" in part:
            totals = part["spans"].self_times()
            whole = sum(totals.values()) or 1.0
            print("  self time: " + ", ".join(
                f"{name} {1e3 * value:.1f} ms ({100 * value / whole:.1f}%)"
                for name, value in sorted(totals.items(), key=lambda kv: -kv[1])))
    print(f"  tracing overhead: {outcome['layers']['trace.overhead_pct']:+.2f}% "
          "(traced against untraced work in the same run)")


if __name__ == "__main__":
    sys.exit(main())
