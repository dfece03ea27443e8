"""Serving phases: open-loop Poisson traffic and a closed-loop capacity run.

All traffic comes from the calling thread (open loop) or from the futures'
own done-callbacks (closed loop), so the benchmark adds no client threads
to the frontend.  Every response is compared with the benchmark's own
in-process :class:`~repro.core.compile.CompiledProgram` at
:data:`PARITY_TOL`; a mismatch, an exception or an admission refusal is a
failed request and counts as missing any latency limit.

Tracing (``trace=True``) wraps each replica's flush call -- the
``DynamicBatcher.program`` reached through
``ShardedInferenceService.lane(key).replicas`` -- and times every
``ShardedInferenceService.submit`` call, from the benchmark's files only.
"""

from __future__ import annotations

import gc
import glob
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import benchlib as bl

PARITY_TOL = 1e-10
#: p99 generator lateness beyond which an open-loop phase is invalid
MAX_LAG_P99_S = 0.05
#: requests a phase may still have in flight when its schedule ends
DRAIN_TIMEOUT_S = 60.0
MODEL_KEY = "bench"
#: shares of the measured seconds: nominal open loop, high open loop, closed loop
PHASE_SHARES = (0.45, 0.45, 0.1)


#: the service every serving run deploys
WORKERS = 2
MAX_BATCH = 32
MAX_LATENCY_S = 0.002


@dataclass
class ServeShape:
    """Traffic shape of one serving workload."""

    sizes: tuple                        # request size range, inclusive
    nominal_rate: float                 # requests/s, open loop
    high_rate: float                    # requests/s, open loop
    window: int                         # closed-loop outstanding requests
    pool: int                           # distinct generated requests


class RequestPool:
    """Seeded requests plus the in-process reference logits of each.

    Requests are reused round-robin (request ``i`` sends ``requests[i %
    len]``); the pool is far larger than anything in flight at once, so the
    first pixel of a request identifies it inside a flushed batch.
    """

    def __init__(self, seed: int, image_shape, shape: ServeShape, program, scheme):
        low, high = shape.sizes
        self.sizes = bl.request_sizes(seed, "request-sizes", shape.pool, low, high)
        images = bl.stream_rng(seed, "request-images").normal(
            size=(int(self.sizes.sum()), *image_shape))
        offsets = np.concatenate([[0], np.cumsum(self.sizes)])
        self.requests = [images[offsets[k]:offsets[k + 1]] for k in range(shape.pool)]
        reference = np.concatenate([
            program.predict_logits(images[start:start + MAX_BATCH], scheme)
            for start in range(0, images.shape[0], MAX_BATCH)])
        self.expected = [reference[offsets[k]:offsets[k + 1]] for k in range(shape.pool)]
        self.key_to_index = {float(request[0].flat[0]): k
                             for k, request in enumerate(self.requests)}
        if len(self.key_to_index) != shape.pool:
            raise RuntimeError("request pool keys collide; cannot trace flushes")

    def __len__(self) -> int:
        return len(self.requests)


class FlushProbe:
    """Times one replica's flush calls and names the requests each carries."""

    def __init__(self, inner, pool: RequestPool, current: Dict[int, int]):
        self.inner = inner
        self.pool = pool
        self.current = current          # pool index -> request id in flight
        self.flushes: List[tuple] = []  # (start, end, samples, request ids)

    def predict_logits(self, images, scheme=None):
        indices = map(self.pool.key_to_index.get,
                      images.reshape(images.shape[0], -1)[:, 0].tolist())
        carried = [self.current.get(index) for index in indices if index is not None]
        start = time.perf_counter()
        try:
            return self.inner.predict_logits(images, scheme)
        finally:
            self.flushes.append((start, time.perf_counter(), images.shape[0], carried))


@dataclass
class PhaseResult:
    """Per-request timings of one phase (``nan`` where not applicable)."""

    name: str
    pool_index: np.ndarray
    due: np.ndarray
    submit_start: np.ndarray
    submit_end: np.ndarray
    done: np.ndarray
    ok: np.ndarray
    agree: np.ndarray                   # top-1 equal to the reference; nan: no answer
    seconds: float
    end: float
    flushes: List[tuple] = field(default_factory=list)
    #: closed loop: correct samples completed while the loop was refilled
    samples_done: int = 0

    @property
    def attempted(self) -> int:
        return int(self.ok.size)

    @property
    def failed(self) -> int:
        return int((~self.ok).sum())

    def latencies(self) -> np.ndarray:
        """From due time to completion; a failure lasts until the phase drained."""
        return np.where(self.ok, self.done, self.end) - self.due

    def lag(self) -> np.ndarray:
        return self.submit_start - self.due


class Traffic:
    """Drives one deployed lane; :meth:`trace_on` starts tracing its flushes."""

    def __init__(self, service, pool: RequestPool):
        from repro.serve import ServiceOverloadedError

        self.service = service
        self.pool = pool
        self.overloaded = ServiceOverloadedError
        self.current: Dict[int, int] = {}
        self.probes: List[FlushProbe] = []

    def trace_on(self) -> None:
        for replica in self.service.lane(MODEL_KEY).replicas:
            probe = FlushProbe(replica.batcher.program, self.pool, self.current)
            replica.batcher.program = probe
            self.probes.append(probe)

    def _take_flushes(self) -> List[tuple]:
        flushes = []
        for probe in self.probes:
            flushes.extend(probe.flushes)
            probe.flushes = []
        return flushes

    def _check(self, results, pool_index, ok, agree) -> None:
        for i, result in enumerate(results):
            if result is None:
                continue
            if isinstance(result, BaseException):
                ok[i] = False
                continue
            expected = self.pool.expected[pool_index[i]]
            if result.shape != expected.shape:
                ok[i], agree[i] = False, 0.0
                continue
            ok[i] = float(np.abs(result - expected).max()) <= PARITY_TOL
            agree[i] = float((result.argmax(-1) == expected.argmax(-1)).all())

    # ------------------------------------------------------------------ #
    def open_loop(self, name: str, due: np.ndarray) -> PhaseResult:
        count = due.size
        size = len(self.pool)
        pool_index = np.arange(count) % size
        submit_start = np.zeros(count)
        submit_end = np.zeros(count)
        done = np.full(count, np.nan)
        results: List[Optional[object]] = [None] * count
        ok = np.ones(count, dtype=bool)
        agree = np.full(count, np.nan)

        def on_done(i):
            def record(future):
                done[i] = time.perf_counter()
                results[i] = _outcome(future)
            return record

        self._take_flushes()
        base = time.perf_counter() + 0.01
        due_at = base + due
        i = 0
        while i < count:
            now = time.perf_counter()
            if now < due_at[i]:
                time.sleep(due_at[i] - now)
                continue
            k = int(pool_index[i])
            self.current[k] = i
            submit_start[i] = time.perf_counter()
            try:
                future = self.service.submit(MODEL_KEY, self.pool.requests[k])
            except self.overloaded:
                ok[i] = False
            else:
                future.add_done_callback(on_done(i))
            submit_end[i] = time.perf_counter()
            i += 1
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while np.isnan(done[ok]).any():
            if time.perf_counter() > deadline:
                raise RuntimeError(f"{name}: requests did not complete")
            time.sleep(0.002)
        end = time.perf_counter()
        self._check(results, pool_index, ok, agree)
        return PhaseResult(name, pool_index, due_at, submit_start, submit_end,
                           done, ok, agree, end - base, end, self._take_flushes())

    def closed_loop(self, name: str, window: int, seconds: float) -> PhaseResult:
        size = len(self.pool)
        lock = threading.Lock()
        drained = threading.Event()
        state = {"next": 0, "inflight": 0, "stop": False}
        rows: List[tuple] = []

        def issue():
            with lock:
                i = state["next"]
                state["next"] += 1
                state["inflight"] += 1
            k = i % size
            self.current[k] = i
            start = time.perf_counter()
            try:
                future = self.service.submit(MODEL_KEY, self.pool.requests[k])
            except self.overloaded:
                rows.append((i, k, start, time.perf_counter(), np.nan, None))
                finish()
                return
            submitted = time.perf_counter()
            future.add_done_callback(
                lambda f: complete(i, k, start, submitted, f))

        def complete(i, k, start, submitted, future):
            rows.append((i, k, start, submitted, time.perf_counter(), _outcome(future)))
            if not state["stop"]:
                issue()
            finish()

        def finish():
            with lock:
                state["inflight"] -= 1
                if state["stop"] and state["inflight"] == 0:
                    drained.set()

        self._take_flushes()
        begin = time.perf_counter()
        for _ in range(window):
            issue()
        time.sleep(seconds)
        with lock:
            state["stop"] = True
            if state["inflight"] == 0:
                drained.set()
        end = time.perf_counter()
        if not drained.wait(DRAIN_TIMEOUT_S):
            raise RuntimeError(f"{name}: closed loop did not drain")
        rows.sort()
        count = len(rows)
        pool_index = np.array([row[1] for row in rows], dtype=int)
        start_times = np.array([row[2] for row in rows])
        done = np.array([row[4] for row in rows])
        ok = np.array([row[5] is not None for row in rows], dtype=bool)
        agree = np.full(count, np.nan)
        self._check([row[5] for row in rows], pool_index, ok, agree)
        inside = ok & (done >= begin) & (done <= end)
        samples = int(self.pool.sizes[pool_index[inside]].sum())
        return PhaseResult(name, pool_index, start_times, start_times,
                           np.array([row[3] for row in rows]), done, ok, agree,
                           end - begin, end, self._take_flushes(), samples)


def _outcome(future):
    """A resolved future's logits or exception; futures are not kept alive."""
    error = future.exception()
    return error if error is not None else future.result()


# --------------------------------------------------------------------------- #
# lifecycle helpers
# --------------------------------------------------------------------------- #
def leaked(summary: dict, grace_s: float = 5.0) -> List[str]:
    """Shared-memory segments and worker pids that outlived ``close()``."""
    deadline = time.monotonic() + grace_s
    while True:
        segments = sorted(glob.glob(f"/dev/shm/repro-shard-{os.getpid()}-*"))
        segments += [name for name in summary["slabs"]
                     if os.path.exists(f"/dev/shm/{name}") and
                     f"/dev/shm/{name}" not in segments]
        workers = [f"worker pid {pid}" for pid in summary["pids"]
                   if bl.process_alive(pid)]
        if not (segments or workers) or time.monotonic() > deadline:
            return segments + workers
        time.sleep(0.05)


def stats_totals(service) -> dict:
    """Lane counters summed over replicas, plus per-replica sample counts."""
    lane = service.stats()[MODEL_KEY]
    replicas = lane["replicas"].values()
    return {"requests": sum(r["requests"] for r in replicas),
            "samples": sum(r["samples"] for r in replicas),
            "batches": sum(r["batches"] for r in replicas),
            "full_flushes": sum(r["full_flushes"] for r in replicas),
            "rejected": lane["rejected"],
            "per_replica": [r["samples"] for r in replicas]}


def diff_totals(after: dict, before: dict) -> dict:
    out = {key: after[key] - before[key] for key in after if key != "per_replica"}
    out["per_replica"] = [a - b for a, b in zip(after["per_replica"], before["per_replica"])]
    return out


def time_call(function, repeats: int) -> float:
    """Median wall seconds of ``function()`` over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return bl.median(times)


def runtime_layers(program, scheme, images: np.ndarray, batch: int) -> dict:
    """``encode_images`` / ``forward_signals`` / ``readout`` at batch 1 and ``batch``."""
    plan = program.plan()
    out = {"runtime.batch_med": float(batch),
           "runtime.instructions": float(plan.instruction_count),
           "runtime.fused_matmuls": float(plan.fused_matmuls),
           "runtime.chain_stages": float(plan.chain_stages)}
    for label, size, repeats in (("b1", 1, 30), ("bmed", batch, 10)):
        batch_images = images[:size]
        signal = program.encode_images(batch_images, scheme)
        optical = program.forward_signals(signal)
        out[f"runtime.encode_ms_{label}"] = 1e3 * time_call(
            lambda: program.encode_images(batch_images, scheme), repeats)
        out[f"runtime.execute_ms_{label}"] = 1e3 * time_call(
            lambda: program.forward_signals(signal), repeats)
        out[f"runtime.readout_ms_{label}"] = 1e3 * time_call(
            lambda: program.readout(optical), repeats)
    return out


# --------------------------------------------------------------------------- #
# the serving run
# --------------------------------------------------------------------------- #
def serve(model, scheme_name: str, image_shape, shape: ServeShape, seed: int,
          seconds: float, trace: bool, deployments: int = 4) -> dict:
    """Deploy ``model`` several times and drive each deployment.

    Throughput of one deployment settles into one of a few modes (with
    host-default BLAS threading the worker processes' thread pools collide
    differently from spawn to spawn), so a run measures ``deployments``
    fresh deployments and pools them: ``seconds`` is shared out evenly, and
    within a deployment by :data:`PHASE_SHARES` between the nominal-rate
    open loop, the high-rate open loop and the closed loop.  A traced run
    first drives each deployment untraced in closed loop for as long as its
    traced closed loop, and reports the difference as the tracing overhead.
    """
    import repro
    from repro.assignment import get_scheme
    from repro.serve import ShardedInferenceService

    scheme = get_scheme(scheme_name)
    start = time.perf_counter()
    program = repro.compile(model)
    compile_s = time.perf_counter() - start
    start = time.perf_counter()
    program.plan()
    plan_s = time.perf_counter() - start
    pool = RequestPool(seed, image_shape, shape, program, scheme)
    share = seconds / deployments
    # traced runs report no end-to-end figures, so their two closed loops
    # run longer: the overhead is a difference of two noisy rates
    closed_s = PHASE_SHARES[2] * share * (3 if trace else 1)
    problems: List[str] = []
    runs: List[dict] = []

    for index in range(deployments):
        begin = time.perf_counter()
        service = ShardedInferenceService(workers=WORKERS, max_batch=MAX_BATCH,
                                          max_latency_s=MAX_LATENCY_S)
        try:
            summary = service.deploy(MODEL_KEY, model, scheme_name, image_shape)
        except BaseException:
            service.close()
            raise
        one = {"deploy_s": time.perf_counter() - begin, "summary": summary}
        # the benchmark's own long-lived state (request pool, reference
        # program) leaves the collector's view, so it does not set GC pauses
        gc.collect()
        gc.freeze()
        try:
            traffic = Traffic(service, pool)
            traffic.closed_loop("warmup", shape.window, 0.3)
            if trace:
                one["untraced"] = traffic.closed_loop("closed-untraced", shape.window,
                                                      closed_s)
                traffic.trace_on()
            pids = summary["pids"]
            workers_cpu = sum(bl.cpu_seconds(pid) for pid in pids)
            frontend_cpu = sum(os.times()[:2])
            totals = stats_totals(service)
            one["nominal"] = traffic.open_loop("nominal", bl.poisson_schedule(
                seed, f"nominal-{index}", shape.nominal_rate, PHASE_SHARES[0] * share))
            one["high"] = traffic.open_loop("high", bl.poisson_schedule(
                seed, f"high-{index}", shape.high_rate, PHASE_SHARES[1] * share))
            before_closed = stats_totals(service)
            one["closed"] = traffic.closed_loop("closed", shape.window, closed_s)
            after = stats_totals(service)
            one["workers_cpu"] = sum(bl.cpu_seconds(pid) for pid in pids) - workers_cpu
            one["frontend_cpu"] = sum(os.times()[:2]) - frontend_cpu
            one["served"] = diff_totals(after, totals)
            one["closed_stats"] = diff_totals(after, before_closed)
            one["rss"] = bl.peak_rss_mb() + sum(bl.peak_rss_mb(pid) for pid in pids)
        finally:
            gc.unfreeze()
            if not service.close():
                problems.append("service.close() reported workers that did not stop")
            problems.extend(f"leaked after close: {item}" for item in leaked(summary))
        runs.append(one)

    def phases(name):
        return [one[name] for one in runs]

    everything = phases("nominal") + phases("high") + phases("closed")
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    agree = np.concatenate([p.agree for p in everything])
    answered = agree[~np.isnan(agree)]
    lag_pct, lag_p99, _ = bl.tail_percentile(
        np.concatenate([p.lag() for p in phases("nominal") + phases("high")]))
    if lag_p99 > MAX_LAG_P99_S:
        problems.append(f"invalid: generator ran {1e3 * lag_p99:.1f} ms late at "
                        f"p{lag_pct:.1f} (bound {1e3 * MAX_LAG_P99_S:.0f} ms)")
    # a response that differs from the reference is a wrong output; an
    # error or an admission refusal is a failed request (it lowers ok_frac
    # and misses every latency limit) but not a wrong one
    wrong = sum(int(((~p.ok) & ~np.isnan(p.agree)).sum()) for p in everything)
    if wrong:
        problems.append(f"{wrong} of {attempted} responses differed from the "
                        f"reference by more than {PARITY_TOL}")
    notes = [f"{failed - wrong} of {attempted} requests failed or were refused"] \
        if failed > wrong else []
    nominal = np.concatenate([p.latencies() for p in phases("nominal")])
    high = np.concatenate([p.latencies() for p in phases("high")])
    p99, hi99 = bl.windowed_tail(nominal), bl.windowed_tail(high)
    capacity = (sum(p.samples_done for p in phases("closed"))
                / sum(p.seconds for p in phases("closed")))
    deploy_times = [one["deploy_s"] for one in runs]
    result = {
        "metrics": {
            "setup_s": bl.median(deploy_times),
            "latency_p50_ms": 1e3 * bl.median(nominal),
            "latency_p99_ms": 1e3 * p99[1],
            "latency_hi_p99_ms": 1e3 * hi99[1],
            "capacity_samples_per_s": capacity,
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": max(one["rss"] for one in runs),
            "test_accuracy": float(answered.mean()) if answered.size else 0.0,
        },
        "samples": {"setup_s": f"median of {deployments} deploys",
                    "latency_p50_ms": nominal.size,
                    "latency_p99_ms": p99[2],
                    "latency_hi_p99_ms": hi99[2],
                    "capacity_samples_per_s": f"{deployments} deploys, "
                    f"{sum(p.seconds for p in phases('closed')):.2f} s closed loop",
                    "ok_frac": attempted,
                    "peak_rss_mb": f"frontend + {WORKERS} workers",
                    "test_accuracy": int(answered.size)},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "notes": notes,
    }
    if not trace:
        return result

    def total(key, field):
        return sum(one[key][field] for one in runs)

    per_replica = np.sum([one["served"]["per_replica"] for one in runs], axis=0)
    untraced = (sum(one["untraced"].samples_done for one in runs)
                / sum(one["untraced"].seconds for one in runs))
    layers = {
        "shard.admitted": float(total("served", "requests")),
        "shard.rejected": float(total("served", "rejected")),
        "shard.replica_share_max": float(per_replica.max() / max(per_replica.sum(), 1)),
        "shard.deploy_s": bl.median(deploy_times),
        "batcher.batch_samples_mean": total("closed_stats", "samples")
        / max(total("closed_stats", "batches"), 1),
        "batcher.full_flush_frac": total("closed_stats", "full_flushes")
        / max(total("closed_stats", "batches"), 1),
        "worker.cpu_ms_per_sample": 1e3 * sum(one["workers_cpu"] for one in runs)
        / max(total("served", "samples"), 1),
        "frontend.cpu_ms_per_request": 1e3 * sum(one["frontend_cpu"] for one in runs)
        / max(total("served", "requests"), 1),
        "compile.compile_s": compile_s,
        "compile.plan_s": plan_s,
        "compile.decompositions": float(sum(d or 0 for d in
                                            runs[-1]["summary"]["decompositions"])),
        "compile.mzi_count": float(program.mzi_count),
        "loadgen.lag_p99_ms": 1e3 * lag_p99,
        "trace.overhead_pct": 100.0 * (1.0 - capacity / untraced),
    }
    spans = bl.Spans()
    # spans are kept for the nominal phase; the other phases' breakdowns
    # are computed the same way without holding every span in memory
    breakdown = {name: request_breakdown(phases(name), spans if name == "nominal" else None)
                 for name in ("nominal", "high", "closed")}
    row = breakdown["nominal"]
    layers.update({
        "shard.submit_us_p50": row["submit_us_p50"],
        "shard.submit_us_p99": row["submit_us_p99"],
        "batcher.queue_wait_ms_p50": row["queue_wait_ms_p50"],
        "batcher.queue_wait_ms_p99": row["queue_wait_ms_p99"],
        "worker.roundtrip_ms_p50": row["flush_roundtrip_ms_p50"],
        "worker.roundtrip_ms_p99": row["flush_roundtrip_ms_p99"],
        "request.residual_ms_p50": row["residual_ms_p50"],
        "request.residual_share": row["residual_share"],
    })
    flushes = [flush for phase in phases("nominal") for flush in phase.flushes]
    images = np.concatenate(pool.requests)
    layers.update(runtime_layers(program, scheme, images,
                                 int(np.median([flush[2] for flush in flushes]))))
    # derived: the in-process predict time at each flush size, subtracted
    # from that flush's round trip, leaves slab copies, IPC and wake-ups
    inproc = {size: time_call(lambda: program.predict_logits(images[:size], scheme), 5)
              for size in {flush[2] for flush in flushes}}
    layers["worker.transport_ms"] = 1e3 * bl.median(
        [(end - begin) - inproc[size] for begin, end, size, _ids in flushes])
    result.update(layers=layers, spans=spans, breakdown=breakdown)
    return result


def request_breakdown(phases: List[PhaseResult], spans: Optional[bl.Spans]) -> dict:
    """Per-request submit / queue wait / round trip / residual, as spans.

    The residual is what is left of the request's latency (from the start
    of its submit call to its done-callback) after the three measured
    stages: result scatter and callback dispatch on the batcher thread.
    """
    submit, queue, roundtrip, residual, total, flush_times = [], [], [], [], [], []
    for phase in phases:
        flush_of: Dict[int, tuple] = {}
        for flush in phase.flushes:
            for request in flush[3]:
                if request is not None:
                    flush_of[request] = flush
        request_ids: Dict[int, int] = {}
        for i in range(phase.attempted):
            if not phase.ok[i] or i not in flush_of:
                continue
            start, submitted, end = phase.submit_start[i], phase.submit_end[i], phase.done[i]
            flush = flush_of[i]
            if spans is not None:
                request = request_ids[i] = spans.new_request()
                root = spans.add("request", start, end, request=request)
                spans.add("shard.submit", start, submitted, parent=root, request=request)
                spans.add("batcher.queue_wait", submitted, flush[0], parent=root,
                          request=request)
            submit.append(submitted - start)
            queue.append(flush[0] - submitted)
            roundtrip.append(flush[1] - flush[0])
            residual.append(end - flush[1])
            total.append(end - start)
        for flush in phase.flushes:
            if spans is not None:
                spans.add("worker.roundtrip", flush[0], flush[1],
                          links=[request_ids[r] for r in flush[3] if r in request_ids])
            flush_times.append(flush[1] - flush[0])
    return {
        "requests": len(total),
        "latency_ms_p50": 1e3 * bl.median(total),
        "submit_us_p50": 1e6 * bl.median(submit),
        "submit_us_p99": 1e6 * bl.tail_percentile(submit)[1],
        "queue_wait_ms_p50": 1e3 * bl.median(queue),
        "queue_wait_ms_p99": 1e3 * bl.tail_percentile(queue)[1],
        "roundtrip_ms_p50": 1e3 * bl.median(roundtrip),
        "flush_roundtrip_ms_p50": 1e3 * bl.median(flush_times),
        "flush_roundtrip_ms_p99": 1e3 * bl.tail_percentile(flush_times)[1],
        "residual_ms_p50": 1e3 * bl.median(residual),
        "residual_share": float(np.sum(residual) / np.sum(total)),
    }
