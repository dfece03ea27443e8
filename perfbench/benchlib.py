"""Measurement helpers of the outside-in benchmark (no ``repro`` imports).

Everything here is plain numpy + the standard library so the helper tests run
without building a model: tail percentiles that state how many samples back
them, seeded arrival schedules, an in-memory span recorder with per-layer
self time, ``/proc`` readers for peak RSS and CPU time, and the run record
(machine, BLAS, interpreter) stamped on every run.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: samples that must lie beyond a reported tail percentile
TAIL_SAMPLES = 10


# --------------------------------------------------------------------------- #
# statistics
# --------------------------------------------------------------------------- #
def tail_percentile(values: Sequence[float], target: float = 99.0) -> Tuple[float, float, int]:
    """``(percentile, value, count)`` of the supported tail of ``values``.

    The percentile is ``target`` or, when the sample is too small for it,
    the highest percentile that still has at least :data:`TAIL_SAMPLES`
    samples beyond it, ``100 * (1 - 10 / n)``.  It never drops below the
    median: with fewer than twenty samples the "tail" is the median.
    """
    data = np.asarray(values, dtype=float)
    count = int(data.size)
    if count == 0:
        raise ValueError("no samples")
    supported = 100.0 * (1.0 - TAIL_SAMPLES / count)
    percentile = max(50.0, min(float(target), supported))
    return percentile, float(np.percentile(data, percentile)), count


def windowed_tail(values: Sequence[float], target: float = 99.0,
                  window: int = 1000) -> Tuple[float, float, str]:
    """``(percentile, value, description)`` of a tail robust to bursts.

    With at least two full windows of ``window`` consecutive samples, the
    value is the median over the windows of each window's
    :func:`tail_percentile`: one stall then moves one window, not the
    figure.  Smaller samples fall back to the pooled tail.
    """
    data = np.asarray(values, dtype=float)
    windows = data.size // window
    if windows < 2:
        percentile, value, count = tail_percentile(data, target)
        return percentile, value, f"p{percentile:.2f} of {count}"
    tails = [tail_percentile(chunk, target)
             for chunk in data[:windows * window].reshape(windows, window)]
    percentile = tails[0][0]
    return (percentile, median([tail[1] for tail in tails]),
            f"median of {windows} windows' p{percentile:.2f} of {window}")


def median(values: Sequence[float]) -> float:
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("no samples")
    return float(np.median(data))


# --------------------------------------------------------------------------- #
# seeded inputs
# --------------------------------------------------------------------------- #
def stream_rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator per (seed, named input stream)."""
    tag = int.from_bytes(hashlib.sha256(stream.encode()).digest()[:4], "little")
    return np.random.default_rng([int(seed), tag])


def poisson_schedule(seed: int, stream: str, rate: float, seconds: float) -> np.ndarray:
    """Due times (seconds from phase start) of Poisson arrivals at ``rate``/s."""
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    rng = stream_rng(seed, stream)
    expected = int(rate * seconds)
    gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(np.sqrt(expected) + 8))
    due = np.cumsum(gaps)
    return due[due < seconds]


def request_sizes(seed: int, stream: str, count: int, low: int, high: int) -> np.ndarray:
    """``count`` request sizes, uniform over ``low..high`` inclusive.

    Each consecutive block of ``high - low + 1`` requests holds every size
    once, in seeded order, so any stretch of traffic carries the same size
    mix whatever the seed: runs differ in order and arrival times, not in
    how much work they ask for.
    """
    rng = stream_rng(seed, stream)
    span = high - low + 1
    blocks = [rng.permutation(span) + low for _ in range(-(-count // span))]
    return np.concatenate(blocks)[:count]


# --------------------------------------------------------------------------- #
# spans
# --------------------------------------------------------------------------- #
class Spans:
    """In-memory span log: ``(id, name, start, end, parent, request, links)``.

    ``parent`` is the id of the span that caused this one; ``request`` the
    id shared by every span of one request; ``links`` the request ids a
    shared span (a batcher flush) carries.  Nothing is written until
    :meth:`as_rows` is called at the end of a run.
    """

    def __init__(self):
        self.rows: List[tuple] = []
        self._requests = 0

    def new_request(self) -> int:
        """A fresh request id."""
        self._requests += 1
        return self._requests

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None,
            request: Optional[int] = None, links: Sequence[int] = ()) -> int:
        span_id = len(self.rows)
        self.rows.append((span_id, name, float(start), float(end), parent,
                          request, tuple(links)))
        return span_id

    def as_rows(self) -> List[list]:
        return [list(row[:6]) + [list(row[6])] for row in self.rows]

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name, in seconds.

        A span's self time is its duration minus the part of it covered by
        its children: spans naming it as parent, plus -- for a span with a
        request id -- shared spans linking that request.
        """
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        linked: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span_id, _name, start, end, parent, _request, links in self.rows:
            if parent is not None:
                children[parent].append((start, end))
            for request in links:
                linked[request].append((start, end))
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _parent, request, _links in self.rows:
            covered = children.get(span_id, [])
            if request is not None and _parent is None:
                covered = covered + linked.get(request, [])
            totals[name] += self_time(start, end, covered)
        return dict(totals)


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """``end - start`` minus the union of ``children`` clipped to the span."""
    clipped = sorted((max(start, s), min(end, e)) for s, e in children
                     if min(end, e) > max(start, s))
    covered = 0.0
    cursor = start
    for s, e in clipped:
        if e <= cursor:
            continue
        covered += e - max(s, cursor)
        cursor = e
    return (end - start) - covered


# --------------------------------------------------------------------------- #
# /proc readers
# --------------------------------------------------------------------------- #
def peak_rss_mb(pid: object = "self") -> float:
    """``VmHWM`` (peak resident set) of a process in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: object = "self") -> float:
    """User + system CPU seconds of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3); utime/stime are fields 14/15
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_ticks() -> Tuple[int, int]:
    """``(steal, total)`` jiffies over all CPUs, from ``/proc/stat``.

    Steal is time the hypervisor ran something else while this machine's
    vCPUs were runnable; a run with a large steal share measured a noisy
    host, not the program.
    """
    with open("/proc/stat") as stat:
        fields = [int(value) for value in stat.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def process_alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def stop_children(timeout_s: float = 10.0) -> None:
    """End and reap every process this one started, before it exits.

    Worker processes still alive (a run that failed before ``close()``) are
    terminated, then killed; the ``multiprocessing`` resource tracker, which
    spawned workers start and which would otherwise outlive this process, is
    stopped and waited for.
    """
    import gc
    import multiprocessing
    from multiprocessing import resource_tracker

    children = multiprocessing.active_children()
    for child in children:
        child.terminate()
    for child in children:
        child.join(timeout_s)
        if child.is_alive():
            child.kill()
            child.join()
    # finalize dropped queues and locks first: their semaphores are tracked,
    # and the tracker unlinks whatever is still registered when it stops
    gc.collect()
    resource_tracker._resource_tracker._stop()


# --------------------------------------------------------------------------- #
# run record
# --------------------------------------------------------------------------- #
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads", "openblas_get_num_threads64_",
                        "openblas_get_num_threads", "MKL_Get_Max_Threads",
                        "bli_thread_get_num_threads")


def blas_info() -> dict:
    """BLAS vendor/version from numpy's build config and its live thread count."""
    info: dict = {"vendor": None, "version": None, "threads": None, "library": None}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps") as maps:
        libraries = sorted({line.split()[-1] for line in maps
                            if "blas" in line.lower() or "mkl" in line.lower()})
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            if hasattr(library, symbol):
                function = getattr(library, symbol)
                function.restype = ctypes.c_int
                info["threads"], info["library"] = int(function()), path
                return info
    return info


def source_digest(root: Path) -> str:
    """SHA-256 over the program's source files (stands in for a missing sha)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout.strip() or None


def run_record(root: Path, seed: int, native: dict) -> dict:
    """Machine, BLAS, native kernel and interpreter stamp of one run."""
    return {
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "seed": int(seed),
        "cpus_affinity": len(os.sched_getaffinity(0)),
        "cpus_online": os.cpu_count(),
        "blas": blas_info(),
        "blas_env": {key: os.environ.get(key) for key in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "native": {key: native.get(key) for key in
                   ("available", "binding", "key", "load_error")},
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
