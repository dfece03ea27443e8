"""Crossover benchmark: cached dense transfer matmul vs the chain backends.

Measures, per mesh dimension, the warm-cache dense apply against every
non-dense execution backend -- the compiled numpy column program and, when
built, the native ``cchain`` kernel -- and records the per-backend timing
axis plus the adaptively chosen ``DENSE_DIMENSION_LIMIT`` to
``benchmarks/results/dense_crossover.json``.  The measured data is what
:func:`repro.photonics.engine.calibrate_dense_limit` picks the limit from on
any machine: the limit is where dense stops beating the *fastest available*
alternative, so a machine with the kernel calibrates a lower crossover.
"""

from __future__ import annotations

from repro.experiments.reporting import save_json
from repro.photonics import _native, engine

#: dimensions the crossover is sampled at (kept small enough for CI)
DIMENSIONS = (16, 32, 48, 64, 96, 128)


def test_dense_crossover(benchmark, results_dir):
    limit, rows = benchmark.pedantic(
        engine.calibrate_dense_limit,
        kwargs={"dimensions": DIMENSIONS, "batch": 32, "repeats": 3},
        rounds=1, iterations=1)

    save_json({
        "chosen_limit": limit,
        "default_limit": engine.DENSE_DIMENSION_LIMIT,
        "native_kernel": _native.kernel() is not None,
        "rows": rows,
    }, results_dir / "dense_crossover.json")

    # the dense matmul must beat every chain backend at small dimensions on
    # any machine; the exact crossover is machine-dependent
    assert limit >= 16
    small = next(row for row in rows if row["dimension"] == 16)
    assert small["dense_speedup"] > 1.0
    assert small["dense_speedup_vs_best"] > 1.0

    # every row carries the full backend axis; cchain timings are real
    # numbers exactly when the kernel is loaded
    for row in rows:
        assert set(row["backend_seconds"]) == {"dense", "column", "cchain"}
        assert (row["backend_seconds"]["cchain"] is not None) \
            == (_native.kernel() is not None)
