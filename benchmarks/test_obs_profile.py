"""Overhead guard for the wall-clock profiler.

Two enforced properties, mirroring ``test_obs_overhead.py``:

* **Profiling off is free.** A runtime with the profiler *and* flight
  recorder disabled (the default) must process items within 3% of the
  :data:`~repro.obs.NULL_REGISTRY` baseline — i.e. the new hooks add
  nothing beyond the already-enforced metrics bar. Off the path there
  is nothing: with the shared no-op probe
  (:data:`repro.obs.probe.NULL_PROBE`) the drain serves through
  ``substrate.process`` itself, and an item makes no probe call.
* **Profiling on accounts the run.** With ``profile=True`` every item
  lands in the ``process`` phase and every ``dispatcher.dispatch`` call
  (one per wordcount line) in the ``dispatch`` phase. The multiprocess
  merge of worker and coordinator phases is checked by
  ``tests/runtime/test_multiprocess_obs.py::TestMergedProfile``.
"""

import time

from repro.apps.wordcount import build_wordcount_sdg
from repro.obs import NULL_REGISTRY
from repro.runtime import Runtime, RuntimeConfig
from repro.testing import build_kv_sdg

_ITEMS = 2_000
_TRIALS = 5
_ATTEMPTS = 3
_MAX_RATIO = 1.03


def _deploy(metrics=None, profile=False):
    config = RuntimeConfig(se_instances={"table": 2}, profile=profile)
    if metrics is not None:
        config.metrics = metrics
    return Runtime(build_kv_sdg(), config).deploy()


def _run_batch(runtime, start, items=_ITEMS):
    for i in range(start, start + items):
        runtime.inject("serve", ("put", i % 64, i))
    runtime.run_until_idle()


def _time_batch(runtime, start):
    t0 = time.perf_counter()
    _run_batch(runtime, start)
    return time.perf_counter() - t0


def test_profile_off_overhead_under_3_percent():
    for attempt in range(1, _ATTEMPTS + 1):
        baseline = _deploy(metrics=NULL_REGISTRY)
        candidate = _deploy()  # default registry, profile+flight off
        assert candidate.profiler is None
        assert candidate.flight is None
        _run_batch(baseline, 0)
        _run_batch(candidate, 0)
        best_base = min(
            _time_batch(baseline, (1 + t) * _ITEMS)
            for t in range(_TRIALS)
        )
        best_cand = min(
            _time_batch(candidate, (1 + t) * _ITEMS)
            for t in range(_TRIALS)
        )
        ratio = best_cand / best_base
        print(f"\nprofile-off overhead attempt {attempt}: baseline "
              f"{best_base * 1e3:.2f}ms candidate "
              f"{best_cand * 1e3:.2f}ms ratio {ratio:.4f}")
        if ratio < _MAX_RATIO:
            break
    assert ratio < _MAX_RATIO, (
        f"profile-off runtime is {ratio:.4f}x the no-registry "
        f"baseline after {_ATTEMPTS} attempts (bound {_MAX_RATIO}x)"
    )


def test_profile_on_accounts_every_item():
    config = RuntimeConfig(se_instances={"counts": 2}, profile=True)
    runtime = Runtime(build_wordcount_sdg(), config).deploy()
    for i in range(300):
        runtime.inject("split", (i, f"w{i % 64} w{i % 5}"))
    runtime.run_until_idle()
    profile = runtime.merged_profile()
    assert profile.count("process") == 300 * 3
    assert profile.count("dispatch") == 300
    # Dispatch nests inside the process span, so it can never exceed it.
    assert profile.seconds("dispatch") <= profile.seconds("process")

