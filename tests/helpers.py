"""Shared test fixtures — re-exported from the public testing module.

The reference graphs live in :mod:`repro.testing` so downstream users
can exercise their own deployments against them; the test suite imports
them through this shim.
"""

from repro.testing import (  # noqa: F401
    build_cf_sdg,
    build_iterative_sdg,
    build_kv_sdg,
    noop,
    reference_cf,
)


def input_logs(runtime):
    """Each opened input route's channel -> what its entry's one input
    log holds for that channel (in-process, the envelopes no checkpoint
    has trimmed yet)."""
    return {route.channel: [e for e in inputs.log if e[2] == route.channel]
            for inputs in runtime._entries.values()
            for route in inputs.routes}
