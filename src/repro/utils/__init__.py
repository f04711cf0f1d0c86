"""Shared utilities: seeded RNG streams, timers, result envelopes."""

from repro.utils.results import (
    RESULT_SCHEMA_VERSION,
    result_envelope,
    write_result,
)
from repro.utils.rng import rng_from_seed
from repro.utils.timer import Timer, timed

__all__ = [
    "RESULT_SCHEMA_VERSION",
    "Timer",
    "result_envelope",
    "rng_from_seed",
    "timed",
    "write_result",
]
