"""Small shared utilities used across the reproduction.

Nothing in this package is specific to the paper; it holds the generic
helpers (power-of-two arithmetic, bit manipulation, validation, seeded
randomness, the trust rule for promise hooks) that the PRAM substrate,
the fault models, the algorithms and the benchmark harness all rely
on.
"""

from repro.util.bits import (
    bit_of,
    bit_length_of_power,
    ceil_div,
    ceil_log2,
    is_power_of_two,
    msb_first_bit,
    next_power_of_two,
)
from repro.util.checks import require, require_index, require_positive
from repro.util.hooks import trusted_hook
from repro.util.rng import derive_seed, make_rng

__all__ = [
    "bit_of",
    "bit_length_of_power",
    "ceil_div",
    "ceil_log2",
    "derive_seed",
    "is_power_of_two",
    "make_rng",
    "msb_first_bit",
    "next_power_of_two",
    "require",
    "require_index",
    "require_positive",
    "trusted_hook",
]
