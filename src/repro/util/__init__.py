"""Small shared helpers used across the library."""

from repro.util.partitions import (
    RefinementTrie,
    bell_number,
    code_coarsens,
    partition_to_mapping,
    rgs_codes,
)
from repro.util.naming import fresh_names

__all__ = [
    "RefinementTrie",
    "bell_number",
    "code_coarsens",
    "fresh_names",
    "partition_to_mapping",
    "rgs_codes",
]
