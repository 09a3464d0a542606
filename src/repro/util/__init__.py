"""Small shared helpers used across the library."""

from repro.util.partitions import (
    RefinementTrie,
    bell_number,
    canonical_partition,
    code_coarsens,
    partition_to_mapping,
    refinements,
    rgs_codes,
    rgs_prefixes,
    set_partitions,
)
from repro.util.naming import fresh_names

__all__ = [
    "RefinementTrie",
    "bell_number",
    "canonical_partition",
    "code_coarsens",
    "fresh_names",
    "partition_to_mapping",
    "refinements",
    "rgs_codes",
    "rgs_prefixes",
    "set_partitions",
]
