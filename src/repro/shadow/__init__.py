"""Shadow memory and the two shadow encodings (ASan, GiantSan)."""

from .shadow_memory import ShadowMemory, shadow_backend_default
from .folding import (
    MAX_DEGREE,
    floor_log2,
    degree_for_remaining,
    fold_degrees,
    run_lengths,
    verify_degrees,
)
from . import asan_encoding, giantsan_encoding, oracle

__all__ = [
    "ShadowMemory",
    "shadow_backend_default",
    "MAX_DEGREE",
    "floor_log2",
    "degree_for_remaining",
    "fold_degrees",
    "run_lengths",
    "verify_degrees",
    "asan_encoding",
    "giantsan_encoding",
    "oracle",
]
