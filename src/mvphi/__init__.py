"""Truncated-precision kernel for multivariable Frobenius-module rings.

The root holds the cache registry, ``errors`` and ``apply_phi``; every
other name is imported from its module."""

from .caches import clear_caches, cache_info
from . import errors
from .mvring import apply_phi  # bench/tests checks its tracer wraps this copy

__all__ = ["errors", "clear_caches", "cache_info", "apply_phi"]
