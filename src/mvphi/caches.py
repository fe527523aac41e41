"""One registry for the tables the kernel builds once and then reuses.

Fields, rings, generator series, substitution images and the embedding's
fixpoint are each built by a function decorated with ``cached``.
``clear_caches`` empties every one of them (test isolation, cold-start
measurements); ``cache_info`` reports hits, misses, size and bound per
table.
"""

from __future__ import annotations

import functools

_REGISTRY: dict = {}


def cached(fn=None, *, maxsize=None):
    """``functools.cache`` on fn, registered as ``<module>.<name>``.

    ``@cached(maxsize=n)`` keeps only the n most recently used entries.
    """
    if fn is None:
        return functools.partial(cached, maxsize=maxsize)
    memo = functools.lru_cache(maxsize=maxsize)(fn)
    _REGISTRY[f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"] = memo
    return memo


def clear_caches() -> None:
    """Drop every cached table; the next use rebuilds it."""
    for memo in _REGISTRY.values():
        memo.cache_clear()


def cache_info() -> dict:
    """Registered name -> ``functools`` cache statistics (hits, misses,
    maxsize, currsize)."""
    return {name: memo.cache_info() for name, memo in sorted(_REGISTRY.items())}
