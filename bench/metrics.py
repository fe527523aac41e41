"""The benchmark's metric catalogue.

Names, units, directions and bounds are those of ``BENCHMARK.json`` at
the repository root; nothing here repeats them.  A per-layer metric named
``<span>.<stat>`` is that stat of a span in ``spans.TARGETS``; the others
are derived from several spans or the workload's tally (``derived``) or
are the traced run's own totals (``trace.*``, set by ``run.py``).
"""

from __future__ import annotations

import json
import os

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

_STAT_INDEX = {"calls": 0, "s": 1, "self_s": 2}   # in Tracer.stats
_SPANS = {name for _, _, name, _, _ in spans.TARGETS}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def derived(tracer, tally, f: int, setup_gamma_y: int) -> dict:
    """Per-layer metrics that no single span stat gives."""
    # a gamma table is f gamma_y calls; the pool's tables built during
    # set-up (setup_gamma_y calls) are not on the request path
    builds = (tracer.calls("iwasawa.gamma_y") - setup_gamma_y) / f
    return {
        "mvring.gamma_table.miss_ratio":
            _ratio(builds, tracer.calls("mvring.apply_gamma")),
        "embed.norm_compare.certified_ratio":
            _ratio(tally["norm_compare.certified"],
                   tally["norm_compare.checks"]),
    }


def layer_values(tracer, tally, f: int, setup_gamma_y: int) -> dict:
    """Every per-layer metric but the ``trace.*`` totals."""
    out = derived(tracer, tally, f, setup_gamma_y)
    for name in PER_LAYER:
        span, _, stat = name.rpartition(".")
        if span in _SPANS and stat in _STAT_INDEX:
            out[name] = tracer.stats.get(span, (0, 0.0, 0.0))[
                _STAT_INDEX[stat]]
    return out
