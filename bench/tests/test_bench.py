"""Tests of the benchmark itself: span arithmetic, tail selection, the
metric catalogue, the tracer's reach, and a smoke run of every workload.

    python3 -m pytest -q bench/tests
"""

import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from itertools import islice

import pytest

import calib
import gen
import metrics
import spans
import stats
from metrics import WORKLOAD_NAMES

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = metrics.ROOT
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def test_self_time_on_a_span_tree():
    # root(10) -> a(6) -> leaf(2), b(1); root's own work is 3
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def leaf():
        clock.tick(2)

    def a():
        clock.tick(1)
        leaf()
        clock.tick(3)

    def b():
        clock.tick(1)

    leaf, a, b = (tr.wrap(n, fn) for n, fn in
                  (("leaf", leaf), ("a", a), ("b", b)))

    def root():
        clock.tick(2)
        a()
        b()
        clock.tick(1)

    tr.wrap("root", root)()
    assert {n: tuple(v) for n, v in tr.stats.items()} == {
        "leaf": (1, 2.0, 2.0), "a": (1, 6.0, 4.0), "b": (1, 1.0, 1.0),
        "root": (1, 10.0, 3.0)}


def test_recursive_span_counts_outermost_inclusive_time():
    clock = FakeClock()
    tr = spans.Tracer(clock)

    def rec(n):
        clock.tick(1)
        if n:
            rec(n - 1)

    rec = tr.wrap("rec", rec)
    rec(3)
    calls, inclusive, own = tr.stats["rec"]
    assert (calls, inclusive, own) == (4, 4.0, 4.0)


def test_counted_spans_fold_into_parent_self_time_and_pause():
    clock = FakeClock()
    tr = spans.Tracer(clock)
    kernel = tr.wrap("kernel", lambda: clock.tick(5), spans.COUNTED)
    outer = tr.wrap("outer", lambda: kernel())
    outer()
    assert tr.calls("kernel") == 1
    assert tr.stats["outer"][2] == 5.0
    tr.active = False
    outer()
    assert tr.calls("kernel") == 1 and tr.calls("outer") == 1


def test_sampler_leaves_its_own_time_out():
    with calib.Sampler(every=0.01) as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) > 3
    assert 0 < sampler.raw < 0.2 and sampler.factor > 0


@pytest.mark.parametrize("n, pct, beyond", [
    (5000, 99.0, 50), (1000, 99.0, 10), (999, 98900 / 999, 10),
    (100, 90.0, 10), (20, 50.0, 10), (15, 800 / 15, 7)])
def test_tail_is_highest_percentile_with_ten_beyond(n, pct, beyond):
    values = [float(v) for v in range(n, 0, -1)]
    got_pct, value, got_beyond = stats.tail(values)
    assert got_pct == pytest.approx(pct) and got_beyond == beyond
    assert sum(v > value for v in values) == beyond


def test_summary_quartiles():
    s = stats.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["median"], s["q1"], s["q3"]) == (3.0, 1.5, 4.5)
    assert s["spread"] == pytest.approx(1.0)


def test_benchmark_json_names_and_units():
    spec = metrics.SPEC
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT_RE.fullmatch(m["unit"]), m
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"]
    for w in spec["workloads"]:
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_every_per_layer_metric_has_a_source():
    import workloads
    assert set(workloads.WORKLOADS) == set(WORKLOAD_NAMES)
    assert {w for *_, on in spans.TARGETS for w in on} <= \
        set(WORKLOAD_NAMES)
    tr = spans.Tracer()
    for _, _, name, kind, _ in spans.TARGETS:
        tr.wrap(name, lambda: None, kind)
    got = set(metrics.layer_values(tr, Counter(), 2, 0))
    totals = {n for n in metrics.PER_LAYER if n.startswith("trace.")}
    assert got | totals == set(metrics.PER_LAYER)


def test_gamma_miss_ratio_leaves_out_setup_builds():
    tr = spans.Tracer()
    gamma_y = tr.wrap("iwasawa.gamma_y", lambda: None)
    apply_gamma = tr.wrap("mvring.apply_gamma", lambda: None)
    for _ in range(6):          # three pool tables at f = 2
        gamma_y()
    setup = tr.calls("iwasawa.gamma_y")
    for i in range(64):
        apply_gamma()
        if i % 32 == 0:         # a new unit: one table of f calls
            gamma_y()
            gamma_y()
    got = metrics.derived(tr, Counter(), 2, setup)
    assert got["mvring.gamma_table.miss_ratio"] == 2 / 64


def test_install_reaches_copies_and_uninstall_restores():
    import mvphi
    from mvphi import cli, embed, mvring, suites
    original = mvring.apply_phi
    tr = spans.Tracer()
    undo = spans.install(tr)
    try:
        assert mvring.apply_phi is not original
        for holder in (embed, suites, mvphi):
            assert holder.apply_phi is mvring.apply_phi
        assert cli.phi_decompose is mvring.phi_decompose
        assert mvring.MvLaurent.__mul__.__wrapped__ is not None
    finally:
        spans.uninstall(undo)
    assert mvring.apply_phi is original and embed.apply_phi is original
    assert not hasattr(mvring.MvLaurent.__mul__, "__wrapped__")


def test_generators_are_seeded():
    def draw(seed):
        rng = gen.Rng(seed)
        return [gen.mixed_sign(rng, 3, 2, 2, 3, anchor=-1),
                gen.pure_cone(rng, 5, 2, 2, 3),
                gen.iota_sample(rng, 3, 2, 2, 3),
                gen.unit_coords(rng, 3, 2, 3),
                gen.diagonal_phimod(rng, 3, 2)]
    assert draw(7) == draw(7)
    assert draw(7) != draw(8)
    assert gen.Rng(1).next64() == 0x910A2DEC89025CC1


def test_streams_repeat_per_seed():
    import workloads
    for wl in workloads.WORKLOADS.values():
        for smoke in (True, False):
            params = wl.make_params(smoke)
            first = list(islice(wl.stream(params, 3), 40))
            assert first == list(islice(wl.stream(params, 3), 40))
            assert first != list(islice(wl.stream(params, 4), 40))
            assert len(workloads._element_shapes(params)) == \
                workloads.SHAPES


def _smoke(workload, traced):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
           workload, "--seed", "2", "--seconds", "1", "--trace",
           str(int(traced)), "--smoke"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    digest = next(line for line in lines if "sha256:" in line)
    return json.loads(lines[-1]), digest.split("sha256:")[1].split()[0]


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run(workload):
    plain, plain_digest = _smoke(workload, False)
    traced, traced_digest = _smoke(workload, True)
    assert plain_digest == traced_digest
    for result, catalogue in ((plain, metrics.END_TO_END),
                              (traced, metrics.PER_LAYER)):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == list(catalogue)
    for name in metrics.END_TO_END:
        assert plain["metrics"][name]["value"] > 0
