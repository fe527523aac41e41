#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload decompose-f2 --seed 1 --seconds 10 --trace 0

Run from the repository root.  One client sends requests in a closed loop
from a single process.  Set-up is timed from ``import mvphi`` until every
table the workload's requests read has been built; the program keeps those
tables in module caches with no public clear, so each set-up sample is a
fresh interpreter.  Requests are then sent for ``--seconds`` and each
output is checked.  Times are scaled to a reference machine speed measured
next to them (see ``calib.py``); the raw values are printed as well.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics; with ``--trace 1`` it has the per-layer metrics of
a traced run instead.  The lines before it report the failure ratio, the
tail percentile used and a SHA-256 digest of the first outputs, compared
with the committed baseline.  The exit code is 0 only when every check
passed.  ``--smoke`` runs the same code paths on small parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calib  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

# Set-up is sampled in fresh interpreters (probes) and once in the run's
# own process, and the median is kept.  Probes run until they add up to
# SETUP_TOTAL_S raw seconds, at least one and at most SETUP_PROBES_MAX: a
# short set-up gets many samples, and the ~20 s decompose set-up gets two,
# so that every workload's runs fit the benchmark's time budget.
SETUP_TOTAL_S = 5.0
SETUP_PROBES_MAX = 10
DIGEST_REQUESTS = 32       # outputs covered by the determinism digest
CALIBRATE_EVERY_S = 0.02   # request time between two speed samples
PROBE_TIMEOUT_S = 170
BASELINE = os.path.join(HERE, "baseline.json")


def build_tables(name: str, smoke: bool, tracer=None):
    """Import mvphi and build the workload's tables.  Returns the raw
    seconds, the factor to reference seconds, the workload, its parameters
    and the tracer's undo list."""
    with calib.Sampler() as clock:
        import mvphi  # noqa: F401
        undo = spans.install(tracer) if tracer is not None else []
        import workloads
        wl = workloads.WORKLOADS[name]
        params = wl.make_params(smoke)
        wl.setup(params)
    return clock.raw, clock.factor, wl, params, undo


def probe_setup(name: str, smoke: bool) -> tuple:
    """One set-up sample in a fresh interpreter: (raw seconds, factor)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--setup-probe"] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          timeout=PROBE_TIMEOUT_S)
    got = json.loads(done.stdout.strip().splitlines()[-1])
    return got["setup_s"], got["scale"]


def probe_setups(name: str, smoke: bool) -> list:
    """The set-up samples other than the run's own."""
    got = [probe_setup(name, smoke)]
    while len(got) < SETUP_PROBES_MAX and \
            sum(s for s, _ in got) < SETUP_TOTAL_S:
        got.append(probe_setup(name, smoke))
    return got


def serve(wl, params, seed: int, seconds: float, tracer=None):
    """Send requests until ``seconds`` have passed, the digest prefix is
    complete and the stream's pattern has run whole cycles.  Returns raw
    latencies with their factors to reference seconds, the failure count,
    the tally and the digest."""
    from mvphi import serialize
    tally = Counter()
    latencies, blocks = [], []
    speed = [calib.sample()]
    failed = 0
    digest = hashlib.sha256()
    stream = wl.stream(params, seed)
    start = last = time.perf_counter()
    while True:
        req = next(stream)
        t0 = time.perf_counter()
        try:
            ok, out = wl.run(params, req, tally)
        except Exception:  # a raising request is a failed request
            if failed < 3:
                traceback.print_exc()
            ok, out = False, None
        t1 = time.perf_counter()
        latencies.append(t1 - t0)
        blocks.append(len(speed) - 1)
        if not ok:
            failed += 1
        if len(latencies) <= DIGEST_REQUESTS:
            if tracer is not None:
                tracer.active = False
            record = {"ok": ok, "out": None if out is None
                      else wl.encode(out)}
            digest.update(serialize.dumps(record).encode())
            if tracer is not None:
                tracer.active = True
        if t1 - last >= CALIBRATE_EVERY_S:
            speed.append(calib.sample())
            last = time.perf_counter()
        if t1 - start >= seconds and len(latencies) >= DIGEST_REQUESTS \
                and len(latencies) % wl.period == 0:
            break
    speed.append(calib.sample())
    factors = [calib.scale(speed[b], speed[b + 1]) for b in blocks]
    return latencies, factors, failed, tally, digest.hexdigest()


def baseline_digest(name: str, seed: int):
    try:
        with open(BASELINE) as fh:
            base = json.load(fh)
    except FileNotFoundError:
        return None
    return base.get("workloads", {}).get(name, {}).get("digests", {}) \
        .get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=metrics.WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small parameters; finishes in seconds")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_probe:
        secs, factor = build_tables(args.workload, args.smoke)[:2]
        print(json.dumps({"setup_s": secs, "scale": factor}))
        return 0

    tracer = spans.Tracer(calib.clock) if args.trace else None
    setups = [] if tracer else probe_setups(args.workload, args.smoke)
    secs, factor, wl, params, undo = build_tables(args.workload, args.smoke,
                                                  tracer)
    setups.append((secs, factor))
    setup_gamma_y = tracer.calls("iwasawa.gamma_y") if tracer else 0
    raw, factors, failed, tally, digest = serve(wl, params, args.seed,
                                                args.seconds, tracer)
    spans.uninstall(undo)
    scaled = [t * k for t, k in zip(raw, factors)]
    n = len(raw)
    pct, tail_s, beyond = stats.tail(scaled)
    setup_s = statistics.median(s * k for s, k in setups)
    correct = failed == 0

    if tracer:
        values = metrics.layer_values(tracer, tally, params.f,
                                      setup_gamma_y)
        values.update({"trace.setup_s": setup_s,
                       "trace.ops_per_s": n / sum(scaled),
                       "trace.setup_raw_s": secs,
                       "trace.request_raw_s": sum(raw)})
        catalogue = metrics.PER_LAYER
        missing = tracer.unreached(args.workload)
        if missing:
            correct = False
            print(f"# spans never reached: {', '.join(missing)}")
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": n / sum(scaled),
            "latency_p50_ms": 1000 * statistics.median(scaled),
            "latency_tail_ms": 1000 * tail_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        catalogue = metrics.END_TO_END

    print(f"# raw, unscaled: setup_s "
          f"{', '.join(f'{s:.3f}' for s, _ in setups)}; ops_per_s "
          f"{n / sum(raw):.4g}; latency_p50_ms "
          f"{1000 * statistics.median(raw):.4g}; mean speed factor "
          f"{statistics.mean(factors):.3f}")
    print(f"# {args.workload} seed {args.seed}: {n} requests, {failed} "
          f"failed, fail_ratio {failed / n:.4g}; latency_tail_ms is p{pct:g} "
          f"with {beyond} samples beyond it")
    if args.smoke:
        note = "smoke size, no baseline"
    else:
        base = baseline_digest(args.workload, args.seed)
        note = ("no baseline digest for this seed" if base is None else
                "matches baseline" if base == digest else
                f"DIFFERS from baseline {base}")
    print(f"# digest of the first {DIGEST_REQUESTS} outputs: sha256:{digest}"
          f" ({note})")
    print(json.dumps({
        "correct": correct, "attempted": n, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": m["unit"]}
                    for k, m in catalogue.items()},
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
