#!/usr/bin/env python3
"""Run every workload on ten seeds and record the baseline.

    python3 bench/baseline.py                        # bench/baseline.json
    python3 bench/baseline.py --out bench/baseline-2.json

Each seed runs once untraced for ``run_seconds`` of BENCHMARK.json; seed 1
also runs traced.  For every end-to-end metric the file keeps the values,
their median and quartiles (as ``statistics.quantiles(n=4)`` gives them)
and the quartile distance as a share of the median.  It also keeps the
tail percentile and sample counts of every run, the output digests per
seed, the traced run's per-layer metrics, the tracing overhead, the
machine and the line count of ``src/`` (informational, not gated).

The exit code is 0 when every spread is below a third of its metric's
bound, traced and untraced digests agree, and, if ``bench/baseline.json``
existed before the run, no median is worse than its median there by more
than the bound.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import stats  # noqa: E402
from run import BASELINE  # noqa: E402

BASELINE_NAME = os.path.relpath(BASELINE, ROOT)
SEEDS = 10

DIGEST_RE = re.compile(r"sha256:([0-9a-f]{64})")
TAIL_RE = re.compile(r"latency_tail_ms is p([0-9.]+) with (\d+) samples")


def run_once(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(traced))]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} failed")
    result = json.loads(lines[-1])
    text = "\n".join(lines[:-1])
    pct, beyond = TAIL_RE.search(text).groups()
    result["digest"] = DIGEST_RE.search(text).group(1)
    result["tail"] = {"percentile": float(pct), "beyond": int(beyond)}
    return result


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "mvphi",
                                              "*.py"))):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def measure(workload: str, seconds: int) -> dict:
    runs = []
    for seed in range(1, SEEDS + 1):
        runs.append(run_once(workload, seed, seconds, False))
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
            flush=True)
    traced = run_once(workload, 1, seconds, True)
    out = {"metrics": {}, "runs": [], "digests": {}}
    for name in metrics.END_TO_END:
        values = [r["metrics"][name]["value"] for r in runs]
        out["metrics"][name] = dict(stats.summary(values), values=values)
    for seed, r in enumerate(runs, 1):
        out["runs"].append({"seed": seed, "attempted": r["attempted"],
                            "failed": r["failed"], "tail": r["tail"]})
        out["digests"][str(seed)] = r["digest"]
    med = {k: v["median"] for k, v in out["metrics"].items()}
    layer = {k: v["value"] for k, v in traced["metrics"].items()}
    out["traced"] = {
        "seed": 1, "attempted": traced["attempted"],
        "digest_matches_untraced": traced["digest"] == runs[0]["digest"],
        "per_layer": layer,
        "overhead": {
            "setup_s": layer["trace.setup_s"] / med["setup_s"],
            "ops_per_s": layer["trace.ops_per_s"] / med["ops_per_s"]},
    }
    return out


def worse_share(name: str, median: float, before: float) -> float:
    """How much worse ``median`` is than ``before``, as a share of it."""
    change = (median - before) / before
    return change if metrics.END_TO_END[name]["better"] == "lower" \
        else -change


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=BASELINE)
    args = ap.parse_args(argv)
    try:
        with open(BASELINE) as fh:
            before = json.load(fh)["workloads"]
    except FileNotFoundError:
        before = {}
    seconds = metrics.SPEC["run_seconds"]
    result = {
        "machine": {"nproc": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "run_seconds": seconds,
        "src_lines": src_lines(),
        "workloads": {},
    }
    good = True
    for workload in metrics.WORKLOAD_NAMES:
        res = measure(workload, seconds)
        result["workloads"][workload] = res
        for name, m in res["metrics"].items():
            bound = metrics.END_TO_END[name]["bound"]
            line = (f"{workload:13s} {name:16s} median {m['median']:10.4g} "
                    f"spread {m['spread']:.3f} (bound {bound})")
            if m["spread"] >= bound / 3:
                good = False
                line += "  <-- spread above a third of the bound"
            old = before.get(workload, {}).get("metrics", {}).get(name)
            if old:
                worse = worse_share(name, m["median"], old["median"])
                line += f"; {worse:+.3f} worse than {BASELINE_NAME}"
                if worse > bound:
                    good = False
                    line += "  <-- beyond the bound"
            print(line)
        if not res["traced"]["digest_matches_untraced"]:
            good = False
            print(f"{workload}: traced digest differs from untraced")
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
