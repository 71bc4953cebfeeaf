"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Two traced runs per workload with the same seed and a fixed instance
   count must agree on the instance manifest, the digest of the exact
   answers and every work counter, with no failed instance.
2. The metric names each mode prints must be exactly those that
   BENCHMARK.json lists.
3. Pinned counter: on a 10x10 grid carrying a weight-2 line, one
   ``strong_excess`` call makes one forced ``augment`` probe per
   admissible cell, 100 in all.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 3
COUNT = 12


def _run(workload, trace):
    env = dict(os.environ)
    env.pop("PERIVAR_EXHAUSTIVE_CAP", None)
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--count", str(COUNT)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digests = re.findall(r"(\w*digest) (\w+)", proc.stdout)
    return json.loads(lines[-1]), digests


def _counters(result):
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] == "count"}


def main():
    problems = []
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}

    for w in (w["name"] for w in spec["workloads"]):
        first, d1 = _run(w, 1)
        second, d2 = _run(w, 1)
        plain, _ = _run(w, 0)
        if d1 != d2:
            problems.append(f"{w}: digests differ between runs: {d1} vs {d2}")
        if _counters(first) != _counters(second):
            problems.append(f"{w}: work counters differ between runs")
        for r in (first, second, plain):
            if not r["correct"] or r["failed"]:
                problems.append(f"{w}: {r['failed']} of {r['attempted']} instances failed")
        if set(first["metrics"]) != per_layer:
            problems.append(f"{w}: traced metrics differ from BENCHMARK.json per_layer: "
                            f"{sorted(set(first['metrics']) ^ per_layer)}")
        if set(plain["metrics"]) != end_to_end:
            problems.append(f"{w}: untraced metrics differ from BENCHMARK.json end_to_end: "
                            f"{sorted(set(plain['metrics']) ^ end_to_end)}")
        print(f"{w}: {dict(d1)} counters {len(_counters(first))}")

    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import perivar as pv
    from tracer import Tracer

    domain = pv.GridDomain((10, 10))
    mu = pv.hyperplane_measure(domain, 1, 5, 2)
    tracer = Tracer()
    tracer.install()
    try:
        value = pv.strong_excess(mu, 1, exhaustive_cap=22).value
    finally:
        tracer.uninstall()
    probes = tracer.metrics()["ic.forced_probes"][0]
    print(f"10x10 weight-2 line: excess {value}, forced probes {probes}")
    if value != -2 or probes != 100:
        problems.append(f"pinned counter: expected excess -2 and 100 probes, got {value}, {probes}")

    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
