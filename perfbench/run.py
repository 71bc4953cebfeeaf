"""perivar benchmark: seeded closed-loop workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload grid-cut --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout; the package is imported from
``src/``.  One client sends one instance at a time, each a single public
library call, and checks the answer by an independent route before the
next one starts (a closed loop, one thread).

``--trace 0`` runs whole passes over the workload's slots until
``--seconds`` have passed (and at least MIN_SAMPLES calls are timed) and
reports the end-to-end metrics over those passes, so every run measures
the same mix of instance sizes.  ``--trace 1`` takes the first
TRACE_PASSES passes and runs them untraced once, to warm caches and check
the answers; then it runs each instance again untraced and, right before or
after, under the outside tracer, so that drifts in machine speed hit both
sides of the tracing overhead alike.  It reports the per-layer metrics and that
overhead; the traced set is fixed, so its counters repeat exactly for a
seed.  ``--count N`` replaces the passes with exactly N instances, for
quick checks.  ``--workload all`` runs every workload, each in a fresh
process, and prints their end-to-end metrics side by side.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("grid-cut", "ic-verify", "exact-search")

# The p90 needs at least ten samples beyond it.
MIN_SAMPLES = 100
# A timed run stops here even in the middle of a pass.
HARD_STOP_S = 120.0
# Package import and input generation are each repeated this many times;
# setup_s adds their medians.
SETUP_REPEATS = 3
TRACE_PASSES = 2


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--count", type=int, default=None,
                    help="run exactly this many instances instead of whole passes")
    return ap.parse_args(argv)


def _import_library():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import perivar
        import workloads
    except ImportError as exc:
        print(f"cannot import the perivar package from {ROOT}/src: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(perivar.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"perivar was imported from {perivar.__file__}, not from {ROOT}/src", file=sys.stderr)
        sys.exit(2)
    return workloads


def _digest(parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


class Stream:
    """Instance i of a run: pass (i // pass size) mod PASSES, each pass
    generated on first use, outside the timed calls."""

    def __init__(self, workloads, workload, seed, first_pass):
        self.generate = lambda p: workloads.generate(workload, seed, p)
        self.passes = {0: first_pass}
        self.size = len(first_pass)
        self.count = workloads.PASSES[workload]

    def __getitem__(self, i):
        p = (i // self.size) % self.count
        if p not in self.passes:
            self.passes[p] = self.generate(p)
        return self.passes[p][i % self.size]


class Loop:
    """Closed loop over the instance stream; checks are timed apart."""

    def __init__(self, workloads, stream):
        self.workloads = workloads
        self.stream = stream
        self.labels = []
        self.latencies = []
        self.answers = []
        self.failed = 0
        self.inexact = 0
        self.check_s = 0.0

    def run_one(self, i, tracer=None):
        inst = self.stream[i]
        self.labels.append(inst.label)
        if tracer is not None:
            tracer.instance = i
        clock = time.perf_counter
        try:
            t0 = clock()
            result = inst.call()
            t1 = clock()
        except Exception as exc:  # a raising instance is a failure, not an abort
            self.failed += 1
            self.answers.append(f"raised {type(exc).__name__}")
            print(f"FAILED {inst.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return
        self.latencies.append(t1 - t0)
        if tracer is not None:
            tracer.paused = True
        try:
            answer, inexact = inst.check(result)
        except self.workloads.CheckFailed as exc:
            self.failed += 1
            self.answers.append("check failed")
            print(f"FAILED {inst.label}: {exc}", file=sys.stderr)
        else:
            self.inexact += inexact
            self.answers.append(answer)
        finally:
            if tracer is not None:
                tracer.paused = False
        self.check_s += clock() - t1

    def run(self, count):
        for i in range(count):
            self.run_one(i)
        return count

    def run_passes(self, seconds):
        """Whole passes until ``seconds`` have passed and MIN_SAMPLES calls
        are timed; only HARD_STOP_S cuts a pass short."""
        start = time.perf_counter()
        size = self.stream.size
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= HARD_STOP_S:
                break
            if i % size == 0 and elapsed >= seconds and len(self.latencies) >= MIN_SAMPLES:
                break
            self.run_one(i)
            i += 1
        return i


_IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import perivar; print(time.perf_counter() - t)"
)


def _import_s():
    """Median time to import the package in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, os.path.join(ROOT, "src")],
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def _setup(workloads, workload, seed):
    """Returns the instance stream and the set-up time: the median package
    import plus the median time to generate the first pass."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        first = workloads.generate(workload, seed, 0)
        times.append(time.perf_counter() - t0)
    return Stream(workloads, workload, seed, first), _import_s() + statistics.median(times)


def _end_to_end(loop, setup_s):
    lat = sorted(loop.latencies)
    n = len(lat)
    return {
        "ops_per_s": (n / sum(lat) if n else 0.0, "1/s"),
        "latency_p50_s": (statistics.median(lat) if n else float("nan"), "s"),
        "latency_p90_s": (lat[max(0, math.ceil(0.9 * n) - 1)] if n else float("nan"), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _fractions(loop, attempted):
    return {
        "failed_frac": (loop.failed / attempted, "ratio"),
        "inexact_frac": (loop.inexact / attempted, "ratio"),
    }


def _print_metrics(metrics, notes=None):
    notes = notes or {}
    for name, (value, unit) in metrics.items():
        note = f"  # {notes[name]}" if name in notes else ""
        print(f"{name:40s} {value:>16.6g} {unit}{note}")


def _layer_notes():
    """'moves ...; flat on ...' for each per-layer metric, from map.json."""
    with open(os.path.join(HERE, "map.json")) as fh:
        layers = json.load(fh)["layers"]
    notes = {}
    for name, entry in layers.items():
        text = "moves " + ", ".join(entry["moves"]) if entry["moves"] else "no end-to-end target"
        if entry["flat"]:
            text += "; flat on " + ", ".join(entry["flat"])
        notes[name] = text
    return notes


def _untraced(workloads, stream, args, setup_s):
    loop = Loop(workloads, stream)
    attempted = loop.run(args.count) if args.count else loop.run_passes(args.seconds)
    n = len(loop.latencies)
    print(f"workload {args.workload}  seed {args.seed}  instances {attempted}  "
          f"samples {n}  beyond p90 {n - math.ceil(0.9 * n)}")
    print(f"manifest_digest {_digest(loop.labels)}  answers_digest {_digest(loop.answers)}")
    metrics = _end_to_end(loop, setup_s)
    _print_metrics({**metrics, **_fractions(loop, attempted), "check_s": (loop.check_s, "s")})
    return metrics, attempted, loop.failed


def _traced(workloads, stream, args):
    from tracer import Tracer

    count = args.count or TRACE_PASSES * stream.size
    warm = Loop(workloads, stream)
    warm.run(count)
    base = Loop(workloads, stream)
    replay = Loop(workloads, stream)
    tracer = Tracer()
    for i in range(count):
        if i % 2:  # alternate which side runs first: the second call finds warm CPU caches
            base.run_one(i)
        tracer.install()
        try:
            replay.run_one(i, tracer)
        finally:
            tracer.uninstall()
        if not i % 2:
            base.run_one(i)
    print(f"workload {args.workload}  seed {args.seed}  traced instances {count}")
    print(f"manifest_digest {_digest(warm.labels)}  answers_digest {_digest(warm.answers)}  "
          f"traced_answers_digest {_digest(replay.answers)}")
    base_s, traced_s = sum(base.latencies), sum(replay.latencies)
    metrics = tracer.metrics()
    metrics.update(_fractions(warm, count))
    metrics["check_s"] = (warm.check_s, "s")
    metrics["trace.instances"] = (count, "count")
    metrics["trace_overhead_frac"] = (traced_s / base_s - 1 if base_s else 0.0, "ratio")
    _print_metrics(metrics, _layer_notes())
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.tsv"))
    return metrics, 3 * count, warm.failed + base.failed + replay.failed


def run_workload(args):
    os.environ.pop("PERIVAR_EXHAUSTIVE_CAP", None)
    workloads = _import_library()
    stream, setup_s = _setup(workloads, args.workload, args.seed)
    if args.trace:
        metrics, attempted, failed = _traced(workloads, stream, args)
    else:
        metrics, attempted, failed = _untraced(workloads, stream, args, setup_s)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in a fresh process; prints one table of end-to-end metrics."""
    env = dict(os.environ)
    env.pop("PERIVAR_EXHAUSTIVE_CAP", None)
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.count:
            cmd += ["--count", str(args.count)]
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]) + "\n")
        rows[name] = json.loads(lines[-1])
    print(f"{'metric':16s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOAD_NAMES))
    for m, entry in rows[WORKLOAD_NAMES[0]]["metrics"].items():
        vals = "".join(f"{rows[w]['metrics'][m]['value']:>14.6g}" for w in WORKLOAD_NAMES)
        print(f"{m:16s} {entry['unit']:6s}{vals}")
    return 0 if all(r["correct"] for r in rows.values()) else 1


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
