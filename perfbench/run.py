#!/usr/bin/env python3
"""Benchmark driver for ftb.

Builds the ftbbench program in this directory, repeats one workload in
fresh processes for a fixed time, checks every repetition's outputs and
prints the metrics named in BENCHMARK.json as one JSON object on the
last line of standard output:

    python3 perfbench/run.py --workload infer-paper --seed 1 --seconds 30 --trace 0

With --trace 0 it reports the end-to-end metrics, medians over the
untraced repetitions. With --trace 1 it alternates untraced and traced
repetitions and reports the per-layer metrics, medians over the traced
ones, plus the tracing overhead between the two. --scale test shrinks
every input for the smoke tests. Everything it builds or writes stays
under .bench_build/ at the root of the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ftbbench")

# A run must end within 180 s. No repetition starts that would end past
# this many seconds of repetitions, whatever the run still lacks, and a
# repetition still running then is killed as hung.
RUN_LIMIT_S = 165

# No median is a single sample: a run makes at least this many
# repetitions, even when they take longer than --seconds.
MIN_REPS = 2

# Set-up takes milliseconds, so one sample per repetition makes a noisy
# median: an untraced run also starts this many set-up-only processes.
SETUP_SAMPLES = 9

# Per-layer metric computed here from both kinds of repetition rather
# than by ftbbench.
OVERHEAD = "obs.overhead_pct"


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)


def go_env():
    """The go command's environment: every cache and temporary file in
    .bench_build, no toolchain or module download."""
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    if shutil.which("go") is None:
        fail("the go toolchain is not on PATH")
    try:
        proc = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=go_env(), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True, timeout=800,
        )
    except subprocess.TimeoutExpired:
        fail("go build timed out")
    if proc.returncode != 0:
        fail("go build failed:\n" + proc.stdout)


def source_revision():
    """The git commit when the checkout is a repository, and a digest of
    every Go source and module file either way."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum", "reference.json"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    rev = "src:" + h.hexdigest()[:16]
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, text=True, timeout=30,
            ).stdout.strip()
            if head:
                rev = "git:%s,%s" % (head, rev)
        except (OSError, subprocess.TimeoutExpired):
            pass
    return rev


def run_rep(args, index, traced, revision, timeout, setup_only=False):
    """One repetition in a fresh process with a fresh store directory.
    Returns its result, or None when the process failed."""
    scratch = os.path.join(BUILD, "scratch", "%d-%s" % (os.getpid(), index))
    shutil.rmtree(scratch, ignore_errors=True)
    cmd = [
        BINARY, "-workload", args.workload, "-seed", str(args.seed),
        "-trace", "1" if traced else "0", "-scale", args.scale,
        "-scratch", scratch, "-commit", revision,
    ]
    if setup_only:
        cmd.append("-setup-only")
    cmd.append("-t0")
    try:
        cmd.append(str(time.time_ns()))
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("run.py: repetition %d timed out" % index, file=sys.stderr)
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("run.py: repetition %d exited with %d" % (index, proc.returncode), file=sys.stderr)
        return None
    return json.loads(lines[-1])


def setup_samples(args, revision):
    """Set-up times of SETUP_SAMPLES set-up-only processes, or None when
    one failed."""
    samples = []
    for i in range(SETUP_SAMPLES):
        rep = run_rep(args, "setup%d" % i, False, revision, 30, setup_only=True)
        if rep is None:
            return None
        samples.append(rep["setup_s"])
    return samples


def run_reps(args, revision):
    """Repeats the workload until --seconds is used up, with at least
    MIN_REPS repetitions. A traced run alternates untraced and traced
    repetitions, so it has at least one of each."""
    start = time.monotonic()
    reps, durations = [], {False: [], True: []}
    index = 0
    while True:
        traced = args.trace == 1 and index % 2 == 1
        t = time.monotonic()
        rep = run_rep(args, index, traced, revision, max(1, start + RUN_LIMIT_S - t))
        durations[traced].append(time.monotonic() - t)
        index += 1
        if rep is None:
            return reps, False
        reps.append(rep)
        print(json.dumps(rep))
        elapsed = time.monotonic() - start
        nxt = args.trace == 1 and index % 2 == 1
        est = statistics.median(durations[nxt] or durations[not nxt])
        if elapsed + est > RUN_LIMIT_S:
            break
        if len(reps) >= MIN_REPS and elapsed + est > args.seconds:
            break
    return reps, True


def median_of(values):
    return statistics.median(values) if values else float("nan")


def aggregate(spec, args, reps, setups):
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    metrics = {}
    if args.trace == 0:
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in untraced]
            if m["name"] == "setup_s":
                values += setups
            metrics[m["name"]] = {"value": median_of(values), "unit": m["unit"]}
        return metrics
    wanted = {m["name"] for m in spec["per_layer"]} - {OVERHEAD}
    for r in traced:
        got = set(r["layers"])
        if got != wanted:
            fail("per-layer metrics of ftbbench and BENCHMARK.json differ: only in ftbbench %s, only in BENCHMARK.json %s"
                 % (sorted(got - wanted), sorted(wanted - got)))
    for m in spec["per_layer"]:
        if m["name"] == OVERHEAD:
            value = 100 * (median_of([r["wall_s"] for r in traced]) / median_of([r["wall_s"] for r in untraced]) - 1)
        else:
            value = median_of([r["layers"][m["name"]] for r in traced])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "test"), default="full")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)
    build()
    revision = source_revision()
    setups = []
    if args.trace == 0:
        setups = setup_samples(args, revision)
        if setups is None:
            fail("a set-up-only process failed")
    reps, completed = run_reps(args, revision)
    if not reps:
        fail("no repetition completed")
    metrics = aggregate(spec, args, reps, setups)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if not completed:
        # The repetition that died counts as one failed operation.
        attempted, failed = attempted + 1, failed + 1
    for r in reps:
        for f in r.get("failures") or []:
            print("run.py: failed: " + f, file=sys.stderr)
    missing = sorted(n for n, m in metrics.items() if not math.isfinite(m["value"]))
    if missing:
        fail("no repetition measured %s" % ", ".join(missing))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
