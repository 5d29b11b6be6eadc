#!/usr/bin/env python3
"""Build and run the ElasticRec benchmark, and compare result sets.

Run one workload (builds the harness first, once per checkout):

    python3 perfbench/run.py --workload serve_rm1 --seed 1 --seconds 30 --trace 0

The harness (perfbench/perfbench.cc) is compiled with CMake from the
repository's own sources into the build directory (CARGO_TARGET_DIR if
set, else .bench_build). The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
Each run also writes a record with the host fingerprint and every
detail to <build>/results/.

Compare two sets of records (directories of result JSONs); records
whose host fingerprints differ are refused:

    python3 perfbench/run.py compare BASE_DIR NEW_DIR

Check that the comparison catches a ~20% slowdown (a spin of 20% of
each serve() call on serve_rm1):

    python3 perfbench/run.py sensitivity --seeds 1,2,3,4,5
"""

import argparse
import fcntl
import glob
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_JSON = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170
HOST_KEYS = ("cpu_model", "llc_bytes", "nproc", "thp", "kernel_backend",
             "build_type")
PAIRED_THRESHOLD = 0.10


def fail(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def load_spec():
    if not os.path.isfile(BENCH_JSON):
        fail("BENCHMARK.json not found at the checkout root")
    with open(BENCH_JSON) as f:
        return json.load(f)


def build():
    """Configure and build the harness; serialised by a lock file."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    cmake_dir = os.path.join(out, "cmake")
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        steps = []
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
        steps.append(["cmake", "--build", cmake_dir, "--target",
                      "perfbench", "-j", jobs])
        with open(log_path, "w") as log:
            for cmd in steps:
                if subprocess.call(cmd, stdout=log,
                                   stderr=subprocess.STDOUT) != 0:
                    with open(log_path) as f:
                        sys.stderr.write(f.read()[-4000:])
                    fail("build failed (see %s)" % log_path)
    return os.path.join(cmake_dir, "perfbench")


def read_first(path, default="unknown"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def source_identity():
    """Git commit when available; the checkout may not be a repository,
    so a digest of the sources the harness builds is recorded too."""
    sha = "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True,
                             timeout=10).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == \
                os.path.realpath(ROOT):
            sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path):
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return sha, h.hexdigest()[:16]


def fingerprint(info, seed):
    cpu = "unknown"
    for line in read_first("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    thp = read_first("/sys/kernel/mm/transparent_hugepage/enabled")
    if "[" in thp:
        thp = thp.split("[", 1)[1].split("]", 1)[0]
    sha, src = source_identity()
    return {
        "cpu_model": cpu,
        "llc_bytes": info.get("llc_bytes", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "thp": thp,
        "kernel_backend": info.get("kernel_backend", "unknown"),
        "build_type": info.get("build_type", "unknown"),
        "git_sha": sha,
        "source_digest": src,
        "seed": seed,
        "machine": platform.machine(),
    }


def run_once(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload %r (have %s)" % (args.workload, names))
    binary = build()
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    if args.inject_delay_pct:
        stem += "-inj%g" % args.inject_delay_pct
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inject-delay-pct", str(args.inject_delay_pct)]
    if args.trace:
        cmd += ["--spans", os.path.join(results, stem + ".spans.csv")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness exceeded %d s" % RUN_TIMEOUT_S, 3)
    sys.stderr.write(proc.stderr)
    raw = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            raw = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or raw is None:
        fail("harness exited with %d and no result" % proc.returncode, 3)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics, correct = {}, raw["correct"]
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["value"] is None or \
                not math.isfinite(got["value"]):
            print("metric %s missing or not finite" % m["name"])
            correct = False
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    if not metrics:
        fail("harness reported none of the expected metrics", 3)

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "inject_delay_pct": args.inject_delay_pct,
        "fingerprint": fingerprint(raw["info"], args.seed),
        "correct": correct, "attempted": raw["attempted"],
        "failed": raw["failed"], "metrics": metrics,
        "info": raw["info"], "errors": raw["errors"],
    }
    out_dir = args.out or results
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, stem + ".json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print("fingerprint: " + json.dumps(record["fingerprint"], sort_keys=True))
    for name, m in metrics.items():
        n = raw["info"].get(name + ".n")
        print("%-32s %14.6g %-8s %s" % (name, m["value"], m["unit"],
                                        "n=" + n if n else ""))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))


def load_records(path):
    files = [path] if os.path.isfile(path) else \
        sorted(glob.glob(os.path.join(path, "*.json")))
    recs = []
    for p in files:
        with open(p) as f:
            r = json.load(f)
        if isinstance(r, dict) and "fingerprint" in r and r["trace"] == 0:
            recs.append(r)
    return recs


def spread(values):
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def compare(base_path, new_path, spec):
    """Compare two record sets per (workload, end-to-end metric). A
    metric regressed when its median is worse by more than the
    BENCHMARK.json bound, or when, over at least five seed-matched
    pairs, at least 80% of the pairs are worse and the median paired
    change is worse by more than PAIRED_THRESHOLD. Pairing cancels most
    of the host's drift, which is what lets a ~20% slowdown show under
    bounds that must cover that drift. Returns the number of
    regressions."""
    base, new = load_records(base_path), load_records(new_path)
    if not base or not new:
        fail("no end-to-end records to compare")
    host = {tuple(r["fingerprint"].get(k) for k in HOST_KEYS)
            for r in base + new}
    if len(host) != 1:
        fail("refusing to compare results from different hosts or "
             "builds: %s" % sorted(host), 4)
    regressions = 0
    print("%-10s %-13s %10s %10s %7s %7s %6s %7s %6s  verdict" %
          ("workload", "metric", "base", "new", "worse", "spread", "bound",
           "paired", "pairs"))
    for wl in sorted({r["workload"] for r in base}):
        b = {r["seed"]: r for r in base if r["workload"] == wl}
        n = {r["seed"]: r for r in new if r["workload"] == wl}
        if not n:
            continue
        if not all(r["correct"] for r in list(b.values()) + list(n.values())):
            print("%-10s some runs failed their output checks" % wl)
            regressions += 1
        for m in spec["end_to_end"]:
            name, lower = m["name"], m["better"] == "lower"

            def val(r):
                return r["metrics"].get(name, {}).get("value")
            bv = [val(r) for r in b.values() if val(r) is not None]
            nv = [val(r) for r in n.values() if val(r) is not None]
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            worse = (nm - bm) / bm if lower else (bm - nm) / bm
            pairs = [(val(b[s]), val(n[s])) for s in b if s in n
                     and val(b[s]) is not None and val(n[s]) is not None]
            changes = [(y - x) / x if lower else (x - y) / x
                       for x, y in pairs]
            worse_pairs = sum(1 for c in changes if c > 0)
            paired = statistics.median(changes) if changes else 0.0
            sp = spread(bv)
            if worse > m["bound"] or (
                    len(pairs) >= 5 and worse_pairs >= 0.8 * len(pairs)
                    and paired > PAIRED_THRESHOLD):
                verdict = "REGRESSION"
                regressions += 1
            elif sp == sp and sp > m["bound"]:
                verdict = "unresolved (base spread > bound)"
            elif worse < -m["bound"]:
                verdict = "better"
            else:
                verdict = "within bound"
            print("%-10s %-13s %10.5g %10.5g %+6.1f%% %6.1f%% %5.0f%% %+6.1f%% "
                  "%3d/%-2d %s"
                  % (wl, name, bm, nm, 100 * worse, 100 * sp,
                     100 * m["bound"], 100 * paired, worse_pairs, len(pairs),
                     verdict))
    print("%d regression(s)" % regressions)
    return regressions


def sensitivity(seeds, spec, seconds):
    """serve_rm1 with and without a delay of 20% of each serve() call,
    alternating which runs first per seed; the comparison must flag
    the delayed set."""
    root = os.path.join(build_dir(), "sensitivity")
    for i, s in enumerate(seeds):
        order = (("base", 0.0), ("delay20", 20.0))
        for label, pct in order if i % 2 == 0 else order[::-1]:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   "serve_rm1", "--seed", str(s), "--seconds", str(seconds),
                   "--trace", "0", "--inject-delay-pct", str(pct),
                   "--out", os.path.join(root, label)]
            if subprocess.call(cmd, stdout=subprocess.DEVNULL) != 0:
                fail("sensitivity run failed: " + " ".join(cmd), 3)
    flagged = compare(os.path.join(root, "base"),
                      os.path.join(root, "delay20"), spec)
    print("sensitivity: the injected 20%% delay was %s" %
          ("flagged" if flagged else "NOT flagged"))
    return 0 if flagged else 1


def main():
    spec = load_spec()
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        if len(sys.argv) != 4:
            fail("usage: run.py compare BASE NEW")
        sys.exit(1 if compare(sys.argv[2], sys.argv[3], spec) else 0)
    if len(sys.argv) > 1 and sys.argv[1] == "sensitivity":
        p = argparse.ArgumentParser(prog="run.py sensitivity")
        p.add_argument("--seeds", default="1,2,3,4,5")
        p.add_argument("--seconds", type=int, default=spec["run_seconds"])
        a = p.parse_args(sys.argv[2:])
        sys.exit(sensitivity([int(s) for s in a.seeds.split(",")], spec,
                             a.seconds))
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-delay-pct", type=float, default=0.0)
    p.add_argument("--out", help="directory for the result record")
    run_once(p.parse_args(), spec)


if __name__ == "__main__":
    main()
