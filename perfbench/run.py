#!/usr/bin/env python3
"""End-to-end benchmark of the incast simulator (see perfbench/README.md).

Run one workload:

    python3 perfbench/run.py --workload scaling_fanin --seed 1 --seconds 10 --trace 0

builds perfbench/ (which compiles ../src) as a Release build under
.bench_build/perfbench, runs the driver binary, checks every simulation
point against the fingerprints recorded for the seed in
perfbench/fingerprints.json (or, for an unrecorded seed, against the run's
own first iteration), and prints the metrics. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}. The full
record, with the run context, lands in .bench_build/results/. The exit code
is 0 only when every point and check passed.

Compare two sets of full records:

    python3 perfbench/run.py compare --base A1.json A2.json --head B1.json B2.json

refuses records whose build contexts differ or that are not Release builds.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "incast_perfbench")
CHECK_TRACE = os.path.join(ROOT, "tools", "check_trace.py")

# Context fields that must match before two results may be compared. The
# commit and source digest are recorded too, but they are what a comparison
# compares, so they may differ.
CONTEXT_KEYS = ("nproc", "compiler", "compiler_version", "flags", "build_type")


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"simulator sources not found under {ROOT}/src")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "incast_perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")


def run_context(binary_context):
    context = dict(binary_context)
    context["nproc"] = os.cpu_count()
    context["git_commit"] = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30)
            if commit.returncode == 0:
                context["git_commit"] = commit.stdout.strip()
        except OSError:
            pass
    # The driver may run outside a git checkout; the digest still names the code.
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    context["source_sha256"] = digest.hexdigest()
    return context


def check_points(raw, recorded):
    """Returns (attempted, failures): every point of every timed iteration,
    checked for its own failure reason and against the reference fingerprints
    (the recorded ones, else the first iteration's)."""
    reference = recorded if recorded is not None else raw["iterations"][0]["points"]
    attempted = 0
    failures = []
    for i, it in enumerate(raw["iterations"]):
        if len(it["points"]) != len(reference):
            failures.append(f"iteration {i}: {len(it['points'])} points, "
                            f"expected {len(reference)}")
        for p, fp in enumerate(it["points"]):
            attempted += 1
            reason = it["failures"][p]
            if not reason and (p >= len(reference) or fp != reference[p]):
                reason = "output fingerprint differs from " + (
                    "the recorded one" if recorded is not None else "the first iteration's")
            if reason:
                failures.append(f"iteration {i} point {p}: {reason}")
    return attempted, failures


def check_spans(trace_path):
    """Every span lies inside its parent; returns a list of problems."""
    spans = {}
    for ev in load_json(trace_path)["traceEvents"]:
        if ev["ph"] in ("B", "E"):
            span = spans.setdefault(ev["args"]["span"], {"parent": ev["args"]["parent"]})
            span[ev["ph"]] = ev["ts"]
    problems = []
    for index, span in spans.items():
        if "B" not in span or "E" not in span or span["E"] < span["B"]:
            problems.append(f"span {index} is not closed in order")
            continue
        parent = spans.get(span["parent"])
        if span["parent"] >= 0 and (parent is None or span["B"] < parent["B"]
                                    or span["E"] > parent["E"]):
            problems.append(f"span {index} escapes its parent {span['parent']}")
    return problems


def quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def measure(args, bench):
    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS_DIR]
    try:
        # The build is done; the run itself must end within the 180 s a
        # benchmark run is allowed.
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("driver did not finish within 170 s", 1)
    if done.returncode != 0 or not done.stdout.strip():
        fail(f"driver exited with {done.returncode}", 1)
    raw = json.loads(done.stdout.strip().splitlines()[-1])

    recorded = load_json(os.path.join(HERE, "fingerprints.json")) \
        .get(args.workload, {}).get(str(args.seed))
    attempted, failures = check_points(raw, recorded)
    # Cross-checks beyond the per-point ones fail the run as a whole.
    failures += raw["check_failures"]

    prefix = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}")
    walls = raw["wall_s"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "context": run_context(raw["context"]),
        "fingerprints": "recorded" if recorded is not None else "self-consistent",
        "points": raw["iterations"][0]["points"],
        "wall_s_samples": walls,
        "wall_s_quartiles": quartiles(walls),
        "setup_s_samples": len(raw["setup_s"]),
    }
    if args.trace:
        layers = raw["layers"]
        wanted = [m["name"] for m in bench["per_layer"]]
        unknown = sorted(set(layers) - set(wanted))
        if unknown:
            fail(f"driver reported metrics missing from BENCHMARK.json: {unknown}")
        # A layer the workload never exercises did no work in it: it reads 0
        # and is listed, so a reader can tell it from a measured zero.
        record["not_applicable"] = [n for n in wanted if n not in layers]
        values = {n: layers.get(n, 0.0) for n in wanted}
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        trace_ok = subprocess.run([sys.executable, CHECK_TRACE, prefix + ".trace.json"],
                                  stdout=sys.stderr, stderr=sys.stderr).returncode == 0
        if not trace_ok:
            failures.append("trace JSON fails tools/check_trace.py")
        failures += check_spans(prefix + ".trace.json")
        record["trace_file"] = prefix + ".trace.json"
        record["metrics_file"] = prefix + ".metrics.json"
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(raw["setup_s"]),
            "peak_rss_mib": raw["peak_rss_mib"],
        }
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        missing = sorted(set(units) - set(values))
        if missing:
            fail(f"BENCHMARK.json names end-to-end metrics the driver lacks: {missing}")

    failed = len(failures)
    record.update({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": failures,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    })
    with open(f"{prefix}-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    return record


def cmd_run(argv):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    record = measure(args, bench)
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    q1, q2, q3 = record["wall_s_quartiles"]
    print(f"{args.workload} seed {args.seed}: {len(record['wall_s_samples'])} timed "
          f"run(s), wall_s quartiles {q1:.4f} / {q2:.4f} / {q3:.4f}; "
          f"failed_frac {record['failed_frac']:.4f} "
          f"({record['failed']} of {record['attempted']})")
    for name, m in record["metrics"].items():
        note = " (not exercised by this workload)" \
            if name in record.get("not_applicable", ()) else ""
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}{note}")
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def cmd_compare(argv):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    parser = argparse.ArgumentParser(description="Compare two sets of full records.")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    sides = {"base": [load_json(p) for p in args.base],
             "head": [load_json(p) for p in args.head]}
    contexts = {json.dumps({k: r["context"].get(k) for k in CONTEXT_KEYS}, sort_keys=True)
                for records in sides.values() for r in records}
    if len(contexts) != 1:
        fail("results come from different build contexts:\n  " + "\n  ".join(sorted(contexts)))
    context = json.loads(contexts.pop())
    if context["build_type"] != "Release":
        fail(f"refusing to compare a {context['build_type']!r} build; use Release")
    if any(r["trace"] for records in sides.values() for r in records):
        fail("compare end-to-end records (--trace 0), not traced ones")

    regressed = False
    workloads = sorted({r["workload"] for records in sides.values() for r in records})
    for workload in workloads:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = {side: [r["metrics"][name]["value"] for r in records
                             if r["workload"] == workload]
                      for side, records in sides.items()}
            if not values["base"] or not values["head"]:
                fail(f"{workload}: no records on one side")
            base = statistics.median(values["base"])
            head = statistics.median(values["head"])
            worse = (head - base) / base if metric["better"] == "lower" else (base - head) / base
            q = quartiles(values["base"])
            spread = (q[2] - q[0]) / base
            if worse > metric["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif spread > metric["bound"]:
                verdict = "unresolved (base spread exceeds the bound)"
            else:
                verdict = "ok"
            print(f"{workload:20s} {name:14s} base {base:.6g} head {head:.6g} {metric['unit']}"
                  f" worse by {worse * 100:+.1f}% (bound {metric['bound'] * 100:.0f}%): "
                  f"{verdict}")
    return 1 if regressed else 0


def main(argv):
    if argv and argv[0] == "compare":
        return cmd_compare(argv[1:])
    return cmd_run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
