#!/usr/bin/env python3
"""Perf benchmark entry point.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

It builds perfbench/ (a CMake package that compiles ../src) into the
build directory, runs one workload in one process of the benchmark binary,
checks the outputs, and prints one JSON object as the last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of
BENCHMARK.json, with --trace 1 its per_layer metrics. The full record
(provenance manifest, sample counts, span table) and, for traced runs,
a Chrome trace are written under <build dir>/runs/.

--tiny runs every workload at toy size (for perfbench/selfcheck.py);
tiny records skip the digest comparison.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BINARY_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build directory for every
    # language; honour it so all build output lands in one place.
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"


def build(out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    log_path = out_dir / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (out_dir / "Makefile").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                          "-G", "Unix Makefiles", "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out_dir), "-j", "4",
                      "--target", "pgcn_perfbench"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log_path})")
    binary = out_dir / "pgcn_perfbench"
    if not binary.exists():
        fail("build produced no binary")
    return binary


def expected_metrics(spec, trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    spec_path = Path("BENCHMARK.json")
    if not spec_path.exists():
        fail("run from the checkout root (BENCHMARK.json not found)")
    spec = json.loads(spec_path.read_text())
    catalog = json.loads((BENCH_DIR / "workloads.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    out_dir = build_dir()
    binary = build(out_dir)
    runs = out_dir / "runs"
    runs.mkdir(exist_ok=True)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(runs)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {BINARY_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with {proc.returncode}")
    record = json.loads(lines[-1])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (runs / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    if not record["valid"]:
        fail("the binary was built without NDEBUG or with a sanitizer; "
             "its timings are not valid")

    # The record also carries the end-to-end metrics of a traced run;
    # the result line holds exactly the set BENCHMARK.json names.
    want = expected_metrics(spec, args.trace)
    got = {k: v["unit"] for k, v in record["metrics"].items()}
    missing = sorted(set(want) - set(got))
    units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
    if missing or units:
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
             f"unit mismatch {units}")

    attempted = record["attempted"]
    failed = record["failed"]
    # Golden digests are recorded for one seed at full size: each
    # comparison is one more checked operation.
    entry = next(w for w in catalog["workloads"] if w["name"] == args.workload)
    if not args.tiny and args.seed == catalog["recorded_seed"]:
        for name, digest in entry["digests"].items():
            attempted += 1
            if record["digests"].get(name) != digest:
                failed += 1
                print(f"perfbench: digest {name} is "
                      f"{record['digests'].get(name)}, recorded {digest}",
                      file=sys.stderr)
    for message in record["failures"]:
        print(f"perfbench: failed operation: {message}", file=sys.stderr)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: record["metrics"][k] for k in want},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
