#!/usr/bin/env python3
"""Self-check of the perf benchmark.

Run from the checkout root:

    python3 perfbench/selfcheck.py

Checks BENCHMARK.json against its schema limits, then runs every
workload at toy size (--tiny), untraced and traced, with a seed other
than the recorded one, and asserts that each result line has exactly
the contract keys, that no operation failed, and that every printed
metric name and unit matches BENCHMARK.json. Exits non-zero on the
first problem.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SEED = 7


def check(cond, message):
    if not cond:
        print(f"selfcheck: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def check_spec(spec, catalog):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(1 <= spec["run_seconds"] <= 60, "run_seconds range")
    check(2 <= len(spec["workloads"]) <= 8, "workload count")
    names = []
    for w in spec["workloads"]:
        check(set(w) == {"name", "why"}, f"workload keys {w}")
        check(len(w["why"]) <= 200 and "\n" not in w["why"],
              f"why of {w['name']} is longer than 200 characters")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"}, f"keys {m}")
        check(0 < m["bound"] <= 0.25, f"bound of {m['name']}")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"}, f"keys {m}")
    metrics = spec["end_to_end"] + spec["per_layer"]
    for m in metrics:
        check(NAME.match(m["name"]), f"metric name {m['name']}")
        check(UNIT.match(m["unit"]), f"unit {m['unit']}")
        check(m["better"] in ("lower", "higher"), f"better of {m['name']}")
        names.append(m["name"])
    check(len(names) == len(set(names)), "names are not unique")
    check(any(m["name"] == "setup_s" and m["unit"] == "s"
              and m["better"] == "lower" for m in spec["end_to_end"]),
          "setup_s missing")
    check([w["name"] for w in spec["workloads"]] ==
          [w["name"] for w in catalog["workloads"]],
          "workloads.json lists other workloads than BENCHMARK.json")


def run(spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED),
                             "--seconds", "0.5", "--trace", str(trace),
                             "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    check(proc.returncode == 0, f"{workload} trace={trace} exited "
                                f"{proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0,
          f"{workload} trace={trace}: {result['failed']} failed operations")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{workload}: attempted")
    key = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[key]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{workload} trace={trace}: metrics {got} != {want}")
    for name, v in result["metrics"].items():
        check(isinstance(v["value"], (int, float)) and math.isfinite(v["value"]),
              f"{workload}: {name} is not a finite number")
        if not trace:
            check(v["value"] > 0, f"{workload}: {name} is not positive")
    print(f"selfcheck: ok {workload} trace={trace} "
          f"attempted={result['attempted']}")


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    catalog = json.loads((Path(__file__).resolve().parent /
                          "workloads.json").read_text())
    check_spec(spec, catalog)
    for w in spec["workloads"]:
        for trace in (0, 1):
            run(spec, w["name"], trace)
    print("selfcheck: all workloads ok")


if __name__ == "__main__":
    main()
