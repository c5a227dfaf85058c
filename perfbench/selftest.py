#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds through run.py).  It checks that:
  * BENCHMARK.json keeps its required shape (six keys, name and unit
    syntax, bounds of at most 0.25, setup_s with the largest bound);
  * every workload runs once at tiny scale (--smoke), untraced and traced,
    passes its report check and emits exactly the metrics BENCHMARK.json
    names, with the same units, and that end-to-end figures are positive;
  * each workload's own layers show work in the traced run;
  * a one-byte change to every report is caught: the run exits non-zero
    and counts every attempt as failed;
  * a directory holding only BENCHMARK.json and perfbench/ makes the
    benchmark fail fast without printing a result.
Exits 0 when every check passes.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Per-layer metrics that must read above zero on each workload's traced run:
# the layers the workload exists to exercise.
BUSY_LAYERS = {
    "batch": ["pcap.read_s", "net.decode_s", "flow.track_s", "core.shards_s", "core.fold_s",
              "core.report_s", "util.pool_busy_s", "proto.events", "synth.generate_s"],
    "daemon": ["pcap.merge_s", "core.feed_s", "core.rotate_s", "snapshot.encode_s",
               "snapshot.age_s", "snapshot.decode_s", "snapshot.merge_s", "snapshot.folds",
               "disk_mb", "flow.live_max", "proto.events"],
    "fleet": ["cluster.run_s", "cluster.attempts", "cluster.bytes", "orchestrate.render_s",
              "synth.generate_s", "flow.conns_opened"],
}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT, runner=None):
    done = subprocess.run((runner or RUN) + args, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result, done.stderr


def check_spec(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    check(set(spec) == keys, "BENCHMARK.json has exactly its six keys")
    check(1 <= len(spec["paths"]) <= 16 and all(os.path.isdir(os.path.join(ROOT, p))
                                                for p in spec["paths"]),
          "paths name existing directories")
    check(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
          "run_seconds is a whole number from 1 to 60")
    check(2 <= len(spec["workloads"]) <= 8
          and all(set(w) == {"name", "why"} and NAME.match(w["name"]) and len(w["why"]) <= 200
                  and "\n" not in w["why"] for w in spec["workloads"]),
          "workloads are well formed")
    names = [w["name"] for w in spec["workloads"]]
    for m in spec["end_to_end"]:
        check(set(m) == {"name", "unit", "better", "bound"} and NAME.match(m["name"])
              and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
              and 0 < m["bound"] <= 0.25, f"end_to_end {m['name']} is well formed")
    for m in spec["per_layer"]:
        check(set(m) == {"name", "unit", "better"} and NAME.match(m["name"])
              and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower"),
              f"per_layer {m['name']} is well formed")
        names.append(m["name"])
    names += [m["name"] for m in spec["end_to_end"]]
    check(len(names) == len(set(names)), "every name is used once")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is present, in s, lower is better, with the largest bound")


def check_result(workload, trace, rc, result, expected):
    tag = f"{workload} --trace {trace}"
    check(rc == 0, f"{tag} exits 0")
    if result is None:
        check(False, f"{tag} prints a JSON result line")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag} result line has exactly its four keys")
    check(result.get("correct") is True and result.get("failed") == 0
          and result.get("attempted", 0) >= 1, f"{tag} passes its report check")
    got = result.get("metrics", {})
    check(set(got) == set(expected), f"{tag} emits exactly the metrics BENCHMARK.json names")
    for name, unit in expected.items():
        entry = got.get(name, {})
        value = entry.get("value")
        check(entry.get("unit") == unit and isinstance(value, (int, float))
              and math.isfinite(value), f"{tag} {name} is a number in {unit}")
        if trace == 0:
            check(isinstance(value, (int, float)) and value > 0, f"{tag} {name} is above 0")
    if trace == 1:
        for name in BUSY_LAYERS[workload]:
            value = got.get(name, {}).get("value", 0)
            check(value > 0, f"{tag} {name} shows work ({value})")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for w in [w["name"] for w in spec["workloads"]]:
        for trace, expected in ((0, e2e), (1, layers)):
            rc, result, err = run(["--workload", w, "--seed", "7", "--seconds", "1",
                                   "--trace", str(trace), "--smoke"])
            if rc != 0:
                sys.stderr.write(err[-2000:])
            check_result(w, trace, rc, result, expected)

    rc, result, _ = run(["--workload", "batch", "--seed", "7", "--seconds", "1", "--trace", "0",
                         "--smoke", "--corrupt-report"])
    check(rc != 0, "a one-byte report change makes the run exit non-zero")
    check(result is not None and result["correct"] is False
          and result["failed"] == result["attempted"] >= 1,
          "a one-byte report change fails every attempt")

    out = subprocess.run(RUN + ["--list"], cwd=ROOT, capture_output=True, text=True).stdout
    check(all(n in out for n in list(e2e) + list(layers) + [w["name"] for w in spec["workloads"]]),
          "--list names every workload and metric")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    rc, result, _ = run(["--workload", "batch", "--seed", "1", "--seconds", "1", "--trace", "0"],
                        cwd=bare, runner=[sys.executable] + spec["command"][1:])
    shutil.rmtree(bare, ignore_errors=True)
    check(rc != 0 and result is None, "without the sources the benchmark fails and prints no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
