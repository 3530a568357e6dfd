"""Smoke test for the benchmark: every workload at a tiny size.

    python3 mixbench/smoke.py

Runs each workload with ``--size tiny --seconds 1``, once untraced and
once traced, from the root of the checkout, and checks that

- the last stdout line is a result with exactly the four result keys, the
  run is correct, and every metric that BENCHMARK.json names for the mode
  is printed with its unit and a finite value;
- in the written trace, every span lies inside its parent and under the
  same root, no span is nested directly in a span of its own name (a name
  wrapped twice), every self time is at least zero, and the self times
  under each root add up to that root's wall time, so no layer's self
  time exceeds the wall time of the work around it;
- ``dsp.resample_calls`` is 0 on generate_native, which BENCHMARK.json
  does not list but run.py still runs, and positive on generate_resample, and ``film.backward_ms`` is positive on film_train
  only;
- in a directory that holds only BENCHMARK.json and the benchmark's own
  files, the benchmark exits non-zero without printing a result.

Exits 1 at the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
WORK = "work"  # the root span around the timed program calls


def fail(message):
    print(f"FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(root, workload, trace, size="tiny"):
    args = [sys.executable, "mixbench/run.py", "--workload", workload,
            "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if size:
        args += ["--size", size]
    return subprocess.run(args, cwd=root, capture_output=True, text=True,
                          timeout=300)


def check_result(proc, spec, workload, trace) -> dict:
    tag = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        fail(f"{tag} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        fail(f"{tag}: not a clean run: {result}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        fail(f"{tag}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics[m["name"]]
        if got.get("unit") != m["unit"]:
            fail(f"{tag}: {m['name']} has unit {got.get('unit')!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{tag}: {m['name']} = {value!r}")
    return {name: got["value"] for name, got in metrics.items()}


def check_trace(path):
    """Checks that a misplaced or doubled wrapper would fail."""
    spans = [json.loads(line) for line in path.read_text("utf-8").splitlines()]
    if not any(s["name"] == WORK for s in spans):
        fail(f"{path} holds no {WORK} span")
    tolerance = 1e-6
    top = {}  # span id -> id of the root span above it
    subtree_self = {}  # root span id -> summed self time of its subtree
    for span in spans:
        tag = f"{path.name}: span {span['id']} {span['name']}"
        if span["self"] < -tolerance:
            fail(f"{tag} has negative self time: its children overlap")
        if span["parent"] < 0:
            if span["name"] != span["root"]:
                fail(f"{tag} is a root but names root {span['root']}")
            top[span["id"]] = span["id"]
            subtree_self[span["id"]] = span["self"]
            continue
        parent = spans[span["parent"]]
        if span["root"] != parent["root"]:
            fail(f"{tag} lands under root {span['root']}, its parent under "
                 f"{parent['root']}")
        if span["name"] == parent["name"]:
            fail(f"{tag} is nested in itself: a name is wrapped twice")
        if (span["start"] < parent["start"] - tolerance
                or span["end"] > parent["end"] + tolerance):
            fail(f"{tag} lies outside its parent {parent['name']}")
        top[span["id"]] = top[parent["id"]]
        subtree_self[top[span["id"]]] += span["self"]
    # Self times under one root add up to the root's wall time, so each
    # layer's self time is at most the wall time of the work around it.
    for root_id, total in subtree_self.items():
        root = spans[root_id]
        wall = root["end"] - root["start"]
        if abs(total - wall) > tolerance * (1 + wall):
            fail(f"{path.name}: self times under span {root_id} sum to "
                 f"{total} s, its wall time is {wall} s")


def check_bare_directory():
    """Without the sources the benchmark must refuse to run."""
    bare = ROOT / ".mixbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bare, "generate_native", 0, size=None)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark ran without the sources it measures")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    # generate_native is not in BENCHMARK.json (too unsteady to gate on),
    # but its traced run still shows that the 16 kHz path never resamples.
    listed = [w["name"] for w in spec["workloads"]]
    for workload in listed + ["generate_native"]:
        check_result(run(ROOT, workload, 0), spec, workload, 0)
        layers = check_result(run(ROOT, workload, 1), spec, workload, 1)
        check_trace(ROOT / ".mixbench" / f"trace-{workload}.jsonl")
        calls = layers["dsp.resample_calls"]
        if (calls > 0) != (workload == "generate_resample"):
            fail(f"{workload}: dsp.resample_calls = {calls}")
        backward = layers["film.backward_ms"]
        if (backward > 0) != (workload == "film_train"):
            fail(f"{workload}: film.backward_ms = {backward}")
        print(f"ok {workload}", file=sys.stderr)
    check_bare_directory()
    print("ok bare directory refused", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
