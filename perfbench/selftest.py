#!/usr/bin/env python3
"""Smoke-test the benchmark itself.

Runs every workload of BENCHMARK.json at tiny size, untraced and traced,
and checks that:
  * the run exits 0 and its last stdout line is the result object with
    exactly the keys correct, attempted, failed and metrics;
  * every end-to-end (untraced) or per-layer (traced) metric listed in
    BENCHMARK.json is printed with its unit, and no other metric is;
  * end-to-end values are positive;
  * the traced run's span tree is well formed: every parent exists and
    precedes its child, every child lies inside its parent, and the
    children of a span never cover more time than the span.

Usage, from the repository root:  python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = "1997"


def check_spans(path):
    spans = [json.loads(line) for line in open(path)]
    if not spans:
        return ["no spans recorded"]
    errors = []
    covered = [0] * len(spans)
    for s in spans:
        i, p = s["id"], s["parent"]
        if s["end_ns"] < s["start_ns"]:
            errors.append(f"span {i} ends before it starts")
        if p is None:
            continue
        if not 0 <= p < i:
            errors.append(f"span {i} has missing parent {p}")
            continue
        q = spans[p]
        if s["start_ns"] < q["start_ns"] or s["end_ns"] > q["end_ns"]:
            errors.append(f"span {i} ({s['name']}) escapes parent {p} ({q['name']})")
        covered[p] += s["end_ns"] - s["start_ns"]
    for s, c in zip(spans, covered):
        if c > s["end_ns"] - s["start_ns"]:
            errors.append(f"children of span {s['id']} ({s['name']}) exceed it")
    return errors


def run(workload, trace, spec):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", SEED, "--seconds", "3", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        errors.append(f"attempted={result.get('attempted')}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"metric {m['name']} missing")
        elif got.get("unit") != m["unit"]:
            errors.append(f"metric {m['name']} unit {got.get('unit')}, want {m['unit']}")
        elif not trace and not got.get("value", 0) > 0:
            errors.append(f"end-to-end metric {m['name']} is {got.get('value')}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        errors.append(f"unlisted metrics {sorted(extra)}")
    if trace:
        errors += check_spans(os.path.join(ROOT, ".perfbench", f"spans-{workload}.jsonl"))
    return errors


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    failed = False
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors = run(w["name"], trace, spec)
            print(f"{w['name']} trace={trace}: {'ok' if not errors else 'FAILED'}")
            for e in errors:
                print("   ", e)
            failed |= bool(errors)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
