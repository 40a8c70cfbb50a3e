"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload briefly, untraced and twice traced with one seed, and
checks that:

* every metric named in BENCHMARK.json is printed, by name and with its unit;
* no op fails on ``words``, ``suite`` and ``certs``;
* a seed fixes the inputs: the two traced runs, of different lengths, have
  the same input hash and the same work counts per pass over the deck;
* without the package sources the benchmark exits non-zero and prints no
  result.

Exits 0 when all hold; otherwise prints each problem and exits 1.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
MUST_NOT_FAIL = ("words", "suite", "certs")
REPEATED_COUNTS = ("normalform.syllables", "oracle.syllables",
                   "wordexpr.parse_bytes", "witnesses.cert_bytes")


def run(cwd, workload, trace, seconds=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def parse(proc):
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = next(json.loads(line[5:]) for line in lines if line.startswith("meta "))
    printed = [line for line in lines if line.startswith("metric ")]
    return result, meta, printed


def check_printed(workload, trace, spec, result, printed, problems):
    expected = spec["per_layer" if trace else "end_to_end"]
    for m in expected:
        name, unit = m["name"], m["unit"]
        got = result["metrics"].get(name)
        if got is None or got.get("unit") != unit:
            problems.append(f"{workload} trace={trace}: {name} missing or not in {unit}")
        prefix = f"metric {workload} {name} = "
        if not any(p.startswith(prefix) and p.endswith(f" {unit}") for p in printed):
            problems.append(f"{workload} trace={trace}: no printed line for {name} [{unit}]")
    extra = set(result["metrics"]) - {m["name"] for m in expected}
    if extra:
        problems.append(f"{workload} trace={trace}: unlisted metrics {sorted(extra)}")


def check_bare_directory(spec, problems):
    bare = os.path.join(ROOT, ".bench_out", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "words", 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("without sources the benchmark did not fail cleanly")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for w in spec["workloads"]:
        workload = w["name"]
        runs = {}
        # The second traced run is longer, so it makes more passes over the
        # deck; counts per pass must not depend on that.
        for key, trace, seconds in (("plain", 0, 1), ("traced", 1, 1),
                                    ("again", 1, 6)):
            proc = run(ROOT, workload, trace, seconds)
            if proc.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {proc.returncode}"
                                f"\n{proc.stderr[-2000:]}")
                break
            runs[key] = parse(proc)
            result, meta, printed = runs[key]
            check_printed(workload, trace, spec, result, printed, problems)
            if workload in MUST_NOT_FAIL and result["failed"] != 0:
                problems.append(f"{workload} trace={trace}: {result['failed']} of "
                                f"{result['attempted']} ops failed: "
                                f"{meta.get('failures')}")
        if len(runs) < 3:
            continue
        hashes = {key: runs[key][1]["input_sha256"] for key in runs}
        if len(set(hashes.values())) != 1:
            problems.append(f"{workload}: input hashes differ for one seed: {hashes}")
        for name in REPEATED_COUNTS:
            a = runs["traced"][0]["metrics"][name]["value"]
            b = runs["again"][0]["metrics"][name]["value"]
            if a != b:
                problems.append(f"{workload}: {name} differs between runs: {a} != {b}")
        print(f"{workload}: checked", flush=True)
    check_bare_directory(spec, problems)
    for p in problems:
        print("FAIL", p)
    print("smoke:", "ok" if not problems else f"{len(problems)} problems")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
