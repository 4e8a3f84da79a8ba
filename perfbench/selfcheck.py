"""Self-check of the benchmark: every workload, both modes, in seconds.

    python3 perfbench/selfcheck.py

Runs run.py on every workload at reduced size (--scale small, one
second) with --trace 0 and --trace 1, prints each metric by name with
its unit, and fails unless every run exits 0, its output checks pass
(ops_failed_ratio 0), and it emits exactly the metrics BENCHMARK.json
lists, each with its listed unit. It then copies only BENCHMARK.json and
perfbench/ into a scratch directory and requires run.py to fail there
without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--scale", "small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            got = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: {result['failed']}/{result['attempted']} calls failed\n{proc.stderr}")
            print(f"== {label}: ops_failed_ratio = {result['failed'] / result['attempted']!r} ratio "
                  f"({result['failed']}/{result['attempted']})")
            for name, entry in result["metrics"].items():
                print(f"{name} = {entry['value']!r} {entry['unit']}")

    bare = BENCH / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _run(bare, spec["workloads"][0]["name"], 0)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        problems.append("run.py did not fail in a directory without the program")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL " + p, file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
