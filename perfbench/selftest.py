"""Self-test of the benchmark: every workload in quick mode, untraced and
traced, must pass its output checks with no failed operation and print
every metric that ``BENCHMARK.json`` names.

    python3 perfbench/selftest.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = argv or [w["name"] for w in spec["workloads"]]
    problems = []
    for name in names:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                spec["command"] + ["--workload", name, "--quick",
                                   "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            tag = f"{name} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: correct={result['correct']} "
                                f"failed={result['failed']}\n{proc.stdout}")
            if got != want:
                problems.append(f"{tag}: metrics {got} != {want}")
            print(f"{tag}: attempted={result['attempted']} "
                  f"failed={result['failed']} correct={result['correct']}",
                  flush=True)
    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
