"""Run every workload untraced and traced and print each metric by name.

    python3 bench/report.py [--seed N] [--seconds S]

Each run is a separate ``bench/run.py`` process, started only after the
previous one has exited, so runs never share the machine or a process.
Exits 1 if any run fails or reports incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            doc = json.loads(lines[-1])
            status |= not doc["correct"]
            print(f"\n{workload} trace={trace}: correct={doc['correct']} "
                  f"attempted={doc['attempted']} failed={doc['failed']}")
            for line in lines[:-1]:
                print(f"  {line}")
            for name, m in doc["metrics"].items():
                print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
