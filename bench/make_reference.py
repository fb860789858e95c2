"""Record the reference values the benchmark checks outputs against.

    python3 bench/make_reference.py

Runs every pool item of every workload for each seed in
REFERENCE_SEEDS and writes the values to bench/reference.json.  Run it
only at a commit whose outputs are trusted: later runs of those seeds
fail any item that differs from it by more than RTOL.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402


def to_json_float(x: float):
    """A float as JSON: a number when finite, else its repr ("nan", "inf")."""
    return x if math.isfinite(x) else repr(x)


def main() -> int:
    workdir = workloads.BENCH_DIR / ".work" / f"reference-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    refs = {}
    try:
        for name, cls in workloads.WORKLOADS.items():
            refs[name] = {}
            for seed in workloads.REFERENCE_SEEDS:
                workload = cls(seed, workdir)
                rows = []
                for item in workload.build():
                    result = workload.collect(item, workload.run(item))
                    errors = workload.invariant_errors(item, result)
                    if errors:
                        print(f"error: {name} seed {seed}: {errors}", file=sys.stderr)
                        return 1
                    rows.append([to_json_float(v) for v in workload.values(item, result)])
                refs[name][str(seed)] = rows
                print(f"{name} seed {seed}: {len(rows)} items", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(dump(refs))
    return 0


def dump(refs: dict) -> str:
    """JSON with one item's values per line."""
    blocks = []
    for name, seeds in refs.items():
        seed_blocks = []
        for seed, rows in seeds.items():
            body = ",\n".join("   " + json.dumps(row) for row in rows)
            seed_blocks.append(f"  {json.dumps(seed)}: [\n{body}\n  ]")
        blocks.append(f" {json.dumps(name)}: {{\n" + ",\n".join(seed_blocks) + "\n }")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
