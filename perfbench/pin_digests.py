"""Regenerate ``digests.json``: the input digest of every workload for
seeds 0–31 at the ``run_seconds`` of ``BENCHMARK.json``.

Run from the repository root, only when a workload's definition changes
on purpose::

    python3 perfbench/pin_digests.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(32)


def main() -> int:
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.inputs import GENERATORS, generate

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    table = {}
    (ROOT / ".perfbench-out").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench-out"))
    try:
        for workload in GENERATORS:
            row = table[f"{workload}/{seconds}"] = {}
            for seed in SEEDS:
                work = scratch / f"{workload}-{seed}"
                generate(workload, seed, seconds, str(work))
                row[str(seed)] = json.loads((work / "meta.json").read_text())["input_digest"]
                shutil.rmtree(work)
                print(workload, seed, row[str(seed)], flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    path = Path(__file__).parent / "digests.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
