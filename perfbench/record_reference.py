"""Record the outputs that the checks compare against at the default seed.

Run from the repository root, with gpw's sources on the path:

    PYTHONPATH=src python3 perfbench/record_reference.py

It rewrites reference.json next to this file.  Re-record only when a change
is meant to alter the results, and say so where the change is described.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path

import workloads


def main() -> None:
    warnings.filterwarnings("ignore", message=".*not guaranteed to reach order.*")
    seed = workloads.DEFAULT_SEED
    table = workloads.OrderTable()
    csv = {}
    for study in table.items(seed):
        code, text = table.run(study)
        if code != 0:
            raise SystemExit(f"{study.key} exited with {code}")
        csv[study.key] = text
    grid = workloads.WaveGrid()
    summary = {job.key: workloads.wave_summary(grid.run(job)) for job in grid.items(seed)}
    reference = {
        "order_table": {"csv_header": next(iter(csv.values())).splitlines()[0], "csv": csv},
        "wave_grid": {"summary": summary},
    }
    out = Path(__file__).resolve().parent / "reference.json"
    out.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
