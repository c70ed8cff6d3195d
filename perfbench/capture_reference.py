"""Capture the reference cells of the six published tables.

    PYTHONPATH=src python3 perfbench/capture_reference.py

Writes perfbench/reference_cells.json with every error cell at full
precision, as reproduce_table returns it.  The committed file was
captured from the seed commit; rerun this only to re-anchor the
reference on purpose, since the table workloads check against it.
"""

from __future__ import annotations

import json
import subprocess
import sys
import warnings

import msdfrac
from workloads import REFERENCE_FILE, reports_to_cells


def main() -> int:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    tables = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for tid in msdfrac.TABLE_IDS:
            left, right = msdfrac.reproduce_table(tid)
            tables[str(tid)] = reports_to_cells(list(left) + list(right))
    with open(REFERENCE_FILE, "w") as fh:
        json.dump({"captured_from": commit, "tables": tables}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
