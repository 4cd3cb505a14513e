"""Regenerate reference_digests.json from the checkout's current code.

    python3 geobench/refdigests.py

Runs every workload once at the reference seed (shortest run) and stores the
output digests of its run record. Each later run at that seed reports in its
record whether its outputs match; the digests compare two commits and gate
nothing, so a change that corrects the method regenerates them here.
"""
from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, REFERENCE, WORKLOADS, git_sha, geosp_lines

SEED = 1


def main() -> int:
    digests = {}
    for workload in WORKLOADS:
        subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(SEED), "--seconds", "1", "--trace", "0"],
                       check=True, timeout=180, stdout=subprocess.DEVNULL)
        record = json.loads((HERE / "results" / f"{workload}-seed{SEED}-trace0.json").read_text())
        if not record["result"]["correct"]:
            print(f"{workload}: outputs failed their checks; not recorded", file=sys.stderr)
            return 1
        digests[workload] = record["digests"]
    REFERENCE.write_text(json.dumps({"seed": SEED, "git_sha": git_sha(),
                                     "geosp_lines": geosp_lines(), "digests": digests},
                                    indent=2) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
