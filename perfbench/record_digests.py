"""Record the seeded-result digests that run.py reports matches against.

    python3 perfbench/record_digests.py --seeds 0-15

Runs the first untraced pass of every workload for each run seed and
rewrites perfbench/digests.json.  The digests are reported only: a change
that alters seeded draws on purpose says so and records them again.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, Runner, workdir_for  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", default="0-15", help="inclusive range, as FIRST-LAST")
    args = p.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in range(first, last + 1):
            workdir = workdir_for(workload, seed)
            try:
                result = Runner(workload, seed, workdir, ROOT / ".perfbench_out")("plain", 0)
            finally:
                shutil.rmtree(ROOT / workdir, ignore_errors=True)
            table[workload][str(seed)] = result["digest"]
            print(workload, seed, result["digest"], flush=True)
    (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
