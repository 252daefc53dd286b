"""Run every workload untraced and print the end-to-end metrics as one table.

    python3 perfbench/report.py --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args(argv)
    print(f"{'workload':<12} {'setup_s (s)':>12} {'units_per_s (1/s)':>18} {'peak_rss_mb (MB)':>17} "
          f"{'fail_ratio':>10} correct")
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{workload:<12} failed:\n{proc.stderr[-2000:]}")
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        m = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"{workload:<12} {m['setup_s']:>12.4f} {m['units_per_s']:>18.4f} {m['peak_rss_mb']:>17.1f} "
              f"{res['failed'] / res['attempted']:>10.3g} {res['correct']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
