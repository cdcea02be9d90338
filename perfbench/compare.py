"""Compare two sets of benchmark result files written by ``run.py --out``.

Usage::

    python3 perfbench/compare.py --base base-*.json --head head-*.json

Every file is stamped with its host (see ``run.host_stamp``).  The comparison
is refused, with exit status 2, when any two files differ in a host-identity
field (CPU count, affinity, machine, Python, NumPy, SciPy, BLAS) or when the
files mix workloads.  The load average is recorded in the stamp but not
compared.  Otherwise, for each end-to-end and per-layer metric that every
file has, the script prints each side's median and quartiles over its files
and the change of the medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import STAMP_IDENTITY


def _load(paths):
    return [(p, json.loads(Path(p).read_text())) for p in paths]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--head", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, head = _load(args.base), _load(args.head)
    everything = base + head

    first_path, first = everything[0]
    for path, result in everything[1:]:
        for key in STAMP_IDENTITY:
            if result["host"].get(key) != first["host"].get(key):
                print(f"refused: {path} has host {key}={result['host'].get(key)!r}, "
                      f"{first_path} has {first['host'].get(key)!r}", file=sys.stderr)
                return 2
        if result["workload"] != first["workload"]:
            print(f"refused: {path} is workload {result['workload']!r}, "
                  f"{first_path} is {first['workload']!r}", file=sys.stderr)
            return 2

    print(f"workload {first['workload']}: {len(base)} base and {len(head)} head result files")
    for side, results in (("base", base), ("head", head)):
        failed = sum(r["failed"] for _, r in results)
        attempted = sum(r["attempted"] for _, r in results)
        print(f"  {side} error_rate {failed / attempted:.4f} ({failed} of {attempted})")
    for group in ("metrics", "layers"):
        shared = [n for n in first.get(group, {})
                  if all(n in r.get(group, {}) for _, r in everything)]
        for name in shared:
            unit = first[group][name]["unit"]
            b = [r[group][name]["value"] for _, r in base]
            h = [r[group][name]["value"] for _, r in head]
            bm, hm = statistics.median(b), statistics.median(h)
            change = f"{(hm - bm) / bm:+.2%}" if bm else "n/a"
            (bq1, bq3), (hq1, hq3) = _quartiles(b), _quartiles(h)
            print(f"  {name:<40} base {bm:.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"head {hm:.6g} [{hq1:.6g}, {hq3:.6g}] {unit}  {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
