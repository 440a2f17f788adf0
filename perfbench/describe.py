"""Print the make-up of each workload's world for a range of seeds.

Usage: ``python3 perfbench/describe.py [--seeds 1-10]``

Columns: terms, roots, extra tree placements (parent links beyond a term's
first), documents, corpus terms (the store's rows), judged pairs (same-topic
+ separate-topic) and the entries of each store the workload uses, counted
by the reference (pairs above eps with a corpus-term end).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

from reference import Reference  # noqa: E402
from run import WORKLOADS  # noqa: E402


def store_entries(ref: Reference, graph: str, lam: float) -> int:
    raw = ref.raw_rows(graph, lam)
    keys = set()
    for r, c in zip(*np.nonzero(raw > ref.eps)):
        a = ref.rows[r]
        if a != c:
            keys.add((min(a, c), max(a, c)))
    return len(keys)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="first-last")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    for name, spec in WORKLOADS.items():
        print(f"{name}: seed | terms | roots | placements | documents | corpus terms | "
              f"judged pairs | " + " | ".join(f"{g} lambda={lam:g} entries" for g, lam in spec.stores))
        for seed in range(first, last + 1):
            world = spec.world(seed)
            ref = Reference(world)
            same, sep = ref.populations()
            stores = [store_entries(ref, g, lam) for g, lam in spec.stores]
            print(f"  {seed} | {len(world.terms)} | {world.roots} | {world.placements} | "
                  f"{len(world.docs)} | {len(ref.rows)} | {len(same)}+{len(sep)} | "
                  + " | ".join(str(n) for n in stores))
    return 0


if __name__ == "__main__":
    sys.exit(main())
