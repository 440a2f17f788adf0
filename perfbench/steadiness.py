"""Steadiness check: two sets of benchmark runs of the same code, compared.

Usage::

    python3 perfbench/steadiness.py [--workloads ref9,mesh-store] [--traced]

For every workload it makes two sets of five runs of ``run.py``, each run
with its own seed (1-5, then 6-10), and prints for every
end-to-end metric in ``BENCHMARK.json``:

* the spread of each set and of both sets together: the distance between
  the first and third quartiles (``statistics.quantiles(values, n=4)``) as
  a share of the median;
* the drift: how much worse the second set's median is than the first's,
  as a share of the first median;

and whether the failed share of operations is the same in both sets.  Every
spread, and the drift in either direction, must stay within the metric's
bound.  With ``--traced`` it also makes one traced run per workload and
prints the tracing overhead: the traced sweeps' CPU time against the same
sweeps run untraced in the same rounds.  The report goes to
``perfbench/_results/steadiness.json``.  Exits with 1 when a requirement is
not met.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = 5  # per set: the ten runs per workload that the benchmark's own check makes
ROOT = HERE.parent


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    result = json.loads(lines[-1])
    print(f"    {workload} seed {seed} trace {trace}: {json.dumps(result['metrics'])}", file=sys.stderr)
    if not result["correct"]:
        raise SystemExit(f"checks failed: {' '.join(cmd)}")
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def drift(first: list[float], second: list[float], better: str) -> float:
    """Share by which the second median is worse than the first (negative: better)."""
    a, b = statistics.median(first), statistics.median(second)
    return (b - a) / a if better == "lower" else (a - b) / a


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report: dict = {"runs": RUNS, "run_seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for name in names:
        sets = [[run_once(spec, name, seed, 0) for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1)]
                for k in range(2)]
        shares = {Fraction(r["failed"], r["attempted"]) for s in sets for r in s}
        entry: dict = {"failed_share_equal": len(shares) == 1, "metrics": {}}
        ok &= len(shares) == 1
        print(f"{name}: failed share {'equal' if len(shares) == 1 else 'DIFFERS'} "
              f"({', '.join(str(s) for s in sorted(shares))})")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            vals = [[r["metrics"][key]["value"] for r in s] for s in sets]
            spreads = [spread(v) for v in vals] + [spread(vals[0] + vals[1])]
            d = drift(vals[0], vals[1], metric["better"])
            steady = max(spreads) <= bound and abs(d) <= bound
            ok &= steady
            entry["metrics"][key] = {"medians": [statistics.median(v) for v in vals],
                                     "spreads": spreads, "drift": d, "bound": bound,
                                     "values": vals}
            print(f"  {key:20s} median {statistics.median(vals[0]):10.4g} {metric['unit']:8s} "
                  f"spread {spreads[0]:6.3f} {spreads[1]:6.3f} all {spreads[2]:6.3f}  drift {d:+6.3f}  "
                  f"bound {bound:.2f} (a third: {bound / 3:.3f})"
                  f"{'' if steady else '  FAIL'}")
        if args.traced:
            entry["traced"] = run_once(spec, name, 1, 1)["metrics"]
            print(f"  tracing overhead on the sweeps: "
                  f"{entry['traced']['trace.overhead']['value']:+.1%} (seed 1)")
        report["workloads"][name] = entry
    out = HERE / "_results" / "steadiness.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"{'steady' if ok else 'NOT steady'}; report in {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
