"""Checks of the program's output files against the reference and properties.

Every function returns a list of problems; an empty list means the output
passed.  Tolerances: similarities 1e-12, ``relate`` scores 1e-9, sweep means
and skewness 1e-9 relative.  Cliff's delta must fall in the reference's
interval, whose width is the number of cross pairs that tie to 1e-12.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from reference import Config, Reference

SIM_TOL = 1e-12
SCORE_TOL = 1e-9
STAT_TOL = 1e-9


def _close(a: float, b: float, tol: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_ic(path: Path, ref: Reference) -> list[str]:
    problems = []
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split("\t") for line in lines[1:] if line]
    if len(rows) != len(ref.terms):
        return [f"{path.name}: {len(rows)} IC rows, expected {len(ref.terms)}"]
    for term, agg, ic in rows:
        i = ref.index.get(term)
        if i is None or int(agg) != ref.aggregate[i] or not _close(float(ic), ref.ic[i], SIM_TOL):
            problems.append(f"{path.name}: IC of {term} is {agg}/{ic}")
    return problems[:5]


def check_simmatrix(path: Path, ref: Reference, graph: str, lam: float) -> list[str]:
    """Every exported entry is exp(-d/lam) and every corpus-term row is complete.

    Entries on the eps boundary may be present or absent; the ones present
    are adopted into the reference, so that scores are compared on the same
    store.
    """
    raw = ref.raw_rows(graph, lam)
    boundary = ref.on_boundary(raw)
    required: set[tuple[int, int]] = set()
    value: dict[tuple[int, int], float] = {}
    for r, c in zip(*np.nonzero((raw > ref.eps) | boundary)):
        a = ref.rows[r]
        if a != c:
            key = (min(a, c), max(a, c))
            value[key] = float(raw[r, c])
            if not boundary[r, c]:
                required.add(key)
    problems: list[str] = []
    present: set[tuple[int, int]] = set()
    with open(path, encoding="utf-8") as fh:
        if not fh.readline().startswith("#simmatrix"):
            return [f"{path.name}: missing #simmatrix header"]
        for line in fh:
            a, b, raw_s = line.rstrip("\n").split("\t")
            i, j = ref.index[a], ref.index[b]
            key = (min(i, j), max(i, j))
            want = value.get(key)
            if want is None:
                problems.append(f"{path.name}: unexpected entry {a} {b} {raw_s}")
            elif abs(float(raw_s) - want) > SIM_TOL:
                problems.append(f"{path.name}: sim({a}, {b}) = {raw_s}, reference {want!r}")
            present.add(key)
            if len(problems) >= 5:
                return problems
    missing = required - present
    if missing:
        problems.append(f"{path.name}: {len(missing)} of {len(required)} entries above eps "
                        f"missing from the corpus-term rows")
    ref.adopt_boundary(graph, lam, present & (set(value) - required))
    return problems


def check_relate(path: Path, pairs: list[tuple[str, str]], ref: Reference, cfg: Config) -> list[str]:
    """Reference agreement, both orders equal, scores in [0, 1 + 1e-12]."""
    lines = path.read_text(encoding="utf-8").splitlines()
    rows = [line.split("\t") for line in lines if line and not line.startswith("#")]
    if [(a, b) for a, b, _ in rows] != pairs:
        return [f"{path.name}: {len(rows)} scored pairs do not match the {len(pairs)} requested"]
    scores = ref.scores(cfg)
    problems: list[str] = []
    got: dict[tuple[str, str], str] = {}
    for a, b, raw in rows:
        value = float(raw)
        if not 0.0 <= value <= 1.0 + 1e-12:
            problems.append(f"{path.name}: score({a}, {b}) = {raw} outside [0, 1]")
        want = scores[ref.doc_index[a], ref.doc_index[b]]
        if abs(value - want) > SCORE_TOL:
            problems.append(f"{path.name}: score({a}, {b}) = {raw}, reference {want!r}")
        other = got.get((b, a))
        if other is not None and other != raw:
            problems.append(f"{path.name}: score({a}, {b}) = {raw} but score({b}, {a}) = {other}")
        got[(a, b)] = raw
        if len(problems) >= 5:
            break
    return problems


def read_sweep(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def check_sweep(rows: list[dict[str, str]], ref: Reference, configs: list[Config],
                disjoint: bool) -> list[str]:
    """One row per configuration, matching the reference over all judged pairs."""
    problems: list[str] = []
    by_key = {tuple(r[k] for k in ("method", "vector", "graph", "w", "lambda", "slim")): r
              for r in rows}
    if len(rows) != len(configs) or set(by_key) != {c.csv_key() for c in configs}:
        return [f"sweep rows {sorted(by_key)} do not match configurations "
                f"{sorted(c.csv_key() for c in configs)}"]
    for cfg in configs:
        row = by_key[cfg.csv_key()]
        tag = " ".join(cfg.csv_key())
        want = ref.sweep_row(cfg)
        delta, phi = float(row["delta"]), float(row["phi"])
        if row["n_errors"] != "0":
            problems.append(f"{tag}: n_errors = {row['n_errors']}")
        if not -1.0 <= phi <= 1.0:
            problems.append(f"{tag}: phi = {phi} outside [-1, 1]")
        if not want["delta_lo"] - 1e-15 <= delta <= want["delta_hi"] + 1e-15:
            problems.append(f"{tag}: delta = {delta}, reference [{want['delta_lo']}, {want['delta_hi']}]")
        for col, key in (("mean_same", "mean_same"), ("mean_sep", "mean_sep"),
                         ("skew_same", "skew_same"), ("skew_sep", "skew_sep")):
            if not _close(float(row[col]), want[key], STAT_TOL):
                problems.append(f"{tag}: {col} = {row[col]}, reference {want[key]!r}")
        if disjoint and cfg.method == "salton" and (delta != 1.0 or abs(phi - 1.0) > 1e-12):
            problems.append(f"{tag}: disjoint topics need delta = phi = 1, got {delta}, {phi}")
    return problems
