#!/usr/bin/env python3
"""Run the nine reference configurations against the full external benchmark.

Expects prepared data (see README, "Full benchmark data"):
  - a MeSH directory with d2006.bin and optionally q2006.bin (ASCII
    *NEWRECORD format), converted here to canonical vocabulary JSONL;
  - a TREC directory with corpus.jsonl (canonical corpus format, documents
    annotated with descriptor UIs) and judgements.tsv; a raw qrels file
    (whitespace-separated ``topic 0 doc level`` lines) can be converted
    with --qrels.

Directories default to $VOCABREL_MESH_DIR and $VOCABREL_TREC_DIR so the
optional acceptance tests and this script share one setup.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from vocabrel.benchmark import (
    ArtifactSet,
    RelevanceJudgement,
    Level,
    build_pairs,
    filter_topics,
    ingest_judgements,
    parameter_sweep,
    write_judgements,
    write_results_csv,
)
from vocabrel.cli import reference_configs
from vocabrel.mesh import convert_mesh
from vocabrel.model import parse_corpus, parse_vocabulary


def convert_qrels(source: Path, dest: Path) -> None:
    """Rewrite raw ``topic 0 doc level`` qrels lines as canonical TSV."""
    judgements = []
    with open(source, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise SystemExit(f"{source}:{lineno}: expected 4 whitespace-separated fields")
            topic, _iter, doc, level = parts
            judgements.append(RelevanceJudgement(topic, doc, Level(int(level))))
    write_judgements(judgements, dest)
    print(f"converted {len(judgements)} qrels lines to {dest}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mesh-dir", default=os.environ.get("VOCABREL_MESH_DIR"))
    parser.add_argument("--trec-dir", default=os.environ.get("VOCABREL_TREC_DIR"))
    parser.add_argument("--qrels", help="raw qrels file to convert to judgements.tsv first")
    parser.add_argument("--eps", type=float, default=1e-4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="trec-results.csv")
    args = parser.parse_args()
    if not args.mesh_dir or not args.trec_dir:
        parser.error("--mesh-dir and --trec-dir (or the VOCABREL_* env vars) are required")

    mesh_dir = Path(args.mesh_dir)
    trec_dir = Path(args.trec_dir)
    if args.qrels:
        convert_qrels(Path(args.qrels), trec_dir / "judgements.tsv")

    vocab_path = trec_dir / "mesh-vocab.jsonl"
    if not vocab_path.exists():
        qualifier = mesh_dir / "q2006.bin"
        stats = convert_mesh(
            str(mesh_dir / "d2006.bin"),
            vocab_path,
            qualifier_source=str(qualifier) if qualifier.exists() else None,
        )
        print(f"converted vocabulary: {stats}")

    started = time.monotonic()
    vocab = parse_vocabulary(str(vocab_path))
    lenient: dict = {}
    corpus = parse_corpus(str(trec_dir / "corpus.jsonl"), vocab, strict=False, stats=lenient)
    if any(lenient.values()):
        print(f"lenient corpus parse: {lenient}", file=sys.stderr)
    judgements = ingest_judgements(str(trec_dir / "judgements.tsv"))
    filtered, dropped = filter_topics(judgements)
    pairs = build_pairs(filtered)
    print(
        f"{len(judgements)} judgements, {len(dropped)} topics dropped, "
        f"{len(pairs.same_topic)} same-topic / {len(pairs.separate_topic)} separate-topic pairs"
    )

    artifacts = ArtifactSet(vocab=vocab, corpus=corpus, eps=args.eps)
    results = parameter_sweep(
        reference_configs(args.eps), artifacts, filtered,
        seed=args.seed,
    )
    write_results_csv(results, args.out)

    print(f"{'configuration':<72} {'delta':>7} {'phi':>7}  n_class")
    for r in results:
        if r.note:
            print(f"{r.config.tag():<72} failed: {r.note}")
        else:
            print(
                f"{r.config.tag():<72} {r.delta:7.3f} {r.phi:7.3f}  {r.n_classifications}"
            )
    print(f"done in {time.monotonic() - started:.1f}s, results in {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
