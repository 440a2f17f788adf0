#!/usr/bin/env python3
"""Run the reference9 sweep on the paper-scale synthetic world under a memory cap.

Usage::

    PYTHONPATH=<checkout>/src python scripts/paper_scale.py --ic {freq,corpus} [--work DIR]

The world is ``perfbench/worlds.py``'s ``mesh_world`` with the parameters in
``WORLD``: about 24k terms, 1,932 judged documents over 6,132 corpus terms.
It is written to ``--work`` (a temporary directory by default).  A child
process, with ``OMP_NUM_THREADS=1`` and its address space capped at
``LIMIT_MB`` (6.8 GB) by ``RLIMIT_AS``, then runs ``parameter_sweep`` over
``reference_configs(1e-4)`` with IC from the world's ``freq.tsv`` (``--ic
freq``) or from the corpus (``--ic corpus``, the path of the full TREC
benchmark), and writes the results CSV.  The child is the ``vocabrel`` that
this process imports.

Standard output gets one JSON line: ``outcome`` (``finished``,
``out_of_memory``, or ``failed`` with the exit status), the child's CPU
seconds, wall seconds and peak RSS in MB, and the SHA-256 of the CSV (null
unless it finished).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import vocabrel

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import worlds  # noqa: E402

WORLD = dict(seed=1, n_roots=16, terms_per_root=1500, n_topics=28, docs_per_topic=69, pool_size=150)
LIMIT_MB = 6800  # the child's RLIMIT_AS: the sweep is to fit in a few GB, so a run past this is a failure
OUT_OF_MEMORY = 3  # the child's exit status when the sweep raises MemoryError


def sweep(world: Path, ic: str, out: Path) -> int:
    """The child: the reference9 sweep over the world's files, its CSV written to ``out``."""
    from vocabrel.benchmark import ArtifactSet, filter_topics, ingest_judgements, parameter_sweep, write_results_csv
    from vocabrel.cli import reference_configs
    from vocabrel.infocontent import load_frequencies
    from vocabrel.model import parse_corpus, parse_vocabulary

    try:
        vocab = parse_vocabulary(world / "vocab.jsonl")
        corpus = parse_corpus(world / "corpus.jsonl", vocab)
        freq = load_frequencies(world / "freq.tsv", vocab) if ic == "freq" else None
        judgements, _ = filter_topics(ingest_judgements(world / "judgements.tsv"))
        artifacts = ArtifactSet(vocab=vocab, corpus=corpus, freq=freq)
        write_results_csv(parameter_sweep(reference_configs(1e-4), artifacts, judgements, seed=0), out)
    except MemoryError:
        return OUT_OF_MEMORY
    return 0


def run(ic: str, work: Path) -> dict:
    """Write the world to ``work``, run the child on it, and measure the child."""
    worlds.write_world(worlds.mesh_world(**WORLD), [], work / "world")
    out = work / f"reference9-{ic}.csv"
    src = str(Path(vocabrel.__file__).resolve().parents[1])
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    limit = LIMIT_MB << 20
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    status = subprocess.run(
        [sys.executable, __file__, "--child", str(work / "world"), "--ic", ic, "--out", str(out)],
        env=env, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    ).returncode
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    outcome = {0: "finished", OUT_OF_MEMORY: "out_of_memory"}.get(status, f"failed (exit {status})")
    return {
        "ic": ic,
        "outcome": outcome,
        "cpu_s": round(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime, 2),
        "wall_s": round(wall, 2),
        "peak_rss_mb": round(after.ru_maxrss / 1024, 1),  # Linux reports KiB
        "csv_sha256": hashlib.sha256(out.read_bytes()).hexdigest() if status == 0 else None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ic", required=True, choices=("freq", "corpus"))
    parser.add_argument("--work", help="directory for the world and the CSV (default: a temporary one)")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return sweep(Path(args.child), args.ic, Path(args.out))
    with tempfile.TemporaryDirectory() as tmp:
        result = run(args.ic, Path(args.work or tmp))
    print(json.dumps(result))
    return 0 if result["outcome"] == "finished" else 1


if __name__ == "__main__":
    sys.exit(main())
