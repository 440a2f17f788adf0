#!/usr/bin/env python3
"""Run a fixed list of ``vocab-relate`` commands and print a digest of each output.

Usage::

    PYTHONPATH=<checkout>/src python scripts/output_digests.py WORLD_DIR OUT_DIR

WORLD_DIR holds ``vocab.jsonl``, ``corpus.jsonl`` and ``judgements.tsv``
(as ``scripts/make_synthetic_data.py`` and ``perfbench/worlds.py`` write
them), and optionally ``freq.tsv``, which is passed as ``--freq-table``.
The commands run in this process through ``vocabrel.cli.main``, in order,
from OUT_DIR as the working directory, so outputs that name another output
(``stats`` names its score file) read the same whatever OUT_DIR is.  The pair
list for ``relate --pairs`` (every corpus pair, larger id first), the corpus
with its lines reversed and the ``--cache`` directory go to ``OUT_DIR/work``;
after two ``sweep`` runs fill and read the cache, a third reads it with the
reversed corpus, and ``relate --pairs`` and ``simmatrix`` read it too.
Standard output gets one ``sha256  name`` line per output file, manifests
excepted, since they record elapsed time.

Run it with two checkouts on the same world and diff the listings: equal
lines mean byte-identical outputs.  The exit status is 1 if any command
failed.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import sys
from pathlib import Path

from vocabrel.cli import main as vocab_relate
from vocabrel.model import parse_corpus, parse_vocabulary

REFERENCE9 = ["--preset", "reference9"]
RELATE_CONFIGS = {
    "salton-ic-w2": ["--method", "salton", "--vector", "ic", "--w", "2"],
    "salton-ic-w2-q": ["--method", "salton", "--vector", "ic", "--w", "2", "--qualifiers"],
    "soft-binary-g1-w4": ["--method", "soft", "--graph", "g1", "--w", "4", "--lambda", "1"],
    "soft-ic-dic-w3": ["--method", "soft", "--vector", "ic", "--graph", "dic", "--w", "3",
                       "--lambda", "1"],
    "mts-g1-w16": ["--method", "mts", "--graph", "g1", "--w", "16", "--lambda", "1"],
    "mts-rawdist-dic-w2": ["--method", "mts-rawdist", "--graph", "dic", "--w", "2",
                           "--lambda", "2"],
}
REORDERED = "work/corpus-reordered.jsonl"
# also the two configurations perfbench's ref9 workload times with relate --pairs over its cache
BENCH_CONFIGS = ("soft-ic-dic-w3", "mts-g1-w16")


def commands(world: Path) -> list[list[str]]:
    """The command list, each as ``vocab-relate`` arguments; outputs are relative paths."""
    inputs = ["--vocab", str(world / "vocab.jsonl"), "--corpus", str(world / "corpus.jsonl")]
    if (world / "freq.tsv").exists():
        inputs += ["--freq-table", str(world / "freq.tsv")]
    judged = [*inputs, "--judgements", str(world / "judgements.tsv")]
    reordered = [REORDERED if arg == str(world / "corpus.jsonl") else arg for arg in judged]
    cache = ["--cache", "work/cache"]
    pairs = ["--pairs", "work/pairs.tsv"]
    cmds = [
        ["ic", *inputs, "--out", "ic.tsv"],
        ["graph", *inputs, "--graph", "g1", "--out", "graph-g1.tsv"],
        ["graph", *inputs, "--graph", "dic", "--out", "graph-dic.tsv"],
        ["simmatrix", *inputs, "--graph", "g1", "--lambda", "1", "--out", "simmatrix-g1-l1.tsv"],
        ["simmatrix", *inputs, "--graph", "dic", "--lambda", "2", "--out", "simmatrix-dic-l2.tsv"],
        # eps 0: every reachable pair, the search with no horizon
        *(["simmatrix", *inputs, "--graph", graph, "--lambda", "1", "--eps", "0",
           "--out", f"simmatrix-{graph}-l1-eps0.tsv"] for graph in ("g1", "dic")),
        ["sweep", *judged, *REFERENCE9, "--out", "sweep-ref9.csv"],
        ["sweep", *judged, *REFERENCE9, *cache, "--out", "sweep-ref9-fill.csv"],
        ["sweep", *judged, *REFERENCE9, *cache, "--out", "sweep-ref9-cached.csv"],
        # the same documents in another order: the same search sources, so the same stores
        ["sweep", *reordered, *REFERENCE9, *cache, "--out", "sweep-ref9-reordered-cached.csv"],
        *(["relate", *inputs, *RELATE_CONFIGS[name], *cache, *pairs,
           "--out", f"relate-{name}-pairs-cached.tsv"] for name in BENCH_CONFIGS),
        *(["simmatrix", *inputs, "--graph", graph, "--lambda", "1", *cache,
           "--out", f"simmatrix-{graph}-l1-cached.tsv"] for graph in ("g1", "dic")),
        ["sweep", *judged, "--methods", "mts,mts-rawdist", "--graphs", "g1,dic",
         "--slim-list", "true,false", "--out", "sweep-mts.csv"],
    ]
    for name in BENCH_CONFIGS:
        cmds.append(["bench", *judged, *RELATE_CONFIGS[name], "--out", f"bench-{name}.csv",
                     "--dump-dist", f"bench-{name}.dist.tsv"])
    for name, config in RELATE_CONFIGS.items():
        cmds.append(["relate", *inputs, *config, "--out", f"relate-{name}.tsv"])
        cmds.append(["relate", *inputs, *config, *pairs, "--out", f"relate-{name}-pairs.tsv"])
        cmds.append(["stats", "--scores", f"relate-{name}.tsv", "--judgements",
                     str(world / "judgements.tsv"), "--out", f"stats-{name}.tsv",
                     "--dump-dist", f"stats-{name}.dist.tsv"])
    return cmds


def write_pairs(world: Path, dest: Path) -> None:
    """Every pair of corpus documents, the larger id first."""
    vocab = parse_vocabulary(world / "vocab.jsonl")
    ids = sorted(parse_corpus(world / "corpus.jsonl", vocab).documents)
    with open(dest, "w", encoding="utf-8") as fh:
        for a, b in itertools.combinations(ids, 2):
            fh.write(f"{b}\t{a}\n")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    world = Path(argv[0]).resolve()
    os.makedirs(Path(argv[1]) / "work", exist_ok=True)
    os.chdir(argv[1])
    write_pairs(world, Path("work/pairs.tsv"))
    lines = (world / "corpus.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    Path(REORDERED).write_text("".join(reversed(lines)), encoding="utf-8")
    failed = [cmd[0] for cmd in commands(world) if vocab_relate(cmd) != 0]
    for path in sorted(Path().iterdir()):
        if path.is_file() and not path.name.endswith(".manifest.json"):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    if failed:
        print(f"{len(failed)} command(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
