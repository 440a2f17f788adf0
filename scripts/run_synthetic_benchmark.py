#!/usr/bin/env python3
"""Run the nine reference configurations on a synthetic world and print a table.

A quick end-to-end exercise of the whole pipeline (IC, graphs, similarity
matrices, three methods, both evaluation protocols) without any external data.
"""

from __future__ import annotations

import argparse
import sys

from vocabrel.benchmark import (
    ArtifactSet,
    filter_topics,
    parameter_sweep,
    write_results_csv,
)
from vocabrel.cli import reference_configs
from vocabrel.relatedness import MethodConfig
from vocabrel.synthdata import SynthConfig, make_benchmark_data


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7, help="synthetic data seed")
    parser.add_argument("--bench-seed", type=int, default=0, help="classification sampling seed")
    parser.add_argument("--iterations", type=int, default=50)
    parser.add_argument("--sample-size", type=int, default=5)
    parser.add_argument("--eps", type=float, default=1e-4)
    parser.add_argument("--out", help="optional results CSV path")
    args = parser.parse_args()

    vocab, corpus, judgements = make_benchmark_data(SynthConfig(seed=args.seed))
    filtered, dropped = filter_topics(judgements)
    if dropped:
        print(f"dropped low-signal topics: {dropped}", file=sys.stderr)

    configs = reference_configs(args.eps)
    configs.append(
        MethodConfig("mts", graph="g1", w=2, lam=1.0, eps=args.eps, raw_distance=True)
    )
    artifacts = ArtifactSet(vocab=vocab, corpus=corpus, eps=args.eps)
    results = parameter_sweep(
        configs,
        artifacts,
        filtered,
        iterations=args.iterations,
        sample_size=args.sample_size,
        seed=args.bench_seed,
    )

    print(f"{'configuration':<72} {'delta':>7} {'phi':>7}")
    for r in results:
        if r.note:
            print(f"{r.config.tag():<72} failed: {r.note}")
        else:
            print(f"{r.config.tag():<72} {r.delta:7.3f} {r.phi:7.3f}")
    if args.out:
        write_results_csv(results, args.out)
        print(f"results written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
