"""Command line interface (installed as ``vocab-relate``).

Commands::

    convert-mesh  turn ASCII MeSH descriptor/qualifier files into a vocabulary
    ic            compute and save the information-content table
    graph         build and save a term graph (g1 or dic)
    simmatrix     materialize a sparse term similarity matrix
    relate        score document pairs with one configured method
    bench         run the benchmark protocols for one configuration
    sweep         benchmark a grid of configurations
    stats         summarize or compare saved score files

A command whose ``--out`` names a regular file also writes
``<out>.manifest.json`` with the parameters, SHA-256 digests of the inputs
and outputs, and timing.
Result files themselves contain no timestamps, so a rerun with identical
inputs is byte-identical.  ``--cache DIR`` is the ``cache`` of the
``benchmark.ArtifactSet`` each command reads its artifacts from: it keeps
similarity matrices for reuse across ``relate``, ``bench`` and ``sweep``, each
named by a digest of what its search reads; ``ic``, ``graph`` and
``simmatrix`` accept it and ignore it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import math
import sys
import time
from pathlib import Path
from typing import Sequence

from . import __version__
from .benchmark import (
    ArtifactSet,
    _score_population,
    _score_tables,
    ccc,
    filter_topics,
    ingest_judgements,
    log_skipped,
    pair_key,
    parameter_sweep,
    run_benchmark,
    separation_stats,
    write_distributions,
    write_results_csv,
)
from .errors import ConfigError, CycleError, MissingDataError, VocabrelError
from .infocontent import load_frequencies, save_ic_table
from .mesh import convert_mesh
from .model import (
    _file_sha256,
    parse_corpus,
    parse_vocabulary,
    read_pairs,
    validate,
)
from .relatedness import (
    GRAPHS,
    METHOD_LABELS,
    VECTORS,
    MethodConfig,
    pairwise_scores,
    read_scores,
    write_scores,
)
from .termgraph import export_similarities, save_graph

log = logging.getLogger("vocabrel")

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# the arguments that, when given a string, name a command's input or output files
_INPUT_ARGS = (
    "vocab", "corpus", "freq_table", "judgements", "pairs", "scores", "scores_b",
    "descriptors", "qualifiers",
)
_OUTPUT_ARGS = ("out", "dump_dist")


def _write_manifest(args: argparse.Namespace, started: float) -> None:
    """Write ``<out>.manifest.json`` when ``--out`` names a regular file."""
    if not args.out or not Path(args.out).is_file():
        return
    parameters = {
        k: v for k, v in vars(args).items() if k not in ("func", "command") and not callable(v)
    }
    inputs = {getattr(args, name, None) for name in _INPUT_ARGS}
    outputs = [getattr(args, name, None) for name in _OUTPUT_ARGS]
    manifest = {
        "command": args.command,
        "version": __version__,
        "parameters": parameters,
        "inputs": {p: _file_sha256(p) for p in sorted(i for i in inputs if isinstance(i, str))},
        "outputs": {p: _file_sha256(p) for p in outputs if p},
        "elapsed_seconds": round(time.perf_counter() - started, 3),
    }
    path = Path(f"{args.out}.manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# perfbench/tracer.py finds ic_table and matrix, which its cache probe wraps, under this name;
# ROADMAP item 1 re-points the probe at ArtifactSet and deletes the alias
Workspace = ArtifactSet


def _workspace(args: argparse.Namespace) -> ArtifactSet:
    vocab = parse_vocabulary(args.vocab)
    report = validate(vocab)
    if not report.ok:
        raise CycleError(report.cycles[0])
    corpus = None
    if getattr(args, "corpus", None):
        stats: dict = {}
        corpus = parse_corpus(args.corpus, vocab, strict=args.strict, stats=stats)
        if stats.get("skipped_terms") or stats.get("skipped_qualifiers"):
            log.warning(
                "lenient parse skipped %d unknown terms and %d unknown qualifiers",
                stats["skipped_terms"], stats["skipped_qualifiers"],
            )
        empties = stats.get("empty_documents") or []
        if empties:
            log.warning("%d documents have no annotations, e.g. %s", len(empties), empties[0])
    freq = None
    if getattr(args, "freq_table", None):
        freq = load_frequencies(args.freq_table, vocab, strict=args.strict)
    n_docs = len(corpus) if corpus is not None else 0
    log.info(
        "loaded %d terms, %d edges, %d qualifiers; %d documents",
        report.n_terms, report.n_edges, report.n_qualifiers, n_docs,
    )
    return ArtifactSet(
        vocab=vocab,
        corpus=corpus,
        freq=freq,
        eps=getattr(args, "eps", 1e-4),
        cache=getattr(args, "cache", None),
    )


def _config_from_args(args: argparse.Namespace) -> MethodConfig:
    config = MethodConfig.from_label(
        args.method,
        vector=args.vector,
        qualifiers=args.qualifiers,
        graph=args.graph,
        w=args.w,
        lam=args.lam,
        eps=args.eps,
        slim=args.slim,
    )
    config.validate()
    return config


def _filtered_judgements(args: argparse.Namespace):
    judgements = ingest_judgements(args.judgements)
    filtered, dropped = filter_topics(judgements, min_frac=args.min_frac)
    if dropped:
        log.info("dropped %d low-signal topic(s): %s", len(dropped), ", ".join(dropped))
    if not filtered:
        raise VocabrelError("no topics survive the relevance-fraction filter")
    return filtered


def cmd_convert_mesh(args: argparse.Namespace) -> None:
    stats = convert_mesh(args.descriptors, args.out, qualifier_source=args.qualifiers)
    log.info(
        "converted %d descriptors (%d edges) and %d qualifiers -> %s",
        stats["terms"], stats["edges"], stats["qualifiers"], args.out,
    )


def cmd_ic(args: argparse.Namespace) -> None:
    ws = _workspace(args)
    table = ws.ic_table()
    save_ic_table(table, args.out)
    if table.zero_aggregate:
        log.warning(
            "%d terms have zero aggregate count and receive the maximum IC",
            len(table.zero_aggregate),
        )
    log.info("wrote IC for %d terms (denominator %d) -> %s", len(table.ic), table.denominator, args.out)


def cmd_graph(args: argparse.Namespace) -> None:
    ws = _workspace(args)
    graph = ws.graph(args.graph)
    save_graph(graph, args.out)
    log.info("wrote %s graph: %d nodes, %d edges -> %s", graph.kind, len(graph.adj), graph.edge_count(), args.out)


def cmd_simmatrix(args: argparse.Namespace) -> None:
    if not 0 < args.lam < math.inf:  # nan and inf fail too
        raise ConfigError(f"simmatrix needs a finite --lambda > 0, got {args.lam}")
    ws = _workspace(args)  # the export reads no cache: its rows are not the store's block
    restrict = ws.corpus.term_ids() if ws.corpus is not None else None
    entries = export_similarities(ws.graph(args.graph), args.out, args.lam, args.eps, restrict)
    log.info(
        "wrote similarity matrix (%s, lambda=%g, eps=%g): %d stored entries -> %s",
        args.graph, args.lam, args.eps, entries, args.out,
    )


def cmd_relate(args: argparse.Namespace) -> None:
    config = _config_from_args(args)
    ws = _workspace(args)
    assert ws.corpus is not None
    scorer = ws.scorer(config)
    if args.pairs:
        pairs = read_pairs(args.pairs)
    else:
        ids = sorted(ws.corpus.documents)
        pairs = itertools.combinations(ids, 2)
    errors: list = []
    n = write_scores(args.out, config.tag(), pairwise_scores(ws.corpus, pairs, scorer, errors))
    log_skipped([f"{id_a}/{id_b}: {msg}" for id_a, id_b, msg in errors])
    log.info("scored %d of %d pairs (%d errors) -> %s", n, n + len(errors), len(errors), args.out)


def cmd_bench(args: argparse.Namespace) -> None:
    config = _config_from_args(args)
    ws = _workspace(args)
    assert ws.corpus is not None
    filtered = _filtered_judgements(args)
    scorer = ws.scorer(config)
    dump_lists: tuple[list, list] | None = ([], []) if args.dump_dist else None
    result = run_benchmark(
        ws.corpus, filtered, scorer,
        iterations=args.iterations, sample_size=args.sample_size,
        seed=args.seed, dump=dump_lists,
    )
    tag = (
        f"{config.tag()} seed={args.seed} iterations={args.iterations} "
        f"sample_size={args.sample_size} min_frac={args.min_frac:g}"
    )
    write_results_csv([result], args.out)
    if dump_lists is not None:
        write_distributions(dump_lists[0], dump_lists[1], args.dump_dist, header_tag=tag)
    log.info(
        "delta=%.4f phi=%.4f over %d same / %d separate pairs (%d errors, %d classifications) -> %s",
        result.delta, result.phi, result.n_same, result.n_separate,
        result.n_errors, result.n_classifications, args.out,
    )


def _parse_listflag(raw: str, conv, flag: str) -> list:
    values = []
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(conv(piece))
        except (ValueError, KeyError):
            raise ConfigError(f"bad value {piece!r} in {flag}") from None
    if not values:
        raise ConfigError(f"{flag} must list at least one value")
    return values


def _bool_word(raw: str) -> bool:
    return _BOOL_WORDS[raw.lower()]


def reference_configs(eps: float) -> list[MethodConfig]:
    """The nine headline configurations (best w per method family)."""
    return [
        MethodConfig("salton", vector="binary", w=1),
        MethodConfig("salton", vector="binary", w=3),
        MethodConfig("salton", vector="ic", w=2),
        MethodConfig("soft", vector="binary", graph="g1", w=4, lam=1.0, eps=eps),
        MethodConfig("soft", vector="binary", graph="dic", w=4, lam=1.0, eps=eps),
        MethodConfig("soft", vector="ic", graph="g1", w=3, lam=1.0, eps=eps),
        MethodConfig("soft", vector="ic", graph="dic", w=3, lam=1.0, eps=eps),
        MethodConfig("mts", graph="g1", w=16, lam=1.0, eps=eps),
        MethodConfig("mts", graph="dic", w=16, lam=2.0, eps=eps),
    ]


def sweep_configs(args: argparse.Namespace) -> list[MethodConfig]:
    """Cross product of the list flags, each configuration reduced to what its method reads."""
    if args.preset == "reference9":
        return reference_configs(args.eps)
    grid = itertools.product(
        _parse_listflag(args.methods, str, "--methods"),
        _parse_listflag(args.w_list, int, "--w-list"),
        _parse_listflag(args.vectors, str, "--vectors"),
        _parse_listflag(args.graphs, str, "--graphs"),
        _parse_listflag(args.lambda_list, float, "--lambda-list"),
        _parse_listflag(args.slim_list, _bool_word, "--slim-list"),
        _parse_listflag(args.qualifiers_list, _bool_word, "--qualifiers-list"),
    )
    # first-seen order: method, then w, then the method's own parameters in flag order
    unique: dict[MethodConfig, None] = {}
    for label, w, vector, graph, lam, slim, qualifiers in grid:
        config = MethodConfig.from_label(
            label, vector=vector, qualifiers=qualifiers, graph=graph, w=w, lam=lam,
            eps=args.eps, slim=slim,
        ).applicable()
        config.validate()
        unique.setdefault(config)
    return list(unique)


def cmd_sweep(args: argparse.Namespace) -> None:
    configs = sweep_configs(args)
    ws = _workspace(args)
    filtered = _filtered_judgements(args)
    log.info("sweeping %d configuration(s)", len(configs))
    results = parameter_sweep(
        configs, ws, filtered,
        iterations=args.iterations, sample_size=args.sample_size, seed=args.seed,
    )
    write_results_csv(results, args.out)
    failed = sum(1 for r in results if r.note)
    log.info("wrote %d rows (%d failed cells) -> %s", len(results), failed, args.out)


def cmd_stats(args: argparse.Namespace) -> None:
    if args.dump_dist and not args.judgements:
        raise ConfigError("--dump-dist needs --judgements to split the populations")
    header_a, rows_a = read_scores(args.scores)
    values_a = [v for _, _, v in rows_a]
    map_a = {pair_key(a, b): v for a, b, v in rows_a}
    out_lines: list[tuple[str, str]] = [
        ("scores_a", args.scores),
        ("n_a", str(len(rows_a))),
    ]
    if values_a:
        out_lines.append(("mean_a", f"{sum(values_a) / len(values_a):.17g}"))
    if args.scores_b:
        header_b, rows_b = read_scores(args.scores_b)
        map_b = {pair_key(a, b): v for a, b, v in rows_b}
        common = sorted(map_a.keys() & map_b.keys())
        out_lines += [
            ("scores_b", args.scores_b),
            ("n_b", str(len(rows_b))),
            ("n_common", str(len(common))),
            ("n_only_a", str(len(map_a) - len(common))),
            ("n_only_b", str(len(map_b) - len(common))),
        ]
        if len(common) >= 2:
            aligned_a = [map_a[k] for k in common]
            aligned_b = [map_b[k] for k in common]
            try:
                out_lines.append(("ccc", f"{ccc(aligned_a, aligned_b):.17g}"))
            except ValueError as exc:
                out_lines.append(("ccc_error", str(exc)))
    if args.judgements:
        def stored(ids, a, b):  # the file's score of each pair; a pair it lacks is a MissingDataError
            pairs = [(ids[x], ids[y]) for x, y in zip(a.tolist(), b.tolist())]
            return [map_a.get(p, float("nan")) for p in pairs], {
                k: MissingDataError(f"pair ({x}, {y}) is not in {args.scores}")
                for k, (x, y) in enumerate(pairs) if (x, y) not in map_a}
        tables = _score_tables(_filtered_judgements(args), stored)
        missing: list[str] = []
        same = _score_population(tables, 2, missing)
        separate = _score_population(tables, 1, missing)
        out_lines += [
            ("n_same", str(len(same))),
            ("n_separate", str(len(separate))),
            ("n_missing_pairs", str(len(missing))),
        ]
        if len(same) and len(separate):
            out_lines += [(k, f"{v:.17g}") for k, v in separation_stats(same, separate).items()]
        if args.dump_dist:
            write_distributions(same, separate, args.dump_dist, header_tag=header_a)
    text = f"#stats source={args.scores} {header_a}\n".rstrip() + "\n"
    text += "".join(f"{k}\t{v}\n" for k, v in out_lines)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vocab-relate",
        description="Relatedness of documents indexed with a hierarchical controlled vocabulary.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_vocab = argparse.ArgumentParser(add_help=False)
    p_vocab.add_argument("--vocab", required=True, help="vocabulary file (JSONL)")
    p_vocab.add_argument(
        "--strict", action=argparse.BooleanOptionalAction, default=True,
        help="fail on unknown term/qualifier ids (default: strict)",
    )
    p_vocab.add_argument(
        "--cache", help="directory for the similarity matrices relate, bench and sweep reuse",
    )

    p_corpus = argparse.ArgumentParser(add_help=False)
    p_corpus.add_argument("--corpus", required=True, help="corpus file (JSONL)")

    p_corpus_opt = argparse.ArgumentParser(add_help=False)
    p_corpus_opt.add_argument("--corpus", help="corpus file (JSONL)")

    p_freq = argparse.ArgumentParser(add_help=False)
    p_freq.add_argument(
        "--freq-table",
        help="external term<TAB>count frequency table (overrides corpus frequencies)",
    )

    p_out = argparse.ArgumentParser(add_help=False)
    p_out.add_argument("--out", required=True, help="output file")

    p_workers = argparse.ArgumentParser(add_help=False)
    p_workers.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility and ignored: scoring runs in one thread",
    )

    p_eps = argparse.ArgumentParser(add_help=False)
    p_eps.add_argument(
        "--eps", type=float, default=1e-4,
        help="similarity floor for matrix storage (default 1e-4)",
    )

    p_method = argparse.ArgumentParser(add_help=False)
    p_method.add_argument(
        "--method", required=True, choices=METHOD_LABELS,
        help="relatedness method",
    )
    p_method.add_argument(
        "--vector", choices=VECTORS, default="binary",
        help="vector weighting for salton/soft (default binary)",
    )
    p_method.add_argument(
        "--qualifiers", action=argparse.BooleanOptionalAction, default=False,
        help="augment vectors with (term, qualifier) dimensions (salton only)",
    )
    p_method.add_argument("--graph", choices=GRAPHS, help="term graph for soft/mts")
    p_method.add_argument("--w", type=int, default=1, help="major term weight (default 1)")
    p_method.add_argument(
        "--lambda", dest="lam", type=float, default=None,
        help="distance decay for soft/mts similarities",
    )
    p_method.add_argument(
        "--slim", action=argparse.BooleanOptionalAction, default=False,
        help="mts: drop minor terms before matching",
    )

    p_eval = argparse.ArgumentParser(add_help=False)
    p_eval.add_argument("--judgements", required=True, help="topic<TAB>doc<TAB>level file")
    p_eval.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p_eval.add_argument(
        "--iterations", type=int, default=50,
        help="classification iterations per topic (default 50)",
    )
    p_eval.add_argument(
        "--sample-size", type=int, default=10,
        help="seed documents per class and iteration (default 10)",
    )
    p_eval.add_argument(
        "--min-frac", type=float, default=0.10,
        help="minimum relevant fraction for a topic to enter (default 0.10)",
    )

    p = sub.add_parser(
        "convert-mesh", help="convert ASCII MeSH files to the vocabulary format",
    )
    p.add_argument("--descriptors", required=True, help="descriptor file (d####.bin)")
    p.add_argument("--qualifiers", help="qualifier file (q####.bin)")
    p.add_argument("--out", required=True, help="output vocabulary file")
    p.set_defaults(func=cmd_convert_mesh)

    p = sub.add_parser(
        "ic", parents=[p_vocab, p_corpus_opt, p_freq, p_out],
        help="compute the information-content table",
    )
    p.set_defaults(func=cmd_ic)

    p = sub.add_parser(
        "graph", parents=[p_vocab, p_corpus_opt, p_freq, p_out],
        help="build a term graph",
    )
    p.add_argument("--graph", required=True, choices=GRAPHS, help="edge weighting")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser(
        "simmatrix", parents=[p_vocab, p_corpus_opt, p_freq, p_eps, p_out],
        help="materialize a sparse term similarity matrix",
    )
    p.add_argument("--graph", required=True, choices=GRAPHS, help="edge weighting")
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="distance decay")
    p.set_defaults(func=cmd_simmatrix)

    p = sub.add_parser(
        "relate", parents=[p_vocab, p_corpus, p_freq, p_method, p_eps, p_workers, p_out],
        help="score document pairs",
    )
    p.add_argument("--pairs", help="doc_a<TAB>doc_b pair list (default: all corpus pairs)")
    p.set_defaults(func=cmd_relate)

    p = sub.add_parser(
        "bench", parents=[p_vocab, p_corpus, p_freq, p_method, p_eps, p_eval, p_workers, p_out],
        help="run the benchmark for one configuration",
    )
    p.add_argument("--dump-dist", help="also dump the two score populations to this file")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "sweep", parents=[p_vocab, p_corpus, p_freq, p_eps, p_eval, p_workers, p_out],
        help="benchmark a grid of configurations",
    )
    p.add_argument("--methods", default="salton", help=f"comma list: {','.join(METHOD_LABELS)}")
    p.add_argument("--vectors", default="binary", help=f"comma list: {','.join(VECTORS)}")
    p.add_argument("--graphs", default="g1", help=f"comma list: {','.join(GRAPHS)}")
    p.add_argument("--w-list", default="1", help="comma list of major term weights")
    p.add_argument("--lambda-list", default="1", help="comma list of decay values")
    p.add_argument("--slim-list", default="false", help="comma list of true/false")
    p.add_argument("--qualifiers-list", default="false", help="comma list of true/false")
    p.add_argument(
        "--preset", choices=["reference9"],
        help="named configuration set (overrides the list flags)",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("stats", help="summarize or compare saved score files")
    p.add_argument("--scores", required=True, help="score file to summarize")
    p.add_argument("--scores-b", help="second score file; reports concordance against it")
    p.add_argument("--judgements", help="judgement file; reports delta and skewness")
    p.add_argument(
        "--min-frac", type=float, default=0.10,
        help="topic filter threshold when --judgements is given (default 0.10)",
    )
    p.add_argument("--dump-dist", help="dump same/separate populations to this file")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        started = time.perf_counter()
        args.func(args)
        _write_manifest(args, started)
    except (VocabrelError, OSError, ValueError) as exc:
        log.error("%s", exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
