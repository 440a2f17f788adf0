import csv
import hashlib
import itertools
import json
import os
import random
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

from vocabrel import cli, model
from vocabrel.benchmark import (
    ArtifactSet, Level, build_pairs, filter_topics, ingest_judgements, pair_key, separation_stats,
)
from vocabrel.cli import main, reference_configs, sweep_configs
from vocabrel.errors import VocabrelError
from vocabrel.model import Corpus, Document, parse_vocabulary
from vocabrel.relatedness import _CHUNK, MethodConfig, read_scores, write_scores
from vocabrel.termgraph import ENTRY_RULE, SimMatrix

from test_mesh import DESCRIPTORS, QUALIFIERS
from util import rewrite_store


def sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(*argv) -> int:
    return main([str(a) for a in argv])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "vocab-relate" in capsys.readouterr().out


def test_ic_command_writes_table_and_manifest(synth_files, tmp_path):
    out = tmp_path / "ic.tsv"
    assert run(
        "ic", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
        "--out", out,
    ) == 0
    first = out.read_text().splitlines()[0]
    assert first.startswith("#ictable ")
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["command"] == "ic"
    assert manifest["inputs"][synth_files["vocab"]] == sha(synth_files["vocab"])
    assert manifest["outputs"][str(out)] == sha(out)
    assert "elapsed_seconds" in manifest


def test_graph_command(synth_files, tmp_path):
    out = tmp_path / "graph.tsv"
    assert run("graph", "--vocab", synth_files["vocab"], "--graph", "g1", "--out", out) == 0
    assert out.read_text().startswith("#termgraph kind=g1 ")


def test_simmatrix_cache_round_trip(synth_files, tmp_path):
    cache = tmp_path / "cache"
    out1, out2, out3 = (tmp_path / f"m{i}.tsv" for i in range(3))
    args = (
        "simmatrix", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
        "--graph", "dic", "--lambda", "1.5", "--cache", cache,
    )
    assert run(*args, "--out", out1) == 0
    assert run(*args, "--out", out2) == 0  # cache hit
    shutil.rmtree(cache)
    assert run(*args, "--out", out3) == 0  # rebuilt from scratch
    assert sha(out1) == sha(out2) == sha(out3)
    assert out1.read_text().startswith("#simmatrix graph=dic lambda=1.5 ")


def test_relate_defaults_to_all_pairs(synth_files, tmp_path, capsys):
    out = tmp_path / "scores.tsv"
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("T0D000\tT0D001\nT0D000\tT1D000\n")
    assert run(
        "relate", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
        "--method", "salton", "--pairs", pairs, "--out", out,
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("#method salton ")
    assert len(lines) == 3
    same_topic = float(lines[1].split("\t")[2])
    cross_topic = float(lines[2].split("\t")[2])
    assert same_topic > cross_topic


def test_relate_rejects_incoherent_flags(synth_files, tmp_path):
    # salton takes no lambda; the config validator must reject it
    assert run(
        "relate", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
        "--method", "salton", "--lambda", "1", "--out", tmp_path / "x.tsv",
    ) == 1


@pytest.mark.parametrize(
    "flags, name",
    [
        (["--method", "mts", "--graph", "g1", "--lambda", "1", "--vector", "ic"], "vector"),
        (["--method", "salton", "--eps", "0.001"], "eps"),
    ],
)
def test_relate_rejects_a_flag_the_method_does_not_read(synth_files, tmp_path, caplog, flags, name):
    out = tmp_path / "x.tsv"
    assert run(
        "relate", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
        *flags, "--out", out,
    ) == 1
    assert f"does not read {name}" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("lam", ["nan", "inf", "0"])
@pytest.mark.parametrize("command", ["relate", "simmatrix", "sweep"])
def test_a_lambda_that_is_not_finite_and_positive_is_rejected(synth_files, tmp_path, caplog, command, lam):
    # nan once scored every pair against an empty store, and inf stored every reachable pair at 1
    flags = {
        "relate": ["--method", "soft", "--graph", "g1", "--lambda", lam],
        "simmatrix": ["--graph", "g1", "--lambda", lam],
        "sweep": ["--judgements", synth_files["judgements"], "--methods", "soft,mts",
                  "--graphs", "g1", "--lambda-list", f"1,{lam}"],
    }[command]
    out = tmp_path / "x.out"
    assert run(
        command, "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"], *flags, "--out", out,
    ) == 1
    assert "lambda > 0, got " in caplog.text
    assert not out.exists()


def test_stats_self_concordance(synth_files, tmp_path, capsys):
    out = tmp_path / "scores.tsv"
    run(
        "relate", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
        "--method", "salton", "--out", out,
    )
    capsys.readouterr()
    assert run("stats", "--scores", out, "--scores-b", out) == 0
    report = dict(
        line.split("\t") for line in capsys.readouterr().out.splitlines()
        if "\t" in line
    )
    assert report["n_common"] == report["n_a"]
    assert float(report["ccc"]) == 1.0


def test_stats_judgement_split(synth_files, tmp_path, capsys):
    out = tmp_path / "scores.tsv"
    run(
        "relate", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
        "--method", "salton", "--out", out,
    )
    capsys.readouterr()
    assert run(
        "stats", "--scores", out, "--judgements", synth_files["judgements"],
    ) == 0
    report = dict(
        line.split("\t") for line in capsys.readouterr().out.splitlines()
        if "\t" in line
    )
    assert int(report["n_same"]) > 0
    assert int(report["n_missing_pairs"]) == 0
    assert -1.0 <= float(report["delta"]) <= 1.0


@pytest.mark.parametrize(
    "method",
    [
        ("salton", "--vector", "ic", "--w", "2"),
        ("soft", "--vector", "ic", "--graph", "dic", "--w", "3", "--lambda", "1"),
        ("mts", "--graph", "g1", "--w", "16", "--lambda", "1"),
    ],
    ids=["salton-ic-w2", "soft-ic-dic-w3", "mts-g1-w16"],
)
def test_stats_reports_the_bench_statistics(synth_files, tmp_path, capsys, method):
    data = ("--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"])
    scores, bench = tmp_path / "scores.tsv", tmp_path / "bench.csv"
    assert run("relate", *data, "--method", *method, "--out", scores) == 0
    assert run(
        "bench", *data, "--judgements", synth_files["judgements"], "--method", *method,
        "--iterations", "1", "--out", bench,
    ) == 0
    capsys.readouterr()
    assert run("stats", "--scores", scores, "--judgements", synth_files["judgements"]) == 0
    report = dict(
        line.split("\t") for line in capsys.readouterr().out.splitlines()
        if "\t" in line
    )
    with open(bench, newline="") as fh:
        [row] = csv.DictReader(fh)
    assert report["n_missing_pairs"] == "0"
    for stats_key, csv_key in (
        ("delta", "delta"), ("mean_same", "mean_same"), ("mean_separate", "mean_sep"),
        ("skew_same", "skew_same"), ("skew_separate", "skew_sep"),
    ):
        assert report[stats_key] == row[csv_key], stats_key


def test_stats_counts_only_the_population_pairs_missing_from_the_score_file(synth_files, tmp_path, capsys):
    full, scores = tmp_path / "full.tsv", tmp_path / "scores.tsv"
    report, dump = tmp_path / "report.tsv", tmp_path / "dump.tsv"
    assert run("relate", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
               "--method", "salton", "--vector", "ic", "--w", "2", "--out", full) == 0
    header, rows = read_scores(full)
    value = {pair_key(a, b): v for a, b, v in rows}
    judgements, _ = filter_topics(ingest_judgements(synth_files["judgements"]))
    pairs = build_pairs(judgements)
    population = pairs.same_topic + pairs.separate_topic
    in_population = {(a, b) for _, a, b in population}
    levels = {(j.topic, j.doc): j.level for j in judgements}
    by_topic: dict = {}
    for j in judgements:
        by_topic.setdefault(j.topic, []).append(j.doc)
    # pairs judged, but with no relevant document under any of their topics
    neither = [(a, b) for t, docs in sorted(by_topic.items()) for a, b in itertools.combinations(sorted(docs), 2)
               if Level.RELEVANT not in (levels[t, a], levels[t, b]) and (a, b) not in in_population]
    deleted = {(a, b) for _, a, b in pairs.same_topic[3:7] + pairs.separate_topic[-5:]}
    deleted |= set(neither[:4])
    kept = [(a, b, v) for a, b, v in rows if pair_key(a, b) not in deleted]
    assert len(rows) - len(kept) == len(deleted) == 13
    write_scores(scores, header, kept)
    capsys.readouterr()
    assert run("stats", "--scores", scores, "--judgements", synth_files["judgements"],
               "--out", report, "--dump-dist", dump) == 0
    got = dict(line.split("\t") for line in report.read_text().splitlines()[1:])
    same = [value[a, b] for _, a, b in pairs.same_topic if (a, b) not in deleted]
    separate = [value[a, b] for _, a, b in pairs.separate_topic if (a, b) not in deleted]
    # a deleted pair judged under several topics is missing from each of their populations
    missing = sum((a, b) in deleted for _, a, b in population)
    assert got["n_missing_pairs"] == str(missing) and missing >= 9
    assert (got["n_same"], got["n_separate"]) == (str(len(same)), str(len(separate)))
    for key, stat in separation_stats(same, separate).items():
        assert got[key] == f"{stat:.17g}", key
    assert dump.read_text().splitlines()[1:] == (
        [f"same\t{v:.17g}" for v in same] + [f"separate\t{v:.17g}" for v in separate])


def test_stats_dump_dist_without_judgements_writes_nothing(synth_files, tmp_path):
    scores, out, dump = tmp_path / "scores.tsv", tmp_path / "report.tsv", tmp_path / "dump.tsv"
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("T0D000\tT0D001\n")
    assert run(
        "relate", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
        "--method", "salton", "--pairs", pairs, "--out", scores,
    ) == 0
    assert run("stats", "--scores", scores, "--dump-dist", dump, "--out", out) == 1
    assert not out.exists() and not dump.exists()


@pytest.mark.parametrize("command", ["relate", "bench", "sweep", "stats", "simmatrix"])
def test_manifest_lists_the_input_and_output_files(synth_files, tmp_path, command):
    vocab, corpus, judgements = synth_files["vocab"], synth_files["corpus"], synth_files["judgements"]
    data = ("--vocab", vocab, "--corpus", corpus)
    out, dump, scores = (str(tmp_path / name) for name in ("out", "dump.tsv", "scores.tsv"))
    pairs = str(tmp_path / "pairs.tsv")
    Path(pairs).write_text("T0D000\tT0D001\n")
    assert run("relate", *data, "--method", "salton", "--out", scores) == 0
    argv, inputs, outputs = {
        # --qualifiers is a flag here, not a file
        "relate": (
            ("relate", *data, "--method", "salton", "--qualifiers", "--pairs", pairs),
            {vocab, corpus, pairs}, {out},
        ),
        "bench": (
            ("bench", *data, "--judgements", judgements, "--method", "salton",
             "--iterations", "1", "--dump-dist", dump),
            {vocab, corpus, judgements}, {out, dump},
        ),
        "sweep": (
            ("sweep", *data, "--judgements", judgements, "--iterations", "1"),
            {vocab, corpus, judgements}, {out},
        ),
        "stats": (
            ("stats", "--scores", scores, "--scores-b", scores, "--judgements", judgements,
             "--dump-dist", dump),
            {scores, judgements}, {out, dump},
        ),
        "simmatrix": (
            ("simmatrix", *data, "--graph", "g1", "--lambda", "1"), {vocab, corpus}, {out},
        ),
    }[command]
    assert run(*argv, "--out", out) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["inputs"] == {p: sha(p) for p in inputs}
    assert manifest["outputs"] == {p: sha(p) for p in outputs}


def test_no_manifest_beside_an_output_that_is_not_a_regular_file(synth_files):
    stray = Path(f"{os.devnull}.manifest.json")
    stray.unlink(missing_ok=True)  # earlier versions wrote one beside the null device
    try:
        assert run(
            "ic", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
            "--out", os.devnull,
        ) == 0
        assert not stray.exists()
    finally:
        stray.unlink(missing_ok=True)


def test_bench_is_byte_identical_across_workers(synth_files, tmp_path):
    outputs = []
    for workers in (1, 2, 8):
        out = tmp_path / f"bench-w{workers}.csv"
        dump = tmp_path / f"dump-w{workers}.tsv"
        assert run(
            "bench", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
            "--judgements", synth_files["judgements"],
            "--method", "soft", "--vector", "ic", "--graph", "dic", "--w", "3",
            "--lambda", "1", "--seed", "11", "--iterations", "5",
            "--workers", workers, "--out", out, "--dump-dist", dump,
        ) == 0
        outputs.append((sha(out), sha(dump)))
    assert outputs[0] == outputs[1] == outputs[2]


def test_truncated_matrix_cache_is_rebuilt(synth_files, tmp_path, caplog):
    cache = tmp_path / "cache"
    args = (
        "bench", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
        "--judgements", synth_files["judgements"],
        "--method", "soft", "--vector", "ic", "--graph", "g1", "--w", "3",
        "--lambda", "1", "--iterations", "5", "--cache", cache,
    )
    fresh, after_cut, after_rebuild = (tmp_path / f"bench-{i}.csv" for i in range(3))
    assert run(*args, "--out", fresh) == 0
    [matrix_file] = cache.glob("simmatrix-*.npz")
    data = matrix_file.read_bytes()
    matrix_file.write_bytes(data[: len(data) // 2])
    assert run(*args, "--out", after_cut) == 0
    assert "rebuilding" in caplog.text
    assert matrix_file.read_bytes() == data
    assert run(*args, "--out", after_rebuild) == 0
    assert fresh.read_bytes() == after_cut.read_bytes() == after_rebuild.read_bytes()
    assert not list(cache.glob("*.tmp"))  # the atomic writes left no temporary files


def _soft_bench(synth_files, cache, *config):
    return (
        "bench", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
        "--judgements", synth_files["judgements"], "--method", "soft", "--vector", "ic",
        "--w", "3", "--iterations", "5", "--cache", cache, *config,
    )


def test_store_without_integrity_fields_is_rebuilt(synth_files, tmp_path, caplog):
    cache = tmp_path / "cache"
    args = _soft_bench(synth_files, cache, "--graph", "g1", "--lambda", "1")
    fresh, after_edit = tmp_path / "fresh.csv", tmp_path / "after-edit.csv"
    assert run(*args, "--out", fresh) == 0
    [store] = cache.glob("simmatrix-*.npz")
    data = store.read_bytes()

    def strip(header, arrays):
        # a store whose header lacks its entry count and digest, cut short
        del header["entries"], header["sha256"]
        for name in ("a", "b", "sim"):
            arrays[name] = arrays[name][: len(arrays[name]) // 2]

    store.write_bytes(rewrite_store(data, strip))
    caplog.clear()
    assert run(*args, "--out", after_edit) == 0
    assert "cached similarity matrix unreadable, rebuilding" in caplog.text
    assert "cache hit: similarity matrix" not in caplog.text
    assert store.read_bytes() == data  # rewritten with both fields
    assert after_edit.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize(
    "config", [("--graph", "dic", "--lambda", "1"), ("--graph", "g1", "--lambda", "2")],
    ids=["other-graph", "other-lambda"],
)
def test_store_copied_under_another_cache_name_is_rebuilt(synth_files, tmp_path, caplog, config):
    cache = tmp_path / "cache"
    source = _soft_bench(synth_files, cache, "--graph", "g1", "--lambda", "1")
    target = _soft_bench(synth_files, cache, *config)
    fresh, after_copy = tmp_path / "fresh.csv", tmp_path / "after-copy.csv"
    assert run(*source, "--out", tmp_path / "source.csv") == 0
    [source_store] = cache.glob("simmatrix-*.npz")
    assert run(*target, "--out", fresh) == 0
    [target_store] = set(cache.glob("simmatrix-*.npz")) - {source_store}
    data = target_store.read_bytes()
    shutil.copyfile(source_store, target_store)
    caplog.clear()
    assert run(*target, "--out", after_copy) == 0
    assert target_store.name in caplog.text and "rebuilding" in caplog.text
    assert target_store.read_bytes() == data
    assert after_copy.read_bytes() == fresh.read_bytes()


def test_dic_store_built_from_another_frequency_source_is_rebuilt(synth_files, tmp_path, caplog):
    cache = tmp_path / "cache"
    freq = tmp_path / "freq.tsv"
    terms = sorted(parse_vocabulary(synth_files["vocab"]).terms)
    freq.write_text("".join(f"{t}\t{i % 7}\n" for i, t in enumerate(terms)))
    args = ("simmatrix", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
            "--graph", "dic", "--lambda", "1", "--cache", cache)
    from_table, fresh, after_copy = (tmp_path / f"{name}.tsv" for name in ("table", "fresh", "copy"))
    assert run(*args, "--freq-table", freq, "--out", from_table) == 0
    [table_store] = cache.glob("simmatrix-*.npz")
    assert run(*args, "--out", fresh) == 0
    [corpus_store] = set(cache.glob("simmatrix-*.npz")) - {table_store}
    assert from_table.read_bytes() != fresh.read_bytes()
    data = corpus_store.read_bytes()
    shutil.copyfile(table_store, corpus_store)  # same graph, lambda and eps; other IC
    caplog.clear()
    assert run(*args, "--out", after_copy) == 0
    assert corpus_store.name in caplog.text and "rebuilding" in caplog.text
    assert corpus_store.read_bytes() == data
    assert after_copy.read_bytes() == fresh.read_bytes()


def test_store_cached_under_the_earlier_entry_rule_is_rebuilt(synth_files, tmp_path, caplog, monkeypatch):
    cache = tmp_path / "cache"
    args = ("simmatrix", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
            "--graph", "dic", "--lambda", "1")
    fresh, after = tmp_path / "fresh.tsv", tmp_path / "after.tsv"
    assert run(*args, "--out", fresh) == 0
    # cache the store as the earlier rule did: its header's inputs digest names no entry rule
    digest = cli._digest
    monkeypatch.setattr(cli, "_digest", lambda *parts: digest(*(p for p in parts if p != ENTRY_RULE)))
    assert run(*args, "--cache", cache, "--out", tmp_path / "earlier.tsv") == 0
    monkeypatch.undo()
    [store] = cache.glob("simmatrix-*.npz")
    earlier = SimMatrix.load(store).inputs
    caplog.clear()
    assert run(*args, "--cache", cache, "--out", after) == 0
    assert f"cached similarity matrix {store.name} does not match the request, rebuilding" in caplog.text
    assert SimMatrix.load(store).inputs not in ("", earlier)
    assert after.read_bytes() == fresh.read_bytes()


def _cached_stores(synth_files, cache, *inputs):
    """The bytes of the g1 and dic stores at lambda 1 exported through ``cache``."""
    outputs = []
    for graph in ("g1", "dic"):
        out = Path(cache).parent / f"{graph}.tsv"
        assert run("simmatrix", "--vocab", synth_files["vocab"], *inputs, "--graph", graph,
                   "--lambda", "1", "--cache", cache, "--out", out) == 0
        outputs.append(out.read_bytes())
    return outputs


def test_a_corpus_with_its_lines_reordered_reuses_every_cached_store(synth_files, tmp_path, caplog):
    caplog.set_level("INFO")
    cache = tmp_path / "cache"
    reordered = tmp_path / "reordered.jsonl"
    lines = Path(synth_files["corpus"]).read_text().splitlines(keepends=True)
    reordered.write_text("".join(reversed(lines)))  # the same documents, so the same search sources
    fresh = _cached_stores(synth_files, cache, "--corpus", synth_files["corpus"])
    stores = sorted(cache.iterdir())
    caplog.clear()
    assert _cached_stores(synth_files, cache, "--corpus", reordered) == fresh
    assert caplog.text.count("cache hit: similarity matrix") == 2
    assert sorted(cache.iterdir()) == stores


def test_a_frequency_table_that_moves_an_ic_value_rebuilds_only_the_dic_store(synth_files, tmp_path, caplog):
    caplog.set_level("INFO")
    cache = tmp_path / "cache"
    freq = tmp_path / "freq.tsv"
    terms = sorted(parse_vocabulary(synth_files["vocab"]).terms)
    counts = {t: i % 7 for i, t in enumerate(terms)}
    inputs = ("--corpus", synth_files["corpus"], "--freq-table", freq)
    freq.write_text("".join(f"{t}\t{c}\n" for t, c in counts.items()))
    g1, dic = _cached_stores(synth_files, cache, *inputs)
    stores = set(cache.iterdir())
    freq.write_text("".join(reversed(freq.read_text().splitlines(keepends=True))))  # the same IC
    caplog.clear()
    assert _cached_stores(synth_files, cache, *inputs) == [g1, dic]
    assert caplog.text.count("cache hit: similarity matrix") == 2 and set(cache.iterdir()) == stores
    counts[terms[0]] += 100
    freq.write_text("".join(f"{t}\t{c}\n" for t, c in counts.items()))
    caplog.clear()
    g1_after, dic_after = _cached_stores(synth_files, cache, *inputs)
    assert g1_after == g1 and dic_after != dic
    [g1_store] = [path for path in stores if SimMatrix.load(path).kind == "g1"]
    [hit] = [line for line in caplog.text.splitlines() if "cache hit: similarity matrix" in line]
    [rebuilt] = set(cache.iterdir()) - stores
    assert g1_store.name in hit and SimMatrix.load(rebuilt).kind == "dic"


def test_the_cache_holds_only_similarity_matrices(synth_files, tmp_path):
    cache = tmp_path / "cache"
    for config in (("--method", "salton", "--vector", "ic", "--w", "2"),
                   ("--method", "soft", "--vector", "ic", "--graph", "dic", "--w", "3", "--lambda", "1")):
        assert run("bench", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
                   "--judgements", synth_files["judgements"], *config, "--iterations", "5",
                   "--cache", cache, "--out", tmp_path / "bench.csv") == 0
    assert run("ic", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
               "--cache", cache, "--out", tmp_path / "ic.tsv") == 0
    [store] = cache.iterdir()
    assert store.name.startswith("simmatrix-") and store.suffix == ".npz"


def test_ic_orders_the_vocabulary_once(synth_files, tmp_path, monkeypatch):
    passes = []
    kahn = model._kahn
    monkeypatch.setattr(model, "_kahn", lambda vocab: passes.append(vocab) or kahn(vocab))
    assert run(
        "ic", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
        "--out", tmp_path / "ic.tsv",
    ) == 0
    assert len(passes) == 1


def test_bench_same_seed_same_bytes(synth_files, tmp_path):
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / f"bench-{name}.csv"
        assert run(
            "bench", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
            "--judgements", synth_files["judgements"],
            "--method", "salton", "--w", "3", "--seed", "42", "--iterations", "5",
            "--out", out,
        ) == 0
        hashes.append(sha(out))
    assert hashes[0] == hashes[1]


def test_bench_rejects_nonpositive_iterations(synth_files, tmp_path):
    assert run(
        "bench", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
        "--judgements", synth_files["judgements"],
        "--method", "salton", "--iterations", "0", "--out", tmp_path / "x.csv",
    ) == 1


def test_sweep_grid(synth_files, tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(
        "sweep", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"],
        "--judgements", synth_files["judgements"],
        "--methods", "salton,mts", "--w-list", "1,3", "--iterations", "2",
        "--sample-size", "5", "--out", out,
    ) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("method,vector,graph,w,lambda,slim,")
    assert len(lines) == 1 + 4  # salton w in {1,3} plus mts w in {1,3}
    for line in lines[1:]:
        cells = line.split(",")
        # delta and phi computed for every cell (skew_sep may be nan: the
        # cross-topic salton population is constant zero in this world)
        assert cells[6] != "nan" and cells[7] != "nan"


def test_sweep_reference_preset_shape():
    configs = reference_configs(1e-4)
    assert len(configs) == 9
    labels = [c.method_label for c in configs]
    assert labels.count("salton") == 3
    assert labels.count("soft") == 4
    assert labels.count("mts") == 2


def test_sweep_configs_cross_product():
    import argparse

    args = argparse.Namespace(
        preset=None, methods="salton,soft,mts,mts-rawdist", vectors="binary,ic",
        graphs="g1,dic", w_list="1,3", lambda_list="1", slim_list="false,true",
        qualifiers_list="false,true", eps=1e-4,
    )
    configs = sweep_configs(args)
    # salton: 2 vec * 2 qual * 2 w; soft: 2 vec * 2 graph * 2 w;
    # mts and mts-rawdist: 2 graph * 2 slim * 2 w each
    assert len(configs) == 8 + 8 + 8 + 8
    assert len(set(configs)) == len(configs)


def test_sweep_configs_order_on_a_mixed_grid():
    import argparse

    args = argparse.Namespace(
        preset=None, methods="salton,soft,mts,mts-rawdist", vectors="binary,ic",
        graphs="g1,dic", w_list="1,3", lambda_list="1,2", slim_list="false,true",
        qualifiers_list="false,true", eps=1e-4,
    )
    # per method label: w first, then the method's own parameters in flag order
    expected = [
        f"method=salton vector={v} qualifiers={q} graph=. w={w} lambda=. eps=. slim=."
        for w in (1, 3) for v in ("binary", "ic") for q in ("false", "true")
    ] + [
        f"method=soft vector={v} qualifiers=. graph={g} w={w} lambda={lam} eps=0.0001 slim=."
        for w in (1, 3) for v in ("binary", "ic") for g in ("g1", "dic") for lam in (1, 2)
    ] + [
        f"method={m} vector=. qualifiers=. graph={g} w={w} lambda={lam} eps=0.0001 slim={s}"
        for m in ("mts", "mts-rawdist")
        for w in (1, 3) for g in ("g1", "dic") for lam in (1, 2) for s in ("false", "true")
    ]
    assert [c.tag() for c in sweep_configs(args)] == expected


def test_convert_mesh_cli(tmp_path):
    desc = tmp_path / "d2026.bin"
    qual = tmp_path / "q2026.bin"
    desc.write_text(DESCRIPTORS)
    qual.write_text(QUALIFIERS)
    out = tmp_path / "vocab.jsonl"
    assert run(
        "convert-mesh", "--descriptors", desc, "--qualifiers", qual, "--out", out
    ) == 0
    vocab = parse_vocabulary(str(out))
    assert len(vocab) == 5
    assert vocab.qualifiers == frozenset({"Q000188", "Q000601"})
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    assert manifest["command"] == "convert-mesh"


def test_missing_input_exits_nonzero(tmp_path):
    assert run("ic", "--vocab", tmp_path / "nope.jsonl", "--out", tmp_path / "o.tsv") == 1


def test_cyclic_vocabulary_exits_nonzero(tmp_path):
    vocab = tmp_path / "vocab.jsonl"
    vocab.write_text(
        '{"id": "a", "label": "a", "parents": ["b"]}\n'
        '{"id": "b", "label": "b", "parents": ["a"]}\n'
    )
    assert run("ic", "--vocab", vocab, "--out", tmp_path / "o.tsv") == 1


@pytest.mark.parametrize(
    "command",
    [
        ["ic"],
        ["graph", "--graph", "dic"],
        ["simmatrix", "--graph", "g1", "--lambda", "1"],
        ["relate", "--method", "salton"],
        ["bench", "--method", "mts", "--graph", "g1", "--lambda", "1", "--judgements"],
        ["sweep", "--preset", "reference9", "--judgements"],
    ],
    ids=lambda command: command[0],
)
def test_cyclic_vocabulary_fails_every_command_naming_the_cycle(tmp_path, caplog, command):
    # k is a parent of m, which starts the cycle m > n > o > m
    (tmp_path / "vocab.jsonl").write_text(
        "".join(
            json.dumps({"id": tid, "label": tid, "parents": parents}) + "\n"
            for tid, parents in [("k", []), ("m", ["k", "o"]), ("n", ["m"]), ("o", ["n"])]
        )
    )
    terms = [{"term": tid, "major": True} for tid in "kmno"]
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps({"id": f"d{i}", "terms": terms}) + "\n" for i in range(4))
    )
    (tmp_path / "j.tsv").write_text("".join(f"q1\td{i}\t{i % 2}\n" for i in range(4)))
    if command[-1] == "--judgements":
        command = [*command, tmp_path / "j.tsv"]
    assert run(
        command[0], "--vocab", tmp_path / "vocab.jsonl", "--corpus", tmp_path / "corpus.jsonl",
        *command[1:], "--out", tmp_path / "out.tsv",
    ) == 1
    assert "vocabulary has a parent cycle: m > n > o > m" in caplog.text
    assert not (tmp_path / "out.tsv").exists()


@pytest.mark.parametrize(
    "entry",
    [{"term": ["t1"], "major": True}, {"term": "t1", "major": True, "qualifiers": [["q"]]}],
    ids=["term-list", "qualifier-list"],
)
@pytest.mark.parametrize(
    "command",
    [["relate", "--method", "salton"], ["bench", "--method", "salton", "--judgements"],
     ["sweep", "--judgements"]],
    ids=lambda command: command[0],
)
def test_mistyped_corpus_ids_fail_with_path_and_line(tmp_path, caplog, entry, command):
    (tmp_path / "vocab.jsonl").write_text(
        '{"id": "t1", "label": "t1", "parents": []}\n{"id": "q", "kind": "qualifier"}\n'
    )
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps({"id": "d1", "terms": [entry]}) + "\n")
    (tmp_path / "j.tsv").write_text("q1\td1\t1\n")
    if command[-1] == "--judgements":
        command = [*command, tmp_path / "j.tsv"]
    assert run(
        command[0], "--vocab", tmp_path / "vocab.jsonl", "--corpus", corpus, *command[1:],
        "--out", tmp_path / "out.tsv",
    ) == 1
    assert f"{corpus}:1: document 'd1': " in caplog.text


def test_lenient_corpus_parse(synth_files, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"id": "d1", "terms": [{"term": "T0.000", "major": true},'
        ' {"term": "UNKNOWN", "major": false}]}\n'
        '{"id": "d2", "terms": [{"term": "T0.001", "major": false}]}\n'
    )
    out = tmp_path / "scores.tsv"
    strict_rc = run(
        "relate", "--vocab", synth_files["vocab"], "--corpus", corpus,
        "--method", "salton", "--out", out,
    )
    assert strict_rc == 1
    lenient_rc = run(
        "relate", "--vocab", synth_files["vocab"], "--corpus", corpus,
        "--method", "salton", "--no-strict", "--out", out,
    )
    assert lenient_rc == 0
    assert len(out.read_text().splitlines()) == 2  # header + the one pair


def test_relate_in_chunks_writes_what_scoring_one_pair_at_a_time_gives(synth_world, tmp_path, caplog):
    vocab, corpus, _ = synth_world
    docs = dict(corpus.documents)
    ids = sorted(docs)
    bare = ids[5]  # no major terms left, so slim mts fails on every pair naming it
    docs[bare] = Document(bare, tuple(replace(a, is_major=False) for a in docs[bare].annotations))
    rng = random.Random(4)
    pairs = [tuple(rng.sample(ids, 2)) for _ in range(2 * _CHUNK + 37)]
    pairs[_CHUNK + 3 : _CHUNK + 5] = [(ids[0], "ghost"), (bare, ids[0])]
    files = {name: tmp_path / name for name in ("vocab.jsonl", "corpus.jsonl", "pairs.tsv")}
    model.serialize_vocabulary(vocab, files["vocab.jsonl"])
    model.serialize_corpus(Corpus(docs), files["corpus.jsonl"])
    files["pairs.tsv"].write_text("".join(f"{a}\t{b}\n" for a, b in pairs))
    out = tmp_path / "scores.tsv"
    caplog.set_level("INFO")
    assert run(
        "relate", "--vocab", files["vocab.jsonl"], "--corpus", files["corpus.jsonl"],
        "--pairs", files["pairs.tsv"], "--method", "mts", "--graph", "g1", "--lambda", "1",
        "--w", "2", "--slim", "--out", out,
    ) == 0
    scorer = ArtifactSet(vocab=vocab, corpus=Corpus(docs)).scorer(
        MethodConfig("mts", graph="g1", lam=1.0, w=2, slim=True)
    )
    lines, errors = [], 0
    for a, b in pairs:
        try:
            value = scorer.score(docs[a], docs[b])
        except (KeyError, VocabrelError):
            errors += 1
        else:
            lines.append(f"{a}\t{b}\t{value:.17g}")
    assert out.read_text().splitlines()[1:] == lines
    assert errors >= 2 and f"scored {len(lines)} of {len(pairs)} pairs ({errors} errors)" in caplog.text


@pytest.mark.parametrize("method", ["soft", "mts"])
@pytest.mark.parametrize("known", [0, _CHUNK], ids=["alone", "in-a-chunk-of-its-own"])
def test_relate_pairs_naming_only_unknown_documents_are_errors(synth_files, tmp_path, caplog, method, known):
    ids = sorted(json.loads(line)["id"] for line in Path(synth_files["corpus"]).read_text().splitlines())
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("".join(f"{ids[k % 9]}\t{ids[k % 9 + 1]}\n" for k in range(known)) + f"{ids[0]}\tghost\n")
    out = tmp_path / "scores.tsv"
    caplog.set_level("INFO")
    assert run(
        "relate", "--vocab", synth_files["vocab"], "--corpus", synth_files["corpus"], "--pairs", pairs,
        "--method", method, "--graph", "g1", "--lambda", "1", "--out", out,
    ) == 0
    assert len(out.read_text().splitlines()) == 1 + known
    assert f"scored {known} of {known + 1} pairs (1 errors)" in caplog.text
    assert f"pair skipped: {ids[0]}/ghost: document 'ghost' is not in the corpus" in caplog.text
