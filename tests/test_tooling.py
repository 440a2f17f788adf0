"""Tooling outside the package: the benchmark's tracer and the scripts must still run."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_finds_every_wrapped_entry_point(tmp_path):
    trace = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace), "--", "--version"],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(trace.read_text())["missing"] == []


def test_traced_sweep_times_classification(tmp_path):
    made = _script(tmp_path, "make_synthetic_data.py", "--out-dir", tmp_path / "world",
                   "--topics", 2, "--docs-per-topic", 12)
    assert made.returncode == 0, made.stderr
    trace, world = tmp_path / "trace.json", tmp_path / "world"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(trace), "--", "sweep",
         "--vocab", str(world / "vocab.jsonl"), "--corpus", str(world / "corpus.jsonl"),
         "--judgements", str(world / "judgements.tsv"), "--preset", "reference9",
         "--iterations", "3", "--sample-size", "3", "--out", str(tmp_path / "sweep.csv")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    traced = json.loads(trace.read_text())
    assert traced["missing"] == []
    assert traced["seconds"]["benchmark.classify_s"] > 0


def _script(tmp_path, name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )


def test_scripts_run_end_to_end(tmp_path):
    made = _script(tmp_path, "make_synthetic_data.py", "--out-dir", tmp_path / "world")
    assert made.returncode == 0, made.stderr
    for name in ("vocab.jsonl", "corpus.jsonl", "judgements.tsv"):
        assert (tmp_path / "world" / name).stat().st_size > 0
    out = tmp_path / "synthetic.csv"
    bench = _script(
        tmp_path, "run_synthetic_benchmark.py", "--iterations", 2, "--sample-size", 3,
        "--out", out,
    )
    assert bench.returncode == 0, bench.stderr
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert all(row["n_errors"] == "0" for row in rows)
    assert _script(tmp_path, "run_trec_benchmark.py", "--help").returncode == 0


def test_output_digests_runs_every_command(tmp_path):
    made = _script(tmp_path, "make_synthetic_data.py", "--out-dir", tmp_path / "world",
                   "--topics", 2, "--docs-per-topic", 12)
    assert made.returncode == 0, made.stderr
    run = _script(tmp_path, "output_digests.py", tmp_path / "world", tmp_path / "out")
    assert run.returncode == 0, run.stderr
    digests = dict(reversed(line.split("  ")) for line in run.stdout.splitlines())
    assert len(digests) == 44 and not any(name.endswith("manifest.json") for name in digests)
    cold, cached = digests["sweep-ref9.csv"], digests["sweep-ref9-cached.csv"]
    assert cold == digests["sweep-ref9-fill.csv"] == cached == digests["sweep-ref9-reordered-cached.csv"]
    assert len(list((tmp_path / "out" / "work" / "cache").iterdir())) == 3  # g1 and dic at 1, dic at 2
    for name in ("relate-soft-ic-dic-w3-pairs", "relate-mts-g1-w16-pairs", "simmatrix-g1-l1"):
        assert digests[f"{name}-cached.tsv"] == digests[f"{name}.tsv"]


def test_paper_scale_runs_the_sweep_on_a_patched_world(tmp_path, monkeypatch, capsys):
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import paper_scale
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    monkeypatch.setattr(paper_scale, "WORLD", dict(seed=1, n_roots=4, terms_per_root=80, n_topics=3,
                                                   docs_per_topic=24, pool_size=12))
    assert paper_scale.main(["--ic", "corpus", "--work", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out)
    csv_file = tmp_path / "reference9-corpus.csv"
    assert result["outcome"] == "finished" and result["peak_rss_mb"] > 0
    assert result["csv_sha256"] == hashlib.sha256(csv_file.read_bytes()).hexdigest()
    with open(csv_file, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9 and all(row["n_errors"] == "0" for row in rows)
