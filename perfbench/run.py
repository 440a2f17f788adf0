"""The vocabrel benchmark: seeded worlds run through the ``vocab-relate`` CLI.

Usage::

    python3 perfbench/run.py --workload {ref9,mesh-store,many-docs} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The benchmark writes the workload's world
from the seed, then repeats whole rounds of program commands, one process
at a time with ``--workers 1``, until ``--seconds`` have passed:

1. ``ic`` - parse, validate and compute the IC table (``setup_s``);
2. ``sweep`` with ``--cache`` on an empty directory (``sweep_s``);
3. the same ``sweep`` over the cache it filled (``sweep_cached_s``);
4. ``relate --pairs`` for the workload's soft and MTS configurations over
   the warm cache (``relate_pairs_per_s``).

Each end-to-end metric is the median over the rounds; ``peak_rss_mb`` is
the highest peak RSS of any program process.  With ``--trace 1`` every
command runs under ``tracer.py`` and the per-layer metrics (medians over
rounds of per-round sums) are printed instead; the commands' traces, spans
included, go to ``perfbench/_results/trace-<workload>-s<seed>.json``.  Outputs are checked against
``reference.py`` and the properties in ``checks.py``; after the rounds,
``simmatrix`` exports each store for checking.  The last line of standard
output is the JSON result; a failed check makes the run exit with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import worlds  # noqa: E402
from reference import REFERENCE9, Config, Reference  # noqa: E402

ROOT = Path.cwd()
RESULTS = HERE / "_results"
COMMAND_TIMEOUT = 150.0


@dataclass(frozen=True)
class Workload:
    world: Callable[[int], worlds.World]
    sweeps: list[tuple[list[str], list[Config]]]  # sweep flags, the cells they give
    relate: list[Config]
    # unordered pairs in the relate list, each listed in both orders; sized so
    # that scoring, not start-up or loading the store, takes most of the time
    pairs: int
    stores: list[tuple[str, float]]


def _soft(vector: str, graph: str, w: int, lam: float) -> Config:
    return Config("soft", vector, graph, w, lam)


def _mts(graph: str, w: int, lam: float) -> Config:
    return Config("mts", ".", graph, w, lam)


def _grid(methods: str, vector: str, graph: str, w: int, lam: float) -> list[str]:
    return ["--methods", methods, "--vectors", vector, "--graphs", graph,
            "--w-list", str(w), "--lambda-list", f"{lam:g}"]


WORKLOADS: dict[str, Workload] = {
    # the paper's nine configurations on disjoint topic subtrees
    "ref9": Workload(
        world=lambda seed: worlds.disjoint_world(seed, n_topics=4, docs_per_topic=16,
                                                 terms_per_topic=80),
        sweeps=[(["--preset", "reference9"], REFERENCE9)],
        relate=[_soft("ic", "dic", 3, 1.0), _mts("g1", 16, 1.0)],
        pairs=4000,
        stores=[("g1", 1.0), ("dic", 1.0), ("dic", 2.0)],
    ),
    # store building and cache I/O dominate: many terms, few documents
    "mesh-store": Workload(
        world=lambda seed: worlds.mesh_world(seed, n_roots=8, terms_per_root=120,
                                             n_topics=4, docs_per_topic=12, pool_size=36),
        sweeps=[
            (_grid("salton,soft,mts", "ic", "g1", 3, 1.0),
             [Config("salton", "ic", w=3), _soft("ic", "g1", 3, 1.0), _mts("g1", 3, 1.0)]),
            (_grid("soft,mts", "ic", "dic", 3, 2.0),
             [_soft("ic", "dic", 3, 2.0), _mts("dic", 3, 2.0)]),
        ],
        relate=[_soft("ic", "g1", 3, 1.0), _mts("g1", 3, 1.0)],
        pairs=8000,
        stores=[("g1", 1.0), ("dic", 2.0)],
    ),
    # pair scoring and classification dominate: a small vocabulary, many documents
    "many-docs": Workload(
        world=lambda seed: worlds.disjoint_world(seed, n_topics=4, docs_per_topic=32,
                                                 terms_per_topic=30),
        sweeps=[(_grid("salton,soft,mts", "ic", "dic", 3, 1.0),
                 [Config("salton", "ic", w=3), _soft("ic", "dic", 3, 1.0), _mts("dic", 3, 1.0)])],
        relate=[_soft("ic", "dic", 3, 1.0), _mts("dic", 3, 1.0)],
        pairs=5000,
        stores=[("dic", 1.0)],
    ),
}


class CommandFailed(Exception):
    pass


class Program:
    """Runs ``vocab-relate`` commands one at a time and counts them."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.n = 0
        self.wall = 0.0
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        # one thread per process: CPU time then measures the work, not idle spinning
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.traces: list[dict] = []

    def run(self, args: list[str], traced: bool | None = None) -> float:
        """CPU seconds (user + system) of one command, from spawn to exit.

        ``traced`` overrides the run's ``--trace`` setting for this command.
        """
        self.n += 1
        self.attempted += 1
        log = self.work / f"cmd{self.n:04d}.log"
        trace_file = self.work / f"cmd{self.n:04d}.trace.json"
        cmd = [sys.executable, "-m", "vocabrel", *args]
        traced = self.trace if traced is None else traced
        if traced:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_file), "--", *args]
        env = dict(self.env, PERFBENCH_SPAWN_TIME=repr(time.time()))
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with open(log, "wb") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=COMMAND_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                rc = "timeout"
            self.wall += time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        if rc != 0:
            self.failed += 1
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            raise CommandFailed(f"{' '.join(args[:1])} exited with {rc}: {' | '.join(tail)}")
        if traced:
            self.traces.append(dict(json.loads(trace_file.read_text()), cpu_s=cpu))
        return cpu


def peak_rss_mb() -> float:
    """Largest peak RSS of any child process waited for so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


PER_LAYER_TIMES = [
    "model.parse_s", "infocontent.ic_s", "termgraph.graph_s", "termgraph.store_build_s",
    "termgraph.store_save_s", "termgraph.store_load_s", "docvectors.vectors_s",
    "relatedness.score_s.salton", "relatedness.score_s.soft", "relatedness.score_s.mts",
    "relatedness.pairwise_s", "benchmark.build_pairs_s", "benchmark.populations_s",
    "benchmark.classify_s", "benchmark.stats_s", "benchmark.csv_s",
]
PER_LAYER_SUMS = [
    "termgraph.searches", "termgraph.store_entries", "termgraph.store_bytes",
    "termgraph.store_file_bytes", "relatedness.pairs_scored", "benchmark.classify_calls",
    "cli.cache_hits", "cli.cache_misses",
]
PER_LAYER_SIZES = ["model.terms", "model.documents", "termgraph.edges"]


def layer_round(traces: list[dict]) -> dict[str, float]:
    """Per-layer totals over the traced commands of one round."""
    out = {k: 0.0 for k in PER_LAYER_TIMES + PER_LAYER_SUMS + PER_LAYER_SIZES}
    calls = misses = 0.0
    for tr in traces:
        for k in PER_LAYER_TIMES:
            out[k] += tr["seconds"].get(k, 0.0)
        for k in PER_LAYER_SUMS:
            out[k] += tr["counts"].get(k, 0.0)
        for k in PER_LAYER_SIZES:
            out[k] = max(out[k], tr["counts"].get(k, 0.0))
        calls += tr["counts"].get("benchmark.memo_calls", 0.0)
        misses += tr["counts"].get("benchmark.memo_misses", 0.0)
    out["benchmark.memo_hit_ratio"] = 1.0 - misses / calls if calls else 0.0
    out["cli.startup_s"] = sum(tr["startup_s"] for tr in traces)
    return out


class Bench:
    def __init__(self, name: str, seed: int, trace: bool, work: Path):
        self.spec = WORKLOADS[name]
        self.work = work
        self.program = Program(work, trace)
        self.problems: list[str] = []
        self.world = self.spec.world(seed)
        self.pairs = worlds.pair_list(self.world, self.spec.pairs, seed)
        self.files = worlds.write_world(self.world, self.pairs, work / "world")
        self.ref = Reference(self.world)
        self.cells = 0
        self.cell_failures = 0

    def inputs(self) -> list[str]:
        args = ["--vocab", str(self.files["vocab"]), "--corpus", str(self.files["corpus"])]
        if "freq" in self.files:
            args += ["--freq-table", str(self.files["freq"])]
        return args

    def _keep(self, path: Path) -> None:
        """Keep the first round's output for checking; later rounds must repeat it."""
        kept = self.work / "first" / path.name
        if not kept.exists():
            kept.parent.mkdir(exist_ok=True)
            shutil.copyfile(path, kept)
        elif kept.read_bytes() != path.read_bytes():
            self.problems.append(f"{path.name} differs from the first round's output")

    def round(self, cache: Path) -> dict[str, float]:
        prog, w = self.program, self.work
        n_traces = len(prog.traces)
        ic_out = w / "ic.tsv"
        setup = prog.run(["ic", *self.inputs(), "--out", str(ic_out)])
        self._keep(ic_out)
        times = {"sweep": 0.0, "cached": 0.0}
        for phase in ("sweep", "cached"):
            for i, (flags, configs) in enumerate(self.spec.sweeps):
                out = w / f"{phase}{i}.csv"
                times[phase] += prog.run(self.sweep_args(cache, flags, out))
                rows = checks.read_sweep(out)
                self.cells += len(configs)
                self.cell_failures += len(configs) - sum(
                    1 for row in rows if row["n_errors"] == "0" and row["delta"] != "nan")
                if phase == "sweep":
                    self._keep(out)
                elif out.read_bytes() != (w / f"sweep{i}.csv").read_bytes():
                    self.problems.append(f"sweep {i}: CSV over the warm cache differs "
                                         "from the CSV that built the cache")
        relate_s = 0.0
        for j, cfg in enumerate(self.spec.relate):
            out = w / f"relate{j}.tsv"
            relate_s += prog.run(["relate", *self.inputs(), *cfg.cli_args(), "--workers", "1",
                                  "--cache", str(cache), "--pairs", str(self.files["pairs"]),
                                  "--out", str(out)])
            n_scored = sum(1 for line in out.open() if not line.startswith("#"))
            self.cells += len(self.pairs)
            self.cell_failures += len(self.pairs) - n_scored
            self._keep(out)
        result = {
            "setup_s": setup,
            "sweep_s": times["sweep"],
            "sweep_cached_s": times["cached"],
            "relate_pairs_per_s": len(self.pairs) * len(self.spec.relate) / relate_s,
        }
        if prog.trace:
            layers = layer_round(prog.traces[n_traces:])
            sweeps = [t for t in prog.traces[n_traces:] if t["argv"][0] == "sweep"]
            half = len(sweeps) // 2
            # traced sweep times, against sweep_s / sweep_cached_s for the overhead
            layers["trace.sweep_s"] = sum(t["cpu_s"] for t in sweeps[:half])
            layers["trace.sweep_cached_s"] = sum(t["cpu_s"] for t in sweeps[half:])
            # the same sweeps untraced, in the same round, give the tracing overhead
            plain = 0.0
            for phase in ("sweep", "cached"):
                for flags, _ in self.spec.sweeps:
                    plain += prog.run(self.sweep_args(w / "cache-untraced", flags, w / "untraced.csv"),
                                      traced=False)
            shutil.rmtree(w / "cache-untraced")
            layers["trace.overhead"] = (layers["trace.sweep_s"] + layers["trace.sweep_cached_s"]) / plain - 1
            result = layers
        return result

    def sweep_args(self, cache: Path, flags: list[str], out: Path) -> list[str]:
        return ["sweep", *self.inputs(), "--judgements", str(self.files["judgements"]),
                "--workers", "1", "--cache", str(cache), *flags, "--out", str(out)]

    def verify(self, cache: Path) -> None:
        """Export each store from the last cache, then check the first round's outputs."""
        for graph, lam in self.spec.stores:
            out = self.work / f"simmatrix-{graph}-{lam:g}.tsv"
            self.program.run(["simmatrix", *self.inputs(), "--graph", graph, "--lambda",
                              f"{lam:g}", "--cache", str(cache), "--out", str(out)])
            self.problems += checks.check_simmatrix(out, self.ref, graph, lam)
        first = self.work / "first"
        self.problems += checks.check_ic(first / "ic.tsv", self.ref)
        for i, (_, configs) in enumerate(self.spec.sweeps):
            rows = checks.read_sweep(first / f"sweep{i}.csv")
            self.problems += checks.check_sweep(rows, self.ref, configs, self.world.disjoint)
        for j, cfg in enumerate(self.spec.relate):
            self.problems += checks.check_relate(first / f"relate{j}.tsv", self.pairs, self.ref, cfg)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "vocabrel" / "__main__.py").is_file():
        print(f"no program source under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _run(args, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args: argparse.Namespace, spec: dict, work: Path) -> int:
    bench = Bench(args.workload, args.seed, bool(args.trace), work)
    prog = bench.program
    try:
        prog.run(["--version"])  # warm the bytecode cache before anything is timed
    except CommandFailed as exc:
        print(f"the program does not start: {exc}", file=sys.stderr)
        return 2
    rounds: list[dict[str, float]] = []
    cache = work / "cache-0"
    start = time.perf_counter()
    try:
        # stop when the next round would end further past --seconds than this one stops short
        while not rounds or (time.perf_counter() - start) * (1 + 0.5 / len(rounds)) < args.seconds:
            shutil.rmtree(cache, ignore_errors=True)
            cache = work / f"cache-{len(rounds)}"
            rounds.append(bench.round(cache))
            print(f"round {len(rounds)}: " + " ".join(
                f"{k}={v:.4g}" for k, v in rounds[-1].items()), file=sys.stderr)
        bench.verify(cache)
    except CommandFailed as exc:
        bench.problems.append(str(exc))
    missing = sorted({m for tr in prog.traces for m in tr["missing"]})
    if missing:
        bench.problems.append(f"tracer targets missing from the program: {', '.join(missing)}; "
                              "the per-layer metrics measured through them would read 0")
    metrics: dict[str, dict] = {}
    if rounds:
        if args.trace:
            RESULTS.mkdir(exist_ok=True)
            (RESULTS / f"trace-{args.workload}-s{args.seed}.json").write_text(json.dumps(prog.traces))
        else:
            rounds[0]["peak_rss_mb"] = peak_rss_mb()  # one value for the whole run
        for metric in spec["per_layer" if args.trace else "end_to_end"]:
            values = [r[metric["name"]] for r in rounds if metric["name"] in r]
            metrics[metric["name"]] = {"value": statistics.median(values), "unit": metric["unit"]}
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not bench.problems and bool(rounds)
    print(f"{len(rounds)} rounds in {time.perf_counter() - start:.1f} s "
          f"({prog.wall:.1f} s in program processes); "
          f"{'all checks passed' if correct else 'checks FAILED'}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": prog.attempted + bench.cells,
        "failed": prog.failed + bench.cell_failures,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
