"""Run one ``vocab-relate`` command with the calls into each layer timed.

Usage: ``python3 perfbench/tracer.py TRACE.json -- <vocab-relate arguments>``

The program is left untouched: before ``vocabrel.cli.main`` runs, the
public functions of each module (and the few methods the layers are reached
through) are replaced by wrappers that add their time and counts to an
in-memory recorder.  A wrapper is installed under every name that binds the
original function in any ``vocabrel`` module, so calls made through
``from .x import f`` are seen too.  Only the outermost call into a layer is
timed, so a layer's time never counts its own nested calls twice.  The
recorder is written to ``TRACE.json`` when the command ends.  Targets that
no longer exist are listed under ``missing``; ``run.py`` fails a traced run
whose commands miss any.
"""

from __future__ import annotations

import json
import os
import sys
import time
import types
from collections import defaultdict

SPAWNED = float(os.environ.get("PERFBENCH_SPAWN_TIME", time.time()))


class Recorder:
    """Layer times and counts, plus one span per outermost layer call."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.stack: list[str] = []
        self.missing: list[str] = []

    def timed(self, layer: str, fn, after=None, span: bool = True):
        """Wrap ``fn`` so that its outermost calls add to ``layer``'s time."""

        def wrapper(*args, **kwargs):
            if self.active[layer]:
                return fn(*args, **kwargs)
            self.active[layer] += 1
            parent = self.stack[-1] if self.stack else None
            if span:
                self.stack.append(layer)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.active[layer] -= 1
                if span:
                    self.stack.pop()
                    self.spans.append((layer, start, end, parent))
                self.seconds[layer] += end - start
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def timed_generator(self, layer: str, fn):
        """Like ``timed``, for a function returning a generator: times its consumption."""

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                start = time.perf_counter()
                self.active[layer] += 1
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self.active[layer] -= 1
                    self.seconds[layer] += time.perf_counter() - start
                yield item

        return wrapper


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if isinstance(m, types.ModuleType) and (name == "vocabrel" or name.startswith("vocabrel."))]


def _replace_function(rec: Recorder, module: str, name: str, make) -> None:
    mod = sys.modules.get(f"vocabrel.{module}")
    original = getattr(mod, name, None) if mod else None
    if original is None:
        rec.missing.append(f"{module}.{name}")
        return
    wrapped = make(original)
    for m in _modules():
        for attr, value in list(vars(m).items()):
            if value is original:
                setattr(m, attr, wrapped)


def _replace_method(rec: Recorder, module: str, cls_name: str, name: str, make) -> None:
    mod = sys.modules.get(f"vocabrel.{module}")
    cls = getattr(mod, cls_name, None) if mod else None
    raw = cls.__dict__.get(name) if cls is not None else None
    if raw is None:
        rec.missing.append(f"{module}.{cls_name}.{name}")
        return
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(make(raw.__func__)))
    else:
        setattr(cls, name, make(raw))


def deep_bytes(obj) -> int:
    """Bytes held by an object graph, not counting strings (term ids are shared)."""
    seen: set[int] = set()
    total = 0
    stack = [obj]
    while stack:
        o = stack.pop()
        if id(o) in seen or isinstance(o, (str, type, types.FunctionType, types.ModuleType)):
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        elif getattr(o, "base", None) is not None and hasattr(o, "nbytes"):
            stack.append(o.base)  # a numpy view: the data lives in its base
        elif hasattr(o, "__dict__"):
            stack.append(vars(o))
    return total


def install(rec: Recorder, cached: bool) -> None:
    """Wrap the layers' entry points; ``cached`` says whether --cache was given."""
    c = rec.counts

    def sized(key):
        def after(result, args, kwargs):
            c[key] = max(c[key], len(result))
        return after

    for name in ("parse_vocabulary", "parse_corpus", "validate", "read_pairs"):
        after = {"parse_vocabulary": sized("model.terms"),
                 "parse_corpus": sized("model.documents")}.get(name)
        _replace_function(rec, "model", name, lambda f, a=after: rec.timed("model.parse_s", f, a))

    for name in ("term_frequencies", "load_frequencies", "descendant_closure",
                 "information_content", "load_ic_table", "save_ic_table"):
        _replace_function(rec, "infocontent", name, lambda f: rec.timed("infocontent.ic_s", f))

    def graph_done(result, args, kwargs):
        c["termgraph.edges"] = max(c["termgraph.edges"], result.edge_count())

    for name in ("build_unweighted_graph", "build_ic_weighted_graph"):
        _replace_function(rec, "termgraph", name, lambda f: rec.timed("termgraph.graph_s", f, graph_done))

    def store_built(result, args, kwargs):
        c["termgraph.store_builds"] += 1
        c["termgraph.store_entries"] += len(result)
        c["termgraph.store_bytes"] += deep_bytes(result)

    _replace_function(rec, "termgraph", "similarity_matrix",
                      lambda f: rec.timed("termgraph.store_build_s", f, store_built))

    def count_search(f):
        def wrapper(*args, **kwargs):
            c["termgraph.searches"] += 1
            return f(*args, **kwargs)
        return wrapper

    _replace_function(rec, "termgraph", "single_source_distances", count_search)

    def store_saved(result, args, kwargs):
        dest = args[1] if len(args) > 1 else kwargs.get("dest")
        if isinstance(dest, (str, os.PathLike)) and os.path.exists(dest):
            c["termgraph.store_file_bytes"] += os.path.getsize(dest)

    def store_loaded(result, args, kwargs):
        c["termgraph.store_loads"] += 1

    _replace_method(rec, "termgraph", "SimMatrix", "save",
                    lambda f: rec.timed("termgraph.store_save_s", f, store_saved))
    _replace_method(rec, "termgraph", "SimMatrix", "load",
                    lambda f: rec.timed("termgraph.store_load_s", f, store_loaded))

    for name in ("document_vector", "binary_vector", "ic_weighted_vector", "qualified_vector"):
        _replace_function(rec, "docvectors", name, lambda f: rec.timed("docvectors.vectors_s", f, span=False))

    def score(f):
        def wrapper(self, doc_a, doc_b):
            start = time.perf_counter()
            try:
                return f(self, doc_a, doc_b)
            finally:
                rec.seconds[f"relatedness.score_s.{self.config.method}"] += time.perf_counter() - start
                c["relatedness.pairs_scored"] += 1
                if rec.active["benchmark.run"]:
                    c["benchmark.memo_misses"] += 1
        return wrapper

    _replace_method(rec, "relatedness", "Scorer", "score", score)
    _replace_function(rec, "relatedness", "pairwise_scores",
                      lambda f: rec.timed_generator("relatedness.pairwise_s", f))

    _replace_function(rec, "benchmark", "run_benchmark", lambda f: rec.timed("benchmark.run", f))
    _replace_function(rec, "benchmark", "build_pairs", lambda f: rec.timed("benchmark.build_pairs_s", f))
    _replace_function(rec, "benchmark", "_score_population",
                      lambda f: rec.timed("benchmark.populations_s", f))
    _replace_function(rec, "benchmark", "classification_test",
                      lambda f: rec.timed("benchmark.classify_s", f))
    for name in ("cliffs_delta", "skewness", "mcc"):
        _replace_function(rec, "benchmark", name, lambda f: rec.timed("benchmark.stats_s", f, span=False))
    _replace_function(rec, "benchmark", "write_results_csv", lambda f: rec.timed("benchmark.csv_s", f))

    def lookup(f):
        def wrapper(self, id_a, id_b):
            c["benchmark.memo_calls"] += 1
            if rec.active["benchmark.classify_s"]:
                c["benchmark.classify_calls"] += 1
            return f(self, id_a, id_b)
        return wrapper

    _replace_method(rec, "benchmark", "ScoreSource", "__call__", lookup)

    def cache_probe(f):
        # a cache hit loads an artifact and builds nothing; a miss builds it
        def wrapper(*args, **kwargs):
            built = c["termgraph.store_builds"], c["infocontent.builds"]
            loads = c["termgraph.store_loads"], c["infocontent.loads"]
            result = f(*args, **kwargs)
            if cached:
                if (c["termgraph.store_builds"], c["infocontent.builds"]) != built:
                    c["cli.cache_misses"] += 1
                elif (c["termgraph.store_loads"], c["infocontent.loads"]) != loads:
                    c["cli.cache_hits"] += 1
            return result
        return wrapper

    def counted(key):
        def make(f):
            def wrapper(*args, **kwargs):
                c[key] += 1
                return f(*args, **kwargs)
            return wrapper
        return make

    _replace_function(rec, "infocontent", "information_content", counted("infocontent.builds"))
    _replace_function(rec, "infocontent", "load_ic_table", counted("infocontent.loads"))
    for name in ("ic_table", "matrix"):
        _replace_method(rec, "cli", "Workspace", name, cache_probe)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    import vocabrel.cli as cli

    rec = Recorder()
    install(rec, cached="--cache" in cli_args)
    startup = time.time() - SPAWNED
    try:
        return cli.main(cli_args)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({
                "argv": cli_args,
                "startup_s": startup,
                "seconds": rec.seconds,
                "counts": rec.counts,
                "spans": rec.spans,
                "missing": rec.missing,
            }, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
