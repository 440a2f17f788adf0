"""Benchmark harness: relevance judgements, effect sizes, classification test.

Protocol, given per-topic relevance judgements over a corpus:

* keep topics where (possibly relevant + relevant) / judged >= min_frac,
  then drop the possibly-relevant documents;
* within each topic, pair the judged documents: both relevant -> same-topic
  pair, exactly one relevant -> separate-topic pair, neither -> excluded
  (a document pair judged under two topics contributes to both);
* Cliff's delta between the two score populations measures separation;
* a sampled nearest-set classification (50 iterations per topic of 10
  relevant + 10 not-relevant seeds, remaining judged documents classified
  by the larger of the two max-similarities, ties -> not relevant) yields a
  confusion matrix summarized by Matthews' phi.

All sampling derives from one integer seed via per-(topic, iteration)
SHA-256 substreams, so results do not depend on Python's hash randomization.

``run_benchmark`` scores every distinct within-topic pair of judged documents
in one batch into a mirrored table per topic, which both protocols gather
from (``stats`` fills the same tables from a score file).  The draws depend
only on the seed and the judgements, so a sweep draws them once for all its
configurations.
"""

from __future__ import annotations

import csv
import enum
import functools
import hashlib
import json
import logging
import math
import os
import random
from dataclasses import dataclass, field, replace
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import ParseError, VocabrelError
from .infocontent import FreqTable, information_content, descendant_closure, term_frequencies
from .model import Corpus, Vocabulary, _iter_lines, _open_out, _source_path
from .relatedness import MethodConfig, Scorer, _score_ids
from .termgraph import (
    ENTRY_RULE, SimMatrix, TermGraph, build_ic_weighted_graph, build_unweighted_graph, similarity_matrix,
)

log = logging.getLogger(__name__)

DEFAULT_MIN_TOPIC_FRAC = 0.10
DEFAULT_ITERATIONS = 50
DEFAULT_SAMPLE_SIZE = 10


class Level(enum.IntEnum):
    NOT_RELEVANT = 0
    POSSIBLY_RELEVANT = 1
    RELEVANT = 2


class RelevanceJudgement(NamedTuple):
    topic: str
    doc: str
    level: Level


def ingest_judgements(source) -> list[RelevanceJudgement]:
    """Parse ``topic<TAB>doc<TAB>level`` lines; duplicates keep the highest level."""
    path = _source_path(source)
    best: dict[tuple[str, str], Level] = {}
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError("expected topic<TAB>doc<TAB>level", path=path, line=lineno)
        topic, doc, level_s = parts
        if not topic or not doc:
            raise ParseError("empty topic or document id", path=path, line=lineno)
        try:
            level = Level(int(level_s))
        except ValueError:
            raise ParseError(
                f"relevance level must be 0, 1 or 2, got {level_s!r}", path=path, line=lineno
            ) from None
        key = (topic, doc)
        if key not in best or level > best[key]:
            best[key] = level
    return [RelevanceJudgement(t, d, lv) for (t, d), lv in sorted(best.items())]


def write_judgements(judgements: Iterable[RelevanceJudgement], dest) -> None:
    with _open_out(dest) as fh:
        fh.write("#judgements topic<TAB>doc<TAB>level\n")
        for j in sorted(judgements):
            fh.write(f"{j.topic}\t{j.doc}\t{int(j.level)}\n")


def filter_topics(
    judgements: Sequence[RelevanceJudgement],
    min_frac: float = DEFAULT_MIN_TOPIC_FRAC,
) -> tuple[list[RelevanceJudgement], list[str]]:
    """Drop low-signal topics, then drop possibly-relevant judgements.

    A topic survives when (relevant + possibly relevant) / judged >= min_frac.
    Returns (surviving judgements without level-1 entries, dropped topics).
    """
    by_topic: dict[str, list[RelevanceJudgement]] = {}
    for j in judgements:
        by_topic.setdefault(j.topic, []).append(j)
    kept: list[RelevanceJudgement] = []
    dropped: list[str] = []
    for topic in sorted(by_topic):
        rows = by_topic[topic]
        positive = sum(1 for j in rows if j.level != Level.NOT_RELEVANT)
        if positive / len(rows) >= min_frac:
            kept.extend(j for j in rows if j.level != Level.POSSIBLY_RELEVANT)
        else:
            dropped.append(topic)
    return sorted(kept), dropped


@dataclass(frozen=True)
class TopicPairSet:
    """Document pairs keyed by (topic, doc_a, doc_b) with doc_a < doc_b."""

    same_topic: tuple[tuple[str, str, str], ...]
    separate_topic: tuple[tuple[str, str, str], ...]

    @property
    def n_pairs(self) -> int:
        return len(self.same_topic) + len(self.separate_topic)


def _topics(judgements: Sequence[RelevanceJudgement]) -> list[tuple[str, list[str], np.ndarray]]:
    """Each topic in sorted order, its judged documents in id order, and 1 for each relevant one, else 0."""
    by_topic: dict[str, dict[str, Level]] = {}
    for j in sorted(judgements, key=lambda j: j.topic):  # stable: a document's last level wins
        by_topic.setdefault(j.topic, {})[j.doc] = j.level
    return [(topic, sorted(levels), np.array([levels[d] == Level.RELEVANT for d in sorted(levels)], np.intp))
            for topic, levels in by_topic.items()]


def build_pairs(judgements: Sequence[RelevanceJudgement]) -> TopicPairSet:
    """All within-topic pairs of judged documents, split by shared relevance."""
    pairs: dict[int, list[tuple[str, str, str]]] = {0: [], 1: [], 2: []}  # by their count of relevant documents
    for topic, docs, relevant in _topics(judgements):
        for a, b in combinations(range(len(docs)), 2):
            pairs[relevant[a] + relevant[b]].append((topic, docs[a], docs[b]))
    return TopicPairSet(same_topic=tuple(pairs[2]), separate_topic=tuple(pairs[1]))


def cliffs_delta(xs: Sequence[float], ys: Sequence[float]) -> float:
    """P(x > y) - P(x < y) over all cross pairs, via sorted ranks."""
    if len(xs) == 0 or len(ys) == 0:
        raise ValueError("cliffs_delta needs two non-empty samples")
    ys_sorted, x = np.sort(np.asarray(ys, dtype=float)), np.asarray(xs, dtype=float)
    below = np.searchsorted(ys_sorted, x, side="left")  # each x's count of smaller ys
    above = len(ys_sorted) - np.searchsorted(ys_sorted, x, side="right")  # and of larger ys
    return int((below - above).sum()) / (len(xs) * len(ys_sorted))


@dataclass(frozen=True)
class Confusion:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def mcc(conf: Confusion) -> float:
    """Matthews correlation; 0.0 (with a warning) when any margin is empty."""
    tp, fp, tn, fn = conf.tp, conf.fp, conf.tn, conf.fn
    denom_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom_sq == 0:
        log.warning("degenerate confusion matrix %s, reporting phi = 0", conf)
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom_sq)


def skewness(xs: Sequence[float]) -> float:
    """Population skewness g1 = m3 / m2^(3/2)."""
    arr = np.asarray(xs, dtype=float)
    if arr.size < 3:
        raise ValueError(f"skewness needs at least 3 values, got {arr.size}")
    centered = arr - arr.mean()
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise ValueError("skewness undefined for a constant sample")
    m3 = float(np.mean(centered**3))
    return m3 / m2**1.5


def ccc(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Concordance correlation (population moments): rho * C_b."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("ccc needs two equal-length samples of >= 2 values")
    mx, my = float(x.mean()), float(y.mean())
    sx = float(np.sqrt(np.mean((x - mx) ** 2)))
    sy = float(np.sqrt(np.mean((y - my) ** 2)))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("ccc undefined for a constant sample")
    rho = float(np.mean((x - mx) * (y - my))) / (sx * sy)
    c_b = 2.0 / (sy / sx + sx / sy + (my - mx) ** 2 / (sx * sy))
    return rho * c_b


def derive_substream_seed(seed: int, topic: str, iteration: int) -> int:
    """Stable 64-bit seed for one (topic, iteration) sampling task."""
    digest = hashlib.sha256(f"{seed}|{topic}|{iteration}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def stable_sample(pool: Sequence[str], k: int, rng: random.Random) -> list[str]:
    """Sample k items without replacement using only rng.random().

    Partial Fisher-Yates over a copy; unlike random.sample this does not
    depend on CPython's getrandbits sequence, so the draw is reproducible
    from the documented rng.random() stream alone.
    """
    if k > len(pool):
        raise ValueError(f"cannot sample {k} from {len(pool)} items")
    items = list(pool)
    n = len(items)
    for i in range(k):
        j = i + int(rng.random() * (n - i))
        if j >= n:  # guard the (measure-zero) rng.random() == 1.0 edge
            j = n - 1
        items[i], items[j] = items[j], items[i]
    return items[:k]


def pair_key(id_a: str, id_b: str) -> tuple[str, str]:
    """The order-free key of a document pair: its two ids, smaller first."""
    return (id_a, id_b) if id_a <= id_b else (id_b, id_a)


class _TopicTable(NamedTuple):
    """A topic's documents and their pairs' scores; a failed pair scores nan, is ``failed`` and has its error."""

    topic: str
    docs: list[str]  # in id order
    relevant: np.ndarray  # 1 for each relevant document, else 0
    scores: np.ndarray
    failed: np.ndarray
    errors: dict[tuple[int, int], VocabrelError]  # by the failed pair's positions, the smaller first


def _score_tables(judgements: Sequence[RelevanceJudgement],
                  score_ids: Callable[[list[str], np.ndarray, np.ndarray], tuple]) -> list[_TopicTable]:
    """Each topic's mirrored score table, topics in sorted order.

    ``score_ids(ids, a, b)`` scores every distinct within-topic pair, as
    positions ``a < b`` in the sorted ids, in one batch: it returns the
    scores and, by position, each failed pair's error, as
    ``Scorer.score_pairs`` does.  A pair judged under several topics enters
    each table.
    """
    topics = _topics(judgements)
    ids = sorted({d for _, docs, _ in topics for d in docs})  # positions keep id order
    position = {d: k for k, d in enumerate(ids)}
    triangles = [np.triu_indices(len(docs), 1) for _, docs, _ in topics]
    codes = [np.array([position[d] for d in docs], np.int64) for _, docs, _ in topics]
    codes = [at[i] * len(ids) + at[j] for at, (i, j) in zip(codes, triangles)]  # two positions per pair
    distinct, cells = np.unique(np.concatenate([np.zeros(0, np.int64), *codes]), return_inverse=True)
    cells = np.split(cells, np.cumsum([len(code) for code in codes]))  # each topic's pairs in the batch
    values, failures = score_ids(ids, *np.divmod(distinct, len(ids)))
    tables = []
    for (topic, docs, relevant), (i, j), cell in zip(topics, triangles, cells):
        bad = np.isin(cell, list(failures))
        scores, failed = np.zeros((len(docs),) * 2), np.zeros((len(docs),) * 2, dtype=bool)
        scores[i, j] = scores[j, i] = np.take(values, cell)
        failed[i, j] = failed[j, i] = bad
        errors = {(a, b): failures[c] for a, b, c in zip(i[bad].tolist(), j[bad].tolist(), cell[bad].tolist())}
        tables.append(_TopicTable(topic, docs, relevant, scores, failed, errors))
    return tables


def classification_test(
    judgements: Sequence[RelevanceJudgement],
    score_fn: Callable[[str, str], float] | Sequence[_TopicTable],
    iterations: int = DEFAULT_ITERATIONS,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
) -> Confusion:
    """Sampled max-similarity classification over all topics.

    Every topic must hold at least ``sample_size`` relevant and
    ``sample_size`` not-relevant documents; a smaller topic is an error
    rather than a silent skip, so accuracy numbers stay comparable.

    Each cell an iteration needs is asked of ``score_fn`` once, where a loop
    over the iterations first needs it, and never mirrored.  ``run_benchmark``
    passes its tables instead; the first failed cell a decision needs, in
    (topic, iteration, classified document, seed) order, raises its error.
    """
    if iterations < 1 or sample_size < 1:
        raise ValueError("iterations and sample_size must be positive")
    if any(j.level == Level.POSSIBLY_RELEVANT for j in judgements):
        raise ValueError("classification_test expects filtered judgements (levels 0/2 only)")
    topics = _topics(judgements)
    draws = [_draws(seed, topic, tuple(docs), tuple(relevant.tolist()), iterations, sample_size)
             for topic, docs, relevant in topics]
    tables = score_fn
    if callable(score_fn):
        tables = []
        for (topic, docs, relevant), (seeds, rest) in zip(topics, draws):
            n = len(docs)
            scores, codes = np.zeros((n, n)), (rest[:, :, None] * n + seeds[:, None, :]).ravel()  # loop order
            for code in codes[np.sort(np.unique(codes, return_index=True)[1])]:  # each cell at its first need
                scores[code // n, code % n] = score_fn(docs[code // n], docs[code % n])
            tables.append(_TopicTable(topic, docs, relevant, scores, np.zeros((n, n), dtype=bool), {}))
    outcomes = [np.zeros(0, np.intp)]  # 2 * predicted + actual of every classification
    for table, (seeds, rest) in zip(tables, draws):
        cells = rest[:, :, None], seeds[:, None, :]  # iterations x classified documents x seeds
        needed = table.failed[cells]
        if needed.any():
            it, row, col = np.unravel_index(np.argmax(needed), needed.shape)
            raise table.errors[tuple(sorted((rest[it, row], seeds[it, col])))].with_traceback(None)
        scores = table.scores[cells]
        # the larger max-similarity wins; a tie goes to not relevant
        predicted = scores[..., :sample_size].max(axis=2) > scores[..., sample_size:].max(axis=2)
        outcomes.append((2 * predicted + table.relevant[rest]).ravel())
    tn, fn, fp, tp = map(int, np.bincount(np.concatenate(outcomes), minlength=4))
    return Confusion(tp, fp, tn, fn)


@functools.lru_cache(maxsize=256)
def _draws(seed: int, topic: str, docs: tuple[str, ...], relevant: tuple[int, ...],
           iterations: int, sample_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Each iteration's seed documents and the documents left to classify, as read-only rows.

    Both are positions among the topic's sorted ``docs``: the seeds in the
    order drawn, relevant first, the rest in sorted order.  The draws depend
    on no configuration, so a sweep computes them once for all its cells.
    """
    pools = [d for d, r in zip(docs, relevant) if r], [d for d, r in zip(docs, relevant) if not r]
    if min(map(len, pools)) < sample_size:
        raise VocabrelError(f"topic {topic!r} is too small to sample: {len(pools[0])} relevant / "
                            f"{len(pools[1])} not relevant, need {sample_size} of each")
    index = {d: i for i, d in enumerate(docs)}
    seeds = np.empty((iterations, 2 * sample_size), np.intp)
    rest = np.empty((iterations, len(docs) - 2 * sample_size), np.intp)
    for iteration in range(iterations):
        rng = random.Random(derive_substream_seed(seed, topic, iteration))
        drawn = stable_sample(pools[0], sample_size, rng) + stable_sample(pools[1], sample_size, rng)
        sampled = set(drawn)
        seeds[iteration] = [index[d] for d in drawn]
        rest[iteration] = [i for i, d in enumerate(docs) if d not in sampled]
    seeds.flags.writeable = rest.flags.writeable = False
    return seeds, rest


class ScoreSource:
    """Memoized symmetric document-id scorer over a corpus; the memo keeps each pair's score or error."""

    def __init__(self, corpus: Corpus, scorer: Scorer):
        self.corpus = corpus
        self.scorer = scorer
        self._memo: dict[tuple[str, str], float | VocabrelError] = {}

    def __call__(self, id_a: str, id_b: str) -> float:
        key = pair_key(id_a, id_b)
        value = self._memo.get(key)
        if value is None:  # a batch of one
            values, errors = _score_ids(self.corpus, key, [0], [1], self.scorer)
            value = self._memo[key] = errors[0] if errors else float(values[0])
        if isinstance(value, VocabrelError):
            raise value.with_traceback(None)  # a stored exception; drop its old traceback
        return value


@dataclass(frozen=True)
class BenchResult:
    """One benchmark cell: configuration plus separation and accuracy stats."""

    config: MethodConfig
    delta: float = math.nan
    phi: float = math.nan
    mean_same: float = math.nan
    mean_separate: float = math.nan
    skew_same: float = math.nan
    skew_separate: float = math.nan
    n_same: int = 0
    n_separate: int = 0
    n_errors: int = 0
    n_classifications: int = 0
    note: str = ""


def _score_population(tables: Sequence[_TopicTable], n_relevant: int, errors: list[str]) -> np.ndarray:
    """The scores of the pairs with ``n_relevant`` relevant documents: 2 same-topic, 1 separate-topic.

    In ``build_pairs`` order; a failed pair goes to ``errors`` as ``topic/doc_a/doc_b: message``.
    """
    scores = [np.zeros(0)]
    for table in tables:
        i, j = np.triu_indices(len(table.docs), 1)
        keep = table.relevant[i] + table.relevant[j] == n_relevant
        i, j = i[keep], j[keep]
        bad = table.failed[i, j]
        errors.extend(f"{table.topic}/{table.docs[a]}/{table.docs[b]}: {table.errors[a, b]}"
                      for a, b in zip(i[bad].tolist(), j[bad].tolist()))
        scores.append(table.scores[i[~bad], j[~bad]])
    return np.concatenate(scores)


def log_skipped(errors: Sequence[str]) -> None:
    """Log the first 10 skipped pairs, then how many more there were."""
    for msg in errors[:10]:
        log.warning("pair skipped: %s", msg)
    if len(errors) > 10:
        log.warning("... and %d more skipped pairs", len(errors) - 10)


def separation_stats(same: Sequence[float], separate: Sequence[float]) -> dict[str, float]:
    """Cliff's delta, means and skewnesses of two non-empty pair populations.

    The keys are ``BenchResult`` field names; an undefined skewness (fewer
    than 3 values, or a constant sample) is NaN.
    """

    def skew_or_nan(scores: Sequence[float]) -> float:
        try:
            return skewness(scores)
        except ValueError:
            return math.nan

    return {
        "delta": cliffs_delta(same, separate),
        "mean_same": float(np.mean(same)),
        "mean_separate": float(np.mean(separate)),
        "skew_same": skew_or_nan(same),
        "skew_separate": skew_or_nan(separate),
    }


def run_benchmark(
    corpus: Corpus,
    judgements: Sequence[RelevanceJudgement],
    scorer: Scorer,
    iterations: int = DEFAULT_ITERATIONS,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
    dump: tuple[list[float], list[float]] | None = None,
) -> BenchResult:
    """Run both protocols for one configuration over filtered judgements.

    Pairs whose score raises (empty document, no major terms) are dropped
    from the populations and counted in n_errors; the classification test
    treats a scoring failure as fatal since every comparison needs a value.
    If ``dump`` is given its two lists receive the same/separate populations.
    """
    # one batch over every distinct within-topic pair of judged documents: both protocols read it
    tables = _score_tables(judgements, lambda ids, a, b: _score_ids(corpus, ids, a, b, scorer))
    errors: list[str] = []
    same_scores = _score_population(tables, 2, errors)
    sep_scores = _score_population(tables, 1, errors)
    log_skipped(errors)
    if dump is not None:
        dump[0].extend(same_scores.tolist())
        dump[1].extend(sep_scores.tolist())
    if len(same_scores) == 0 or len(sep_scores) == 0:
        raise VocabrelError(
            "benchmark needs both pair populations; got "
            f"{len(same_scores)} same-topic and {len(sep_scores)} separate-topic scores"
        )
    confusion = classification_test(
        judgements, tables, iterations=iterations, sample_size=sample_size, seed=seed
    )
    return BenchResult(
        config=scorer.config,
        phi=mcc(confusion),
        **separation_stats(same_scores, sep_scores),
        n_same=len(same_scores),
        n_separate=len(sep_scores),
        n_errors=len(errors),
        n_classifications=confusion.total,
    )


def _digest(*parts: str) -> str:
    return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()


def _graph_digest(graph: TermGraph) -> str:
    """SHA-256 over a graph's CSR form: its sorted ids, adjacency and edge weights."""
    csr = graph.csr
    digest = hashlib.sha256(json.dumps(csr.terms).encode())
    for array in (csr.indptr, csr.indices, csr.weights):
        digest.update(array.tobytes())
    return digest.hexdigest()


@dataclass
class ArtifactSet:
    """Shared inputs for a sweep: the IC table, graphs and similarity matrices.

    Each is built when first asked for and kept in memory; given a ``cache``
    directory, ``matrix`` also keeps each similarity matrix there, as
    ``--cache`` does.  ``eps`` is only the default floor for ``matrix``; a
    scorer's matrix uses the floor of its own configuration.
    """

    vocab: Vocabulary
    corpus: Corpus | None = None
    freq: FreqTable | None = None
    eps: float = 1e-4
    cache: str | None = None
    _ic: object = field(default=None, repr=False)
    _graphs: dict = field(default_factory=dict, repr=False)
    _matrices: dict = field(default_factory=dict, repr=False)

    def ic_table(self):
        if self._ic is None:
            if self.freq is not None:
                freq = self.freq
            elif self.corpus is not None:
                freq = term_frequencies(self.corpus, self.vocab)
            else:
                raise VocabrelError("information content needs term frequencies or a corpus")
            self._ic = information_content(freq, descendant_closure(self.vocab), self.vocab)
        return self._ic

    def graph(self, kind: str):
        if kind not in self._graphs:
            if kind == "g1":
                self._graphs[kind] = build_unweighted_graph(self.vocab)
            elif kind == "dic":
                self._graphs[kind] = build_ic_weighted_graph(self.vocab, self.ic_table())
            else:
                raise VocabrelError(f"unknown graph kind {kind!r}")
        return self._graphs[kind]

    def matrix(self, kind: str, lam: float, eps: float | None = None) -> SimMatrix:
        """The store of ``kind`` at ``lam`` and ``eps``: from memory, else the cache, else built.

        A cached store's file is named by a digest of exactly what its search
        reads: the graph kind, lambda and eps, the graph's CSR arrays (which
        hold dic's IC values) and the search sources.  Its header records that
        digest with ``ENTRY_RULE``.  A file that fails to load (cut short,
        edited) or that records another digest is reported and rebuilt.
        """
        if eps is None:
            eps = self.eps
        key = (kind, lam, eps)
        if key in self._matrices:
            return self._matrices[key]
        restrict = self.corpus.term_ids() if self.corpus is not None else None
        if not self.cache:
            matrix = self._matrices[key] = similarity_matrix(self.graph(kind), lam=lam, eps=eps, restrict=restrict)
            return matrix
        Path(self.cache).mkdir(parents=True, exist_ok=True)  # fail before the search, not after it
        sources = sorted(restrict) if restrict is not None else None
        parts = [kind, f"{lam:.17g}", f"{eps:.17g}", _graph_digest(self.graph(kind)), json.dumps(sources)]
        path = Path(self.cache) / f"simmatrix-{_digest(*parts)[:24]}.npz"
        digest = _digest(*parts, ENTRY_RULE)  # a store built under another rule keeps its name
        if path.exists():
            try:
                matrix = SimMatrix.load(path)
            except ParseError as exc:
                log.warning("cached similarity matrix unreadable, rebuilding: %s", exc)
            else:
                # digest collisions are hypothetical, a file copied under another name is not
                if (matrix.kind, matrix.lam, matrix.eps, matrix.inputs) == (*key, digest):
                    log.info("cache hit: similarity matrix %s", path.name)
                    self._matrices[key] = matrix
                    return matrix
                log.warning("cached similarity matrix %s does not match the request, rebuilding", path.name)
        built = similarity_matrix(self.graph(kind), lam=lam, eps=eps, restrict=restrict)
        matrix = self._matrices[key] = replace(built, inputs=digest)
        # write a temporary file, then move it into place: no reader sees a half-written file
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            matrix.save(tmp)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        return matrix

    def scorer(self, config: MethodConfig) -> Scorer:
        config.validate()
        ic = self.ic_table() if config.uses_ic else None
        matrix = None
        if config.uses_graph:
            assert config.graph is not None and config.lam is not None
            matrix = self.matrix(config.graph, config.lam, config.eps)
        return Scorer(config=config, ic=ic, matrix=matrix)


def parameter_sweep(
    configs: Sequence[MethodConfig],
    artifacts: ArtifactSet,
    judgements: Sequence[RelevanceJudgement],
    iterations: int = DEFAULT_ITERATIONS,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
) -> list[BenchResult]:
    """Benchmark every configuration, reusing IC tables and matrices.

    A failing cell is reported with NaN statistics and an explanatory note;
    the sweep continues.
    """
    if artifacts.corpus is None:
        raise VocabrelError("parameter_sweep needs a corpus")
    results: list[BenchResult] = []
    for config in configs:
        try:
            scorer = artifacts.scorer(config)
            results.append(
                run_benchmark(
                    artifacts.corpus, judgements, scorer,
                    iterations=iterations, sample_size=sample_size, seed=seed,
                )
            )
        except VocabrelError as exc:
            log.warning("sweep cell %s failed: %s", config.tag(), exc)
            results.append(BenchResult(config=config, note=str(exc)))
    return results


CSV_FIELDS = [
    "method", "vector", "graph", "w", "lambda", "slim",
    "delta", "phi", "mean_same", "mean_sep", "skew_same", "skew_sep", "n_errors",
]


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_results_csv(results: Sequence[BenchResult], dest) -> None:
    """Fixed-column CSV, one row per benchmark cell; '.' marks inapplicable fields.

    The file starts with the column header; run provenance (seed, inputs,
    failure notes) belongs in the accompanying manifest, not in extra columns.
    """
    with _open_out(dest) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_FIELDS)
        for r in results:
            params = r.config.fields()
            if r.config.qualifiers and params["vector"] != ".":
                params["vector"] += "+q"
            stats = (r.delta, r.phi, r.mean_same, r.mean_separate, r.skew_same, r.skew_separate)
            writer.writerow(
                [params[name] for name in ("method", "vector", "graph", "w", "lambda", "slim")]
                + [_fmt(value) for value in stats]
                + [r.n_errors]
            )


def write_distributions(
    same: Sequence[float], separate: Sequence[float], dest, header_tag: str = ""
) -> None:
    """Dump score populations as ``group<TAB>score`` lines for external analysis."""
    with _open_out(dest) as fh:
        fh.write(f"#distributions {header_tag}\n".rstrip() + "\n")
        for s in same:
            fh.write(f"same\t{s:.17g}\n")
        for s in separate:
            fh.write(f"separate\t{s:.17g}\n")


__all__ = [
    "Level",
    "RelevanceJudgement",
    "ingest_judgements",
    "write_judgements",
    "filter_topics",
    "TopicPairSet",
    "build_pairs",
    "cliffs_delta",
    "Confusion",
    "mcc",
    "skewness",
    "ccc",
    "derive_substream_seed",
    "stable_sample",
    "classification_test",
    "pair_key",
    "ScoreSource",
    "BenchResult",
    "log_skipped",
    "separation_stats",
    "run_benchmark",
    "ArtifactSet",
    "parameter_sweep",
    "CSV_FIELDS",
    "write_results_csv",
    "write_distributions",
]
