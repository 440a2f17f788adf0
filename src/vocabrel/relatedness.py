"""Relatedness measures between indexed documents.

Three families:

* Salton's cosine over binary, IC-weighted, or qualifier-augmented vectors.
* Soft cosine x'Sy / sqrt(x'Sx) sqrt(y'Sy) with S a sparse term similarity
  matrix (implicit unit diagonal).  With S = I it reduces bitwise to
  Salton's cosine on the same vectors.
* Maximum term similarities (mts): for each term of one document take the
  best similarity against the other document's terms, then average both
  directions with major terms weighted by w.  The raw-distance variant
  aggregates negated shortest-path distances instead of similarities.

All three score pairs in batches through one kernel.  Each document becomes
a row of indices into a dense block of term similarities and a row of
weights; each step gathers the blocks of ``_CHUNK`` pairs at once and adds
up each pair's terms with ``np.cumsum``, which adds in strict sequence, in
the order a scalar loop over the terms would.  Salton's cosine is the soft
cosine with S = I, read as index equality, so it needs no block; its rows
hold the terms in sorted order, and the count of shared (term, qualifier)
dimensions is added after the term sum, as the scalar formula adds it.
Padding adds exact zeros or is masked, so a score is the same bits whichever
pairs share its batch or step, and the same both ways round.  ``_score_ids``
looks document ids up for ``pairwise_scores`` and ``ScoreSource`` alike.

Scores are reported as computed, without clamping: the cosine of nonnegative
vectors lands in [0, 1] up to float rounding, and raw-distance scores are
legitimately negative.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .docvectors import QualifiedTermVector, TermVector, document_vector
from .errors import (
    ConfigError,
    EmptyDocumentError,
    MissingDataError,
    NoMajorTermsError,
    NonPositiveQuadraticFormError,
    ParseError,
    VocabrelError,
)
from .infocontent import ICTable
from .model import Corpus, Document, TermId, _iter_lines, _open_out, _source_path
from .termgraph import SimMatrix, StoreArrays

# the parameters each method reads besides w; every other one keeps its default
METHOD_PARAMS = {
    "salton": ("vector", "qualifiers"),
    "soft": ("vector", "graph", "lam", "eps"),
    "mts": ("graph", "lam", "eps", "slim", "raw_distance"),
}
METHOD_LABELS = (*METHOD_PARAMS, "mts-rawdist")
VECTORS = ("binary", "ic")
GRAPHS = ("g1", "dic")
# parameter names as users spell them, where that differs from the field name
_SPELLED = {"lam": "lambda"}

SimFn = Callable[[str, str], float]


class RelatednessScore(NamedTuple):
    value: float
    method: str


_CHUNK = 256  # pairs per kernel step: the step's arrays stay a few MB


class _Block:
    """Dense values of a symmetric similarity among the terms added so far, indexed from 1.

    The values come from a store's entry arrays: an entry's value, mirrored,
    is its ``sim`` or ``value(sim)``; a pair with no entry holds ``absent``
    and a term with itself ``self_value``, unless an entry joins the term to
    itself.  Index 0 is padding: its row and column hold ``pad``, which adds
    an exact zero to a soft-cosine sum (0) or never wins an mts maximum
    (-inf).  Spare rows past the last term let batches add terms without a
    copy each time.
    """

    def __init__(self, store: StoreArrays, pad: float, absent: float, self_value: float,
                 value: Callable[[float], float] | None = None):
        self.store, self.value = store, value
        self.pad, self.absent, self.self_value = pad, absent, self_value
        self.index: dict[TermId, int] = {}
        self.array = np.full((1, 1), pad)
        self._where = {t: k for k, t in enumerate(store.terms)}  # position in the store of each id
        self._at = np.zeros(len(store.terms), np.int32)  # block index of each store id, 0 if none

    def add(self, terms: Iterable[TermId]) -> None:
        """Index each new term, its row and column scattered from the store's entries."""
        old = len(self.index)
        for t in terms:
            self.index.setdefault(t, len(self.index) + 1)
        new = len(self.index)
        if new == old:
            return
        if new >= len(self.array):  # out of spare rows: grow by a quarter, or to fit
            grow = max(new + 1, len(self.array) * 5 // 4) - len(self.array)
            self.array = np.pad(self.array, (0, grow), constant_values=self.pad)
        fresh = np.arange(old + 1, new + 1)
        self.array[old + 1 : new + 1, 1 : new + 1] = self.array[1 : new + 1, old + 1 : new + 1] = self.absent
        self.array[fresh, fresh] = self.self_value
        placed = [(self._where[t], k) for t, k in islice(self.index.items(), old, None) if t in self._where]
        if not placed:  # no new term has an entry
            return
        self._at[[p for p, _ in placed]] = [k for _, k in placed]
        ia, ib = self._at[self.store.a], self._at[self.store.b]
        hit = np.flatnonzero((np.minimum(ia, ib) > 0) & (np.maximum(ia, ib) > old))  # one end new
        ia, ib, sims = ia[hit], ib[hit], self.store.sim[hit]
        if self.value is not None:
            sims = np.fromiter(map(self.value, sims.tolist()), float, len(sims))
        self.array[ia, ib] = self.array[ib, ia] = sims


def _matrix_block(matrix: SimMatrix, pad: float, raw_distance: bool = False) -> _Block:
    """An empty block over ``matrix``: its similarities, or the negated distances of mts-rawdist."""
    if raw_distance:
        neg_distance = _neg_distance_rule(matrix)
        return _Block(matrix.arrays, pad, neg_distance(0.0), 0.0, neg_distance)
    return _Block(matrix.arrays, pad, 0.0, 1.0)


class _Row(NamedTuple):
    """A document prepared for the kernel."""

    terms: Sequence[int]  # block indices (salton: term indices), in the order the sums run
    weights: Sequence[float]
    total: float  # salton x'x, soft x'Sx, mts the sum of the weights
    key: object  # the smaller goes first in a pair: soft (keys, weights), mts the id, salton ()
    quals: frozenset = frozenset()  # salton: the (term, qualifier) dimensions


def _in_order(terms: np.ndarray) -> np.ndarray:
    """Each pair's sum of its terms, added one by one from 0.0 as a scalar loop adds them."""
    # + 0.0 turns the -0.0 that a run of signed zeros can give into the loop's 0.0
    return np.cumsum(terms.reshape(len(terms), -1), axis=1)[:, -1] + 0.0


def _score_rows(method: str, block: np.ndarray | None, rows: Sequence, pairs: Iterable[tuple[int, int]],
                ids: Sequence[str] = ()) -> list:
    """Each pair's score, or its exception: the first of its rows that is one, or x'Sx <= 0.

    Salton reads no ``block``: S = I is a test of index equality.  With the
    rows' document ``ids`` given, a soft x'Sx error names both documents.
    """
    results: list = []
    todo = []  # (position in results, row index, row index)
    for i, j in pairs:
        error = next((r for r in (rows[i], rows[j]) if isinstance(r, VocabrelError)), None)
        if error is None:
            x, y = (j, i) if rows[j].key < rows[i].key else (i, j)  # same bits both ways round
            if rows[x].total <= 0.0 or rows[y].total <= 0.0:  # an mts weight sum is at least 1
                error = NonPositiveQuadraticFormError(
                    (f"documents {ids[i]!r}, {ids[j]!r}: " if ids else "")
                    + f"non-positive quadratic form (x'Sx={rows[x].total!r}, y'Sy={rows[y].total!r})"
                ) if method != "salton" else EmptyDocumentError("cosine of a zero vector")
            else:
                todo.append((len(results), x, y))
        results.append(error)
    if not todo:
        return results
    table = [r if isinstance(r, _Row) else _Row([0], [0.0], 0.0, None) for r in rows]  # failed: padding
    lens = np.array([len(r.terms) for r in table])
    terms, weights = np.zeros((len(table), lens.max()), np.intp), np.zeros((len(table), lens.max()))
    for k, row in enumerate(table):
        terms[k, : lens[k]], weights[k, : lens[k]] = row.terms, row.weights
    totals = np.array([r.total for r in table])
    at, ra, rb = map(np.array, zip(*todo))
    for start in range(0, len(at), _CHUNK):
        a, b = ra[start : start + _CHUNK], rb[start : start + _CHUNK]
        na, nb = lens[a].max(), lens[b].max()
        ia, wa, ib, wb = terms[a, :na], weights[a, :na], terms[b, :nb], weights[b, :nb]
        if method == "salton":  # padding meets only padding, and its weight is 0
            sims = ia[:, :, None] == ib[:, None, :]
        else:
            sims = block[ia[:, :, None], ib[:, None, :]]
        if method == "mts":  # a padded row's maximum is masked; a padded column never wins
            best_a = np.where(ia > 0, sims.max(axis=2), 0.0)
            best_b = np.where(ib > 0, sims.max(axis=1), 0.0)
            num, den = _in_order(wa * best_a) + _in_order(wb * best_b), totals[a] + totals[b]
        else:
            num = _in_order((sims * wa[:, :, None]) * wb[:, None, :])
            if method == "salton":  # the shared qualifier dimensions, counted after the term sum
                num = num + [len(table[x].quals & table[y].quals) for x, y in zip(a, b)]
            den = np.sqrt(totals[a]) * np.sqrt(totals[b])
        for k, value in zip(at[start : start + _CHUNK].tolist(), (num / den).tolist()):
            results[k] = value
    return results


def _alone(method: str, block: np.ndarray | None, rows: Sequence[_Row]) -> RelatednessScore:
    """The score of the pair of two rows as a batch of one gives it, or the error it raises."""
    (value,) = _score_rows(method, block, rows, [(0, 1)])
    if isinstance(value, VocabrelError):
        raise value
    return RelatednessScore(value, method)


def _salton_row(vec: TermVector | QualifiedTermVector, index: dict[TermId, int]) -> _Row:
    """``vec``'s terms in sorted order, numbered from 1 in ``index``, and its qualifier dimensions."""
    quals = frozenset()
    if isinstance(vec, QualifiedTermVector):
        vec, quals = vec.term_part, frozenset(vec.qual_part)
    keys = sorted(vec)
    terms = [index.setdefault(k, len(index) + 1) for k in keys] or [0]  # no terms: one of padding
    weights = [vec[k] for k in keys] or [0.0]
    total = float(_in_order(np.square(weights)[None])[0]) + len(quals)  # x'x; qualifiers weigh 1
    return _Row(terms, weights, total, (), quals)


def salton_cosine(
    x: TermVector | QualifiedTermVector, y: TermVector | QualifiedTermVector
) -> RelatednessScore:
    """Cosine similarity of two sparse vectors."""
    index: dict[TermId, int] = {}
    return _alone("salton", None, [_salton_row(v, index) for v in (x, y)])


def _soft_row(vec: TermVector, block: _Block) -> _Row:
    if not vec:
        raise EmptyDocumentError("soft cosine of an empty vector")
    keys = tuple(sorted(vec))
    weights = tuple(vec[k] for k in keys)
    terms, w = [block.index[k] for k in keys], np.array(weights)
    qform = _in_order(((block.array[np.ix_(terms, terms)] * w[:, None]) * w)[None])[0]  # x'Sx
    return _Row(terms, weights, float(qform), (keys, weights))


def soft_cosine(x: TermVector, y: TermVector, matrix: SimMatrix) -> RelatednessScore:
    """Soft cosine with term-to-term similarities from ``matrix``.

    Takes plain term vectors only; qualifier-augmented vectors have no
    similarity entries for qualifier dimensions.
    """
    if isinstance(x, QualifiedTermVector) or isinstance(y, QualifiedTermVector):
        raise ConfigError("soft cosine is not defined for qualifier-augmented vectors")
    block = _matrix_block(matrix, 0.0)
    block.add(chain(x, y))
    return _alone("soft", block.array, [_soft_row(v, block) for v in (x, y)])


def _mts_row(doc: Document, w: float, slim: bool, block: _Block) -> _Row:
    if w < 1:
        raise ValueError(f"major weight must be >= 1, got {w}")
    if doc.is_empty:
        raise EmptyDocumentError(f"empty document {doc.id!r}")
    annotations = [a for a in doc.annotations if a.is_major] if slim else doc.annotations
    if not annotations:
        raise NoMajorTermsError(f"document {doc.id!r} has no major terms")
    weights = [w if a.is_major else 1.0 for a in annotations]
    return _Row([block.index[a.term] for a in annotations], weights, float(np.cumsum(weights)[-1]), doc.id)


def mts(
    doc_a: Document,
    doc_b: Document,
    sim: SimFn,
    w: float = 1.0,
    slim: bool = False,
) -> RelatednessScore:
    """Average of per-term best similarities, major terms weighted by w; ``sim`` is symmetric."""
    if doc_b.id < doc_a.id:
        doc_a, doc_b = doc_b, doc_a
    terms = list(dict.fromkeys(a.term for doc in (doc_a, doc_b) for a in doc.annotations))
    later, earlier = np.tril_indices(len(terms))  # every pair once, each term with itself too
    sims = np.fromiter(map(sim, [terms[i] for i in later], [terms[j] for j in earlier]), float, len(later))
    block = _Block(StoreArrays(terms, later, earlier, sims), -math.inf, 0.0, 0.0)
    block.add(terms)
    return _alone("mts", block.array, [_mts_row(doc, w, slim, block) for doc in (doc_a, doc_b)])


def matrix_distance_fn(matrix: SimMatrix) -> SimFn:
    """Negated shortest-path distances recovered from a SimMatrix.

    Stored similarity s corresponds to distance -lambda*ln(s).  Pairs beyond
    the matrix horizon (absent entries, including disconnected pairs) count
    as the cutoff distance: -lambda*ln(eps) when eps > 0, otherwise one more
    than the largest materialized distance.
    """
    neg_distance = _neg_distance_rule(matrix)
    return lambda a, b: 0.0 if a == b else neg_distance(matrix.sim(a, b))


def _neg_distance_rule(matrix: SimMatrix) -> Callable[[float], float]:
    """The negated distance ``matrix_distance_fn`` gives a pair of stored similarity s (0 if absent)."""
    lam = matrix.lam
    if matrix.eps > 0.0:
        cutoff = -lam * math.log(matrix.eps)
    else:
        longest = max((-lam * math.log(s) for s in matrix.entries.values()), default=0.0)
        cutoff = longest + 1.0

    def neg_distance(s: float) -> float:
        if s <= 0.0:
            return -cutoff
        return -min(cutoff, -lam * math.log(s))

    return neg_distance


@dataclass(frozen=True)
class MethodConfig:
    """Full parameterization of one relatedness method."""

    method: str
    vector: str = "binary"
    qualifiers: bool = False
    graph: str | None = None
    w: float = 1.0
    lam: float | None = None
    eps: float = 1e-4
    slim: bool = False
    raw_distance: bool = False

    @classmethod
    def from_label(cls, label: str, **params) -> MethodConfig:
        """The configuration a method label names: ``mts-rawdist`` is mts on raw distances."""
        if label == "mts-rawdist":
            return cls("mts", raw_distance=True, **params)
        return cls(label, **params)

    @property
    def method_label(self) -> str:
        if self.method == "mts" and self.raw_distance:
            return "mts-rawdist"
        return self.method

    @property
    def reads(self) -> tuple[str, ...]:
        return METHOD_PARAMS.get(self.method, ())

    @property
    def uses_ic(self) -> bool:
        return self.vector == "ic" or self.graph == "dic"

    @property
    def uses_graph(self) -> bool:
        return "graph" in self.reads

    def applicable(self) -> MethodConfig:
        """This configuration with every parameter its method does not read at its default."""
        return dataclasses.replace(
            self, **{name: default for name, default in _DEFAULTS.items() if name not in self.reads}
        )

    def validate(self) -> None:
        if self.method not in METHOD_PARAMS:
            raise ConfigError(f"unknown method {self.method!r}")
        if self.w < 1:
            raise ConfigError(f"major weight must be >= 1, got {self.w}")
        for name, default in _DEFAULTS.items():
            if name not in self.reads and getattr(self, name) != default:
                spelled = _SPELLED.get(name, name)
                raise ConfigError(f"method {self.method_label!r} does not read {spelled}")
        if self.vector not in VECTORS:
            raise ConfigError(f"unknown vector kind {self.vector!r}")
        if not 0.0 <= self.eps < 1.0:
            raise ConfigError(f"eps must be in [0, 1), got {self.eps}")
        if self.uses_graph:
            if self.graph not in GRAPHS:
                raise ConfigError(f"method {self.method!r} needs graph g1 or dic, got {self.graph!r}")
            if self.lam is None or self.lam <= 0:
                raise ConfigError(f"method {self.method!r} needs lambda > 0, got {self.lam}")

    def fields(self) -> dict[str, str]:
        """Every parameter rendered for output; '.' marks one the method does not read."""
        fields = {"method": self.method_label}
        for name in ("vector", "qualifiers", "graph", "w", "lam", "eps", "slim"):
            value = getattr(self, name) if name == "w" or name in self.reads else None
            if isinstance(value, bool):
                value = str(value).lower()
            elif isinstance(value, (int, float)):
                value = f"{value:g}"
            fields[_SPELLED.get(name, name)] = "." if value is None else value
        return fields

    def tag(self) -> str:
        """Key=value rendering of every parameter, for output headers."""
        return " ".join(f"{k}={v}" for k, v in self.fields().items())


# the default of every parameter that METHOD_PARAMS assigns to methods
_DEFAULTS = {
    f.name: f.default for f in dataclasses.fields(MethodConfig) if f.name not in ("method", "w")
}


@dataclass
class Scorer:
    """Applies one configured method to document pairs, preparing each document once."""

    config: MethodConfig
    ic: ICTable | None = None
    matrix: SimMatrix | None = None
    # id(document) -> (the document, kept so the id stays its own; its record or exception)
    _prepared: dict[int, tuple[Document, object]] = field(default_factory=dict, repr=False)
    _block: _Block | None = field(default=None, repr=False)  # soft, mts: the prepared terms
    _index: dict[TermId, int] = field(default_factory=dict, repr=False)  # salton: the prepared terms

    def __post_init__(self) -> None:
        cfg = self.config
        cfg.validate()
        if cfg.uses_ic and self.ic is None:
            raise ConfigError(f"configuration {cfg.tag()!r} needs an IC table")
        if cfg.uses_graph:
            if self.matrix is None:
                raise ConfigError(f"configuration {cfg.tag()!r} needs a similarity matrix")
            pad = -math.inf if cfg.method == "mts" else 0.0
            self._block = _matrix_block(self.matrix, pad, cfg.raw_distance)

    def _record(self, doc: Document):
        cfg = self.config
        if cfg.method == "mts":
            return _mts_row(doc, cfg.w, cfg.slim, self._block)
        vec = document_vector(doc, use_ic=cfg.vector == "ic", ic=self.ic, w=cfg.w, qualifiers=cfg.qualifiers)
        return _salton_row(vec, self._index) if cfg.method == "salton" else _soft_row(vec, self._block)

    def _prepare(self, docs: Sequence[Document]) -> list:
        """Each of the distinct ``docs``' record, or the exception preparing it raised."""
        fresh = [d for d in docs if id(d) not in self._prepared]
        if self._block is not None:
            self._block.add(a.term for d in fresh for a in d.annotations)
        for doc in fresh:
            try:
                record = self._record(doc)
            except VocabrelError as exc:
                record = exc
            self._prepared[id(doc)] = (doc, record)
        return [self._prepared[id(d)][1] for d in docs]

    def score(self, doc_a: Document, doc_b: Document) -> float:
        (value,) = self.score_pairs([(doc_a, doc_b)])
        if isinstance(value, VocabrelError):
            raise value.with_traceback(None)  # a stored exception; drop its old traceback
        return value

    def score_pairs(self, pairs: Sequence[tuple[Document, Document]]) -> list[float | VocabrelError]:
        """Each pair's score, or the exception scoring it alone raises: the same bits as alone."""
        cfg = self.config
        if cfg.method == "mts":  # mts prepares, and fails on, the smaller document id first
            pairs = [(b, a) if b.id < a.id else (a, b) for a, b in pairs]
        docs = list({id(d): d for pair in pairs for d in pair}.values())
        position = {id(d): k for k, d in enumerate(docs)}
        rows = self._prepare(docs)  # before reading the block: preparing may grow it
        index_pairs = [(position[id(a)], position[id(b)]) for a, b in pairs]
        block = None if self._block is None else self._block.array
        return _score_rows(cfg.method, block, rows, index_pairs, [d.id for d in docs])


PairScore = tuple[str, str, float]
PairError = tuple[str, str, str]


def _score_ids(corpus: Corpus, pairs: Sequence[tuple[str, str]], scorer: Scorer) -> list[float | VocabrelError]:
    """Each id pair's score or error; the pairs of documents the corpus holds go to ``scorer`` in one batch."""
    docs = corpus.documents
    scored = iter(scorer.score_pairs([(docs[a], docs[b]) for a, b in pairs if a in docs and b in docs]))
    return [next(scored) if a in docs and b in docs
            else MissingDataError(f"document {a if a not in docs else b!r} is not in the corpus")
            for a, b in pairs]


def pairwise_scores(
    corpus: Corpus,
    pairs: Iterable[tuple[str, str]],
    scorer: Scorer,
    errors: list[PairError] | None = None,
) -> Iterator[PairScore]:
    """Score pairs a chunk at a time, as the result is consumed, yielding them in input order.

    Scores are the same bits as scoring each pair alone.  A pair naming a
    document the corpus lacks, or failing to score, goes to ``errors`` and is
    skipped; ``ScoreSource`` raises the same errors, from the same lookup.
    """
    pairs = iter(pairs)
    while chunk := list(islice(pairs, _CHUNK)):
        for (a, b), value in zip(chunk, _score_ids(corpus, chunk, scorer)):
            if isinstance(value, float):
                yield (a, b, value)
            elif errors is not None:
                errors.append((a, b, str(value)))


def write_scores(dest, tag: str, results: Iterable[PairScore]) -> int:
    """Write ``doc_a<TAB>doc_b<TAB>score`` lines under a ``#method ...`` header."""
    n = 0
    with _open_out(dest) as fh:
        fh.write(f"#method {tag.removeprefix('method=')}\n")
        for id_a, id_b, value in results:
            fh.write(f"{id_a}\t{id_b}\t{value:.17g}\n")
            n += 1
    return n


def read_scores(source) -> tuple[str, list[PairScore]]:
    """Inverse of write_scores; returns (header tag, rows)."""
    header = ""
    rows: list[PairScore] = []
    path = _source_path(source)
    for lineno, line in enumerate(_iter_lines(source), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            if lineno == 1 and line.startswith("#method "):
                header = line[len("#method ") :].strip()
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError("expected doc_a<TAB>doc_b<TAB>score", path=path, line=lineno)
        try:
            rows.append((parts[0], parts[1], float(parts[2])))
        except ValueError:
            raise ParseError(f"bad score {parts[2]!r}", path=path, line=lineno) from None
    return header, rows


__all__ = [
    "METHOD_PARAMS",
    "RelatednessScore",
    "MethodConfig",
    "Scorer",
    "salton_cosine",
    "soft_cosine",
    "mts",
    "matrix_distance_fn",
    "pairwise_scores",
    "write_scores",
    "read_scores",
]
