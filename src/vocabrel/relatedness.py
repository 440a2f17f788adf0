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
Padding is an absent term, so a score is the same bits whichever pairs share
its batch or step, and the same both ways round.  Soft and mts scorers, and
``soft_cosine``, index the store's ``SimMatrix.block`` itself (a term outside
it, similar only to itself, pads a private copy); mts-rawdist reads its own
block of negated distances.  A batch holds each document once and each pair
as two positions; ``_score_ids`` looks each id up once for
``pairwise_scores``, ``ScoreSource`` and ``run_benchmark``.

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
from .termgraph import SimMatrix

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


class _Row(NamedTuple):
    """A document prepared for the kernel."""

    terms: Sequence[int]  # block indices (salton: term indices), in the order the sums run
    weights: Sequence[float]
    total: float  # salton x'x, soft x'Sx, mts the sum of the weights
    key: object = ()  # soft: (keys, weights); the smaller goes first in a pair
    quals: frozenset = frozenset()  # salton: the (term, qualifier) dimensions


def _in_order(terms: np.ndarray) -> np.ndarray:
    """Each pair's sum of its terms, added one by one from 0.0 as a scalar loop adds them."""
    # + 0.0 turns the -0.0 that a run of signed zeros can give into the loop's 0.0
    return np.cumsum(terms.reshape(len(terms), -1), axis=1)[:, -1] + 0.0


def _score_rows(method: str, block: np.ndarray | None, rows: Sequence, a: Sequence[int], b: Sequence[int],
                ids: Sequence[str] = ()) -> tuple[np.ndarray, dict[int, VocabrelError]]:
    """The scores of the pairs of rows ``a[k]``, ``b[k]``, and by position each failed pair's exception.

    A pair fails, and scores nan, if a row of it is an exception (for mts,
    the smaller document id's first) or has a total <= 0.  Only a soft sum
    depends on which row goes first: the smaller key.  Salton reads no
    ``block``: S = I is a test of index equality.  Given the rows' ``ids``, a
    soft x'Sx error names both documents.
    """
    a, b = np.asarray(a, np.intp), np.asarray(b, np.intp)
    values, errors, scored = np.full(len(a), np.nan), {}, np.arange(len(a))
    failed = [k for k, r in enumerate(rows) if not isinstance(r, _Row) or r.total <= 0.0]  # mts totals are >= 1
    if failed:
        fail = np.isin(a, failed) | np.isin(b, failed)
        for k, i, j in zip(np.flatnonzero(fail).tolist(), a[fail].tolist(), b[fail].tolist()):
            if method == "mts" and ids[j] < ids[i]:
                i, j = j, i
            errors[k] = next((r for r in (rows[i], rows[j]) if not isinstance(r, _Row)), None)
            if errors[k] is None:
                x, y = (j, i) if rows[j].key < rows[i].key else (i, j)
                errors[k] = NonPositiveQuadraticFormError(
                    (f"documents {ids[i]!r}, {ids[j]!r}: " if ids else "")
                    + f"non-positive quadratic form (x'Sx={rows[x].total!r}, y'Sy={rows[y].total!r})"
                ) if method != "salton" else EmptyDocumentError("cosine of a zero vector")
        rows = [r if isinstance(r, _Row) else _Row([0], [0.0], 0.0) for r in rows]  # failed: padding
        a, b, scored = a[~fail], b[~fail], scored[~fail]
    quals = method == "salton" and any(r.quals for r in rows)
    if method == "soft":
        order = sorted(range(len(rows)), key=lambda k: rows[k].key)
        rows, rank = [rows[k] for k in order], np.array(order).argsort()
        a, b = np.minimum(rank[a], rank[b]), np.maximum(rank[a], rank[b])
    lens = np.array([len(r.terms) for r in rows], np.intp)
    width = lens.max(initial=0)
    terms, weights = np.zeros((len(rows), width), np.intp), np.zeros((len(rows), width))
    for k, row in enumerate(rows):
        terms[k, : lens[k]], weights[k, : lens[k]] = row.terms, row.weights
    totals = np.array([r.total for r in rows])
    for start in range(0, len(a), _CHUNK):
        x, y = a[start : start + _CHUNK], b[start : start + _CHUNK]
        nx, ny = lens[x].max(), lens[y].max()
        ix, wx, iy, wy = terms[x, :nx], weights[x, :nx], terms[y, :ny], weights[y, :ny]
        if method == "salton":  # padding meets only padding, and its weight is 0
            sims = ix[:, :, None] == iy[:, None, :]
        else:
            sims = block[ix[:, :, None], iy[:, None, :]]
        if method == "mts":  # a padded row's maximum is masked; a padded column never wins
            best_x = np.where(ix > 0, sims.max(axis=2), 0.0)
            best_y = np.where(iy > 0, sims.max(axis=1), 0.0)
            num, den = _in_order(wx * best_x) + _in_order(wy * best_y), totals[x] + totals[y]
        else:
            num = _in_order((sims * wx[:, :, None]) * wy[:, None, :])
            if quals:  # the shared qualifier dimensions, counted after the term sum
                num = num + [len(rows[i].quals & rows[j].quals) for i, j in zip(x.tolist(), y.tolist())]
            den = np.sqrt(totals[x]) * np.sqrt(totals[y])
        values[scored[start : start + _CHUNK]] = num / den
    return values, errors


def _one(batch: tuple[np.ndarray, dict[int, VocabrelError]]) -> float:
    """The score of a batch of one pair, or the exception the pair failed with, raised."""
    values, errors = batch
    if errors:
        raise errors[0].with_traceback(None)  # maybe a stored exception; drop its old traceback
    return float(values[0])


def _salton_row(vec: TermVector | QualifiedTermVector, index: dict[TermId, int]) -> _Row:
    """``vec``'s terms in sorted order, numbered from 1 in ``index``, and its qualifier dimensions."""
    quals = frozenset()
    if isinstance(vec, QualifiedTermVector):
        vec, quals = vec.term_part, frozenset(vec.qual_part)
    keys = sorted(vec)
    terms = [index.setdefault(k, len(index) + 1) for k in keys] or [0]  # no terms: one of padding
    weights = [vec[k] for k in keys] or [0.0]
    total = float(_in_order(np.square(weights)[None])[0]) + len(quals)  # x'x; qualifiers weigh 1
    return _Row(terms, weights, total, quals=quals)


def salton_cosine(
    x: TermVector | QualifiedTermVector, y: TermVector | QualifiedTermVector
) -> RelatednessScore:
    """Cosine similarity of two sparse vectors."""
    index: dict[TermId, int] = {}
    rows = [_salton_row(v, index) for v in (x, y)]
    return RelatednessScore(_one(_score_rows("salton", None, rows, [0], [1])), "salton")


def _placed(block: np.ndarray, index: dict[TermId, int], terms: Iterable[TermId],
            self_value: float) -> tuple[np.ndarray, dict[TermId, int]]:
    """``block`` and ``index`` with each of ``terms`` indexed: as they are, unless a term is outside.

    An outside term is similar only to itself: its row and column of a padded
    copy hold the padding's absent value, and ``self_value`` on the diagonal.
    """
    new = [t for t in dict.fromkeys(terms) if t not in index]
    if not new:
        return block, index
    at = np.arange(len(block), len(block) + len(new))
    block = np.pad(block, (0, len(new)), constant_values=block[0, 0])
    block[at, at] = self_value
    return block, {**index, **dict(zip(new, at.tolist()))}


def _soft_row(vec: TermVector, block: np.ndarray, index: dict[TermId, int]) -> _Row:
    if not vec:
        raise EmptyDocumentError("soft cosine of an empty vector")
    keys = tuple(sorted(vec))
    weights = tuple(vec[k] for k in keys)
    terms, w = [index[k] for k in keys], np.array(weights)
    qform = _in_order(((block[np.ix_(terms, terms)] * w[:, None]) * w)[None])[0]  # x'Sx
    return _Row(terms, weights, float(qform), (keys, weights))


def soft_cosine(x: TermVector, y: TermVector, matrix: SimMatrix) -> RelatednessScore:
    """Soft cosine with term-to-term similarities from ``matrix``.

    Takes plain term vectors only; qualifier-augmented vectors have no
    similarity entries for qualifier dimensions.
    """
    if isinstance(x, QualifiedTermVector) or isinstance(y, QualifiedTermVector):
        raise ConfigError("soft cosine is not defined for qualifier-augmented vectors")
    block, index = _placed(matrix.block, matrix.index, chain(x, y), 1.0)
    rows = [_soft_row(v, block, index) for v in (x, y)]
    return RelatednessScore(_one(_score_rows("soft", block, rows, [0], [1])), "soft")


def _mts_row(doc: Document, w: float, slim: bool, index: dict[TermId, int]) -> _Row:
    if w < 1:
        raise ValueError(f"major weight must be >= 1, got {w}")
    if doc.is_empty:
        raise EmptyDocumentError(f"empty document {doc.id!r}")
    annotations = [a for a in doc.annotations if a.is_major] if slim else doc.annotations
    if not annotations:
        raise NoMajorTermsError(f"document {doc.id!r} has no major terms")
    weights = [w if a.is_major else 1.0 for a in annotations]
    return _Row([index[a.term] for a in annotations], weights, float(np.cumsum(weights)[-1]))


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
    block = np.full((len(terms) + 1,) * 2, -math.inf)  # padding, less than any sim: sims may be negative
    block[later + 1, earlier + 1] = block[earlier + 1, later + 1] = sims
    rows = [_mts_row(doc, w, slim, {t: k for k, t in enumerate(terms, 1)}) for doc in (doc_a, doc_b)]
    return RelatednessScore(_one(_score_rows("mts", block, rows, [0], [1])), "mts")


def matrix_distance_fn(matrix: SimMatrix) -> SimFn:
    """Negated shortest-path distances recovered from a SimMatrix.

    Stored similarity s corresponds to distance -lambda*ln(s).  Pairs beyond
    the matrix horizon (absent entries, including disconnected pairs) count
    as the cutoff distance: -lambda*ln(eps) when eps > 0, otherwise one more
    than the largest materialized distance.
    """
    block, index = _raw_block(matrix), matrix.index
    return lambda a, b: 0.0 if a == b else float(block[index.get(a, 0), index.get(b, 0)])


def _raw_block(matrix: SimMatrix) -> np.ndarray:
    """mts-rawdist's block: ``matrix_distance_fn`` over the store's terms, by the scalar ``math.log``.

    A pair with no entry, padding included, holds -cutoff, and the diagonal 0.0.
    """
    i, j, sims = matrix.stored()
    lam = matrix.lam
    if matrix.eps > 0.0:
        cutoff = -lam * math.log(matrix.eps)
    else:  # the least similarity is the longest distance: log is monotone
        cutoff = (-lam * math.log(sims.min()) if len(sims) else 0.0) + 1.0
    block = np.full(matrix.block.shape, -cutoff)
    block[i, j] = block[j, i] = [-min(cutoff, -lam * math.log(s)) if s > 0.0 else -cutoff for s in sims.tolist()]
    np.fill_diagonal(block[1:, 1:], 0.0)
    return block


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
            if self.lam is None or not 0 < self.lam < math.inf:  # nan and inf fail too
                raise ConfigError(f"method {self.method!r} needs a finite lambda > 0, got {self.lam}")

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
    _block: np.ndarray | None = field(default=None, repr=False)  # the store's block; mts-rawdist: its own
    _index: dict[TermId, int] = field(default_factory=dict, repr=False)  # a term's in the block; salton: its own

    def __post_init__(self) -> None:
        cfg = self.config
        cfg.validate()
        if cfg.uses_ic and self.ic is None:
            raise ConfigError(f"configuration {cfg.tag()!r} needs an IC table")
        if cfg.uses_graph:
            if self.matrix is None:
                raise ConfigError(f"configuration {cfg.tag()!r} needs a similarity matrix")
            self._block = _raw_block(self.matrix) if cfg.raw_distance else self.matrix.block
            self._index = self.matrix.index

    def _record(self, doc: Document):
        cfg = self.config
        if cfg.method == "mts":
            return _mts_row(doc, cfg.w, cfg.slim, self._index)
        vec = document_vector(doc, use_ic=cfg.vector == "ic", ic=self.ic, w=cfg.w, qualifiers=cfg.qualifiers)
        return _salton_row(vec, self._index) if cfg.method == "salton" else _soft_row(vec, self._block, self._index)

    def score(self, doc_a: Document, doc_b: Document) -> float:
        return _one(self.score_pairs([doc_a, doc_b], [0], [1]))

    def score_pairs(self, docs: Sequence[Document], a: Sequence[int], b: Sequence[int]) -> tuple[np.ndarray, dict]:
        """The scores of the pairs of ``docs`` at ``a[k]``, ``b[k]``, and by ``k`` each failed pair's exception.

        A score has the same bits as the pair scored alone, either way round; a
        failed pair scores nan, and its exception is the one it raises alone.
        """
        fresh = list({id(d): d for d in docs if id(d) not in self._prepared}.values())  # each once
        if self._block is not None:  # before preparing: an outside term pads a private copy of the block
            terms, self_value = (t.term for d in fresh for t in d.annotations), float(not self.config.raw_distance)
            self._block, self._index = _placed(self._block, self._index, terms, self_value)
        for doc in fresh:  # each document's record, or the exception preparing it raised
            try:
                record = self._record(doc)
            except VocabrelError as exc:
                record = exc
            self._prepared[id(doc)] = (doc, record)
        rows = [self._prepared[id(d)][1] for d in docs]
        return _score_rows(self.config.method, self._block, rows, a, b, [d.id for d in docs])


PairScore = tuple[str, str, float]
PairError = tuple[str, str, str]


def _score_ids(corpus: Corpus, ids: Sequence[str], a: Sequence[int], b: Sequence[int],
               scorer: Scorer) -> tuple[np.ndarray, dict[int, VocabrelError]]:
    """``scorer.score_pairs`` over the documents of ``ids``, each id looked up once.

    A pair naming an id the corpus lacks is not asked of ``scorer``: it fails
    with ``MissingDataError``, which names the pair's first such id.
    """
    docs = corpus.documents
    if all(d in docs for d in ids):  # the path below would add some 40% to a lone ``ScoreSource`` ask
        return scorer.score_pairs([docs[d] for d in ids], a, b)
    held, a, b = np.array([d in docs for d in ids]), np.asarray(a, np.intp), np.asarray(b, np.intp)
    asked = held[a] & held[b]
    values, at = np.full(len(a), np.nan), np.cumsum(held) - 1  # at: a held id's position among the held ids
    values[asked], scored = scorer.score_pairs([docs[d] for d in ids if d in docs], at[a[asked]], at[b[asked]])
    errors = dict(zip(np.flatnonzero(asked)[list(scored)].tolist(), scored.values()))
    for k, i, j in zip(np.flatnonzero(~asked).tolist(), a[~asked].tolist(), b[~asked].tolist()):
        errors[k] = MissingDataError(f"document {ids[i] if not held[i] else ids[j]!r} is not in the corpus")
    return values, errors


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
        at = {d: k for k, d in enumerate(dict.fromkeys(chain.from_iterable(chunk)))}
        values, failed = _score_ids(corpus, list(at), [at[x] for x, _ in chunk], [at[y] for _, y in chunk], scorer)
        for k, ((x, y), value) in enumerate(zip(chunk, values.tolist())):
            if k not in failed:
                yield (x, y, value)
            elif errors is not None:
                errors.append((x, y, str(failed[k])))


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
    """Inverse of write_scores; returns (header tag, rows).

    A ``#method`` header after the first line, or a pair given again, either
    way round, with a score of other bits, is a ``ParseError``.
    """
    header = ""
    rows: list[PairScore] = []
    seen: dict[tuple[str, str], float] = {}
    path = _source_path(source)
    for lineno, line in enumerate(_iter_lines(source), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        if line.startswith("#"):
            if line.startswith("#method "):
                if lineno > 1:
                    raise ParseError("#method header after the first line", path=path, line=lineno)
                header = line[len("#method ") :].strip()
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError("expected doc_a<TAB>doc_b<TAB>score", path=path, line=lineno)
        try:
            value = float(parts[2])
        except ValueError:
            raise ParseError(f"bad score {parts[2]!r}", path=path, line=lineno) from None
        first = seen.setdefault((parts[0], parts[1]) if parts[0] <= parts[1] else (parts[1], parts[0]), value)
        if first.hex() != value.hex():
            raise ParseError(f"pair ({parts[0]}, {parts[1]}) scored {value!r} here, {first!r} before",
                             path=path, line=lineno)
        rows.append((parts[0], parts[1], value))
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
