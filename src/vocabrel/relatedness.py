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

Scores are reported as computed, without clamping: the cosine of nonnegative
vectors lands in [0, 1] up to float rounding, and raw-distance scores are
legitimately negative.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

from .docvectors import QualifiedTermVector, TermVector, document_vector
from .errors import (
    ConfigError,
    EmptyDocumentError,
    NoMajorTermsError,
    NonPositiveQuadraticFormError,
    ParseError,
    VocabrelError,
)
from .infocontent import ICTable
from .model import Corpus, Document, _iter_lines, _open_out, _source_path
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


def _sparse_dot(x: Mapping, y: Mapping) -> float:
    # fixed iteration order (sorted shared keys) so x.y == y.x bitwise and
    # the soft cosine with a diagonal S reproduces this sum exactly
    total = 0.0
    for key in sorted(x.keys() & y.keys()):
        total += x[key] * y[key]
    return total


# Each method scores a pair in two steps: a prepare step does the work that
# depends on one document alone, and a pair step combines two prepared records.


class _SaltonDoc(NamedTuple):
    term_part: Mapping
    qual_part: Mapping
    norm: float


def _salton_prepare(vec: TermVector | QualifiedTermVector) -> _SaltonDoc:
    if isinstance(vec, QualifiedTermVector):
        xt, xq = vec.term_part, vec.qual_part
    else:
        xt, xq = vec, {}
    return _SaltonDoc(xt, xq, math.sqrt(_sparse_dot(xt, xt) + _sparse_dot(xq, xq)))


def _salton_pair(x: _SaltonDoc, y: _SaltonDoc) -> float:
    if x.norm == 0.0 or y.norm == 0.0:
        raise EmptyDocumentError("cosine of a zero vector")
    dot = _sparse_dot(x.term_part, y.term_part) + _sparse_dot(x.qual_part, y.qual_part)
    return dot / (x.norm * y.norm)


def salton_cosine(
    x: TermVector | QualifiedTermVector, y: TermVector | QualifiedTermVector
) -> RelatednessScore:
    """Cosine similarity of two sparse vectors."""
    return RelatednessScore(_salton_pair(_salton_prepare(x), _salton_prepare(y)), "salton")


class _SoftDoc(NamedTuple):
    vec: tuple[tuple[str, ...], tuple[float, ...]]  # (sorted keys, weights in key order)
    qform: float  # x'Sx


def _quadratic_form(x: tuple, y: tuple, matrix: SimMatrix) -> float:
    # x and y are (sorted keys, weights in key order)
    total = 0.0
    for i, xi in zip(*x):
        for j, yj in zip(*y):
            s = matrix.sim(i, j)
            if s != 0.0:
                total += s * xi * yj
    return total


def _soft_prepare(vec: TermVector, matrix: SimMatrix) -> _SoftDoc:
    if not vec:
        raise EmptyDocumentError("soft cosine of an empty vector")
    keys = tuple(sorted(vec))
    x = (keys, tuple(vec[k] for k in keys))
    return _SoftDoc(x, _quadratic_form(x, x, matrix))


def _soft_pair(x: _SoftDoc, y: _SoftDoc, matrix: SimMatrix) -> float:
    # canonical argument order (keys, then weights) keeps the float sum, and
    # hence the result, identical under argument swap
    if y.vec < x.vec:
        x, y = y, x
    if x.qform <= 0.0 or y.qform <= 0.0:
        raise NonPositiveQuadraticFormError(
            f"non-positive quadratic form (x'Sx={x.qform!r}, y'Sy={y.qform!r})"
        )
    return _quadratic_form(x.vec, y.vec, matrix) / (math.sqrt(x.qform) * math.sqrt(y.qform))


def soft_cosine(x: TermVector, y: TermVector, matrix: SimMatrix) -> RelatednessScore:
    """Soft cosine with term-to-term similarities from ``matrix``.

    Takes plain term vectors only; qualifier-augmented vectors have no
    similarity entries for qualifier dimensions.
    """
    if isinstance(x, QualifiedTermVector) or isinstance(y, QualifiedTermVector):
        raise ConfigError("soft cosine is not defined for qualifier-augmented vectors")
    value = _soft_pair(_soft_prepare(x, matrix), _soft_prepare(y, matrix), matrix)
    return RelatednessScore(value, "soft")


class _MtsDoc(NamedTuple):
    terms: list[tuple[str, float]]  # (term, weight)
    weight: float  # sum of the weights


def _mts_prepare(doc: Document, w: float, slim: bool) -> _MtsDoc:
    if w < 1:
        raise ValueError(f"major weight must be >= 1, got {w}")
    if doc.is_empty:
        raise EmptyDocumentError(f"empty document {doc.id!r}")
    annotations = [a for a in doc.annotations if a.is_major] if slim else doc.annotations
    if not annotations:
        raise NoMajorTermsError(f"document {doc.id!r} has no major terms")
    terms = [(a.term, w if a.is_major else 1.0) for a in annotations]
    total = 0.0
    for _, weight in terms:
        total += weight
    return _MtsDoc(terms, total)


def _mts_pair(a: _MtsDoc, b: _MtsDoc, sim: SimFn) -> float:
    """Best-match average; callers pass the smaller document id as ``a``."""
    nums = []
    for x, y in ((a, b), (b, a)):
        num = 0.0
        for t, weight in x.terms:
            num += weight * max(sim(t, u) for u, _ in y.terms)
        nums.append(num)
    return (nums[0] + nums[1]) / (a.weight + b.weight)


def mts(
    doc_a: Document,
    doc_b: Document,
    sim: SimFn,
    w: float = 1.0,
    slim: bool = False,
) -> RelatednessScore:
    """Average of per-term best similarities, major terms weighted by w."""
    if doc_b.id < doc_a.id:
        doc_a, doc_b = doc_b, doc_a
    value = _mts_pair(_mts_prepare(doc_a, w, slim), _mts_prepare(doc_b, w, slim), sim)
    return RelatednessScore(value, "mts")


def matrix_distance_fn(matrix: SimMatrix) -> SimFn:
    """Negated shortest-path distances recovered from a SimMatrix.

    Stored similarity s corresponds to distance -lambda*ln(s).  Pairs beyond
    the matrix horizon (absent entries, including disconnected pairs) count
    as the cutoff distance: -lambda*ln(eps) when eps > 0, otherwise one more
    than the largest materialized distance.
    """
    lam = matrix.lam
    if matrix.eps > 0.0:
        cutoff = -lam * math.log(matrix.eps)
    else:
        longest = max((-lam * math.log(s) for s in matrix.entries.values()), default=0.0)
        cutoff = longest + 1.0

    def neg_distance(a: str, b: str) -> float:
        if a == b:
            return 0.0
        s = matrix.sim(a, b)
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
    _prepared: dict[str, _SaltonDoc | _SoftDoc | _MtsDoc] = field(default_factory=dict, repr=False)
    _sim_fn: SimFn | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        cfg = self.config
        cfg.validate()
        if cfg.uses_ic and self.ic is None:
            raise ConfigError(f"configuration {cfg.tag()!r} needs an IC table")
        if cfg.uses_graph and self.matrix is None:
            raise ConfigError(f"configuration {cfg.tag()!r} needs a similarity matrix")
        if self.matrix is not None:
            if cfg.raw_distance:
                self._sim_fn = matrix_distance_fn(self.matrix)
            else:
                self._sim_fn = self.matrix.sim

    def _prepare(self, doc: Document) -> _SaltonDoc | _SoftDoc | _MtsDoc:
        prepared = self._prepared.get(doc.id)
        if prepared is None:
            cfg = self.config
            if cfg.method == "mts":
                prepared = _mts_prepare(doc, cfg.w, cfg.slim)
            else:
                vec = document_vector(
                    doc, use_ic=cfg.vector == "ic", ic=self.ic, w=cfg.w, qualifiers=cfg.qualifiers
                )
                if cfg.method == "salton":
                    prepared = _salton_prepare(vec)
                else:
                    assert self.matrix is not None
                    prepared = _soft_prepare(vec, self.matrix)
            self._prepared[doc.id] = prepared
        return prepared

    def score(self, doc_a: Document, doc_b: Document) -> float:
        cfg = self.config
        if cfg.method == "salton":
            return _salton_pair(self._prepare(doc_a), self._prepare(doc_b))
        if cfg.method == "soft":
            assert self.matrix is not None
            try:
                return _soft_pair(self._prepare(doc_a), self._prepare(doc_b), self.matrix)
            except NonPositiveQuadraticFormError as exc:
                raise NonPositiveQuadraticFormError(
                    f"documents {doc_a.id!r}, {doc_b.id!r}: {exc}"
                ) from None
        assert self._sim_fn is not None
        if doc_b.id < doc_a.id:
            doc_a, doc_b = doc_b, doc_a
        return _mts_pair(self._prepare(doc_a), self._prepare(doc_b), self._sim_fn)


PairScore = tuple[str, str, float]
PairError = tuple[str, str, str]


def pairwise_scores(
    corpus: Corpus,
    pairs: Iterable[tuple[str, str]],
    scorer: Scorer,
    errors: list[PairError] | None = None,
) -> Iterator[PairScore]:
    """Score pairs one at a time, in input order, as the result is consumed.

    A pair naming an unknown document or failing to score goes to ``errors``
    and is skipped.
    """
    for id_a, id_b in pairs:
        doc_a = corpus.documents.get(id_a)
        doc_b = corpus.documents.get(id_b)
        if doc_a is None or doc_b is None:
            error = f"unknown document {id_a if doc_a is None else id_b!r}"
        else:
            try:
                value = scorer.score(doc_a, doc_b)
            except VocabrelError as exc:
                error = str(exc)
            else:
                yield (id_a, id_b, value)
                continue
        if errors is not None:
            errors.append((id_a, id_b, error))


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
