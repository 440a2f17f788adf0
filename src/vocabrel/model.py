"""Domain model for controlled vocabularies and annotated corpora.

File formats are line-delimited JSON records (UTF-8), one record per line:

* vocabulary file: ``{"id": ..., "label": ..., "parents": [...]}`` for terms,
  ``{"id": ..., "label": ..., "kind": "qualifier"}`` for qualifier inventory
  entries.  A record holding a ``"header"`` key and no ``"id"`` carries run
  metadata and is skipped by the parser.
* corpus file: ``{"id": ..., "terms": [{"term": ..., "major": bool,
  "qualifiers": [...]}, ...]}``.

Unknown record keys are ignored; comments are not permitted.  Vocabulary and
Corpus are immutable after construction and safe for concurrent readers.
Cycles in the parent relation are representable (so that :func:`validate` can
report them) but are rejected by downstream consumers.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

from .errors import ParseError

TermId = str
QualifierId = str


@dataclass(frozen=True)
class Term:
    id: TermId
    label: str
    parents: frozenset[TermId]


@dataclass(frozen=True)
class Annotation:
    """One term assigned to a document, with major/minor status and qualifiers."""

    term: TermId
    is_major: bool
    qualifiers: frozenset[QualifierId] = frozenset()


@dataclass(frozen=True)
class Document:
    id: str
    annotations: tuple[Annotation, ...]

    @property
    def is_empty(self) -> bool:
        return not self.annotations

    def term_ids(self) -> tuple[TermId, ...]:
        return tuple(a.term for a in self.annotations)

    def major_term_ids(self) -> tuple[TermId, ...]:
        return tuple(a.term for a in self.annotations if a.is_major)


class Vocabulary:
    """Terms with parent links (a DAG when valid) plus a qualifier inventory."""

    def __init__(self, terms: Mapping[TermId, Term], qualifiers: Iterable[QualifierId] = ()):
        if not terms:
            raise ValueError("a vocabulary must contain at least one term")
        for tid, term in terms.items():
            if not tid:
                raise ValueError("empty term id")
            if tid != term.id:
                raise ValueError(f"term keyed as {tid!r} carries id {term.id!r}")
            if tid in term.parents:
                raise ValueError(f"term {tid!r} lists itself as parent")
            for p in term.parents:
                if p not in terms:
                    raise ParseError(f"term {tid!r} references unknown parent {p!r}")
        self._terms: dict[TermId, Term] = dict(terms)
        self._qualifiers = frozenset(qualifiers)
        self._children: dict[TermId, tuple[TermId, ...]] | None = None
        self._order: tuple[list[TermId], list[TermId]] | None = None  # see leaves_first

    @property
    def terms(self) -> Mapping[TermId, Term]:
        return self._terms

    @property
    def qualifiers(self) -> frozenset[QualifierId]:
        return self._qualifiers

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term_id: object) -> bool:
        return term_id in self._terms

    def parents_of(self, term_id: TermId) -> frozenset[TermId]:
        return self._terms[term_id].parents

    def children_of(self, term_id: TermId) -> tuple[TermId, ...]:
        if self._children is None:
            children: dict[TermId, list[TermId]] = {t: [] for t in self._terms}
            for term in self._terms.values():
                for p in term.parents:
                    children[p].append(term.id)
            self._children = {t: tuple(sorted(c)) for t, c in children.items()}
        return self._children[term_id]

    def edge_count(self) -> int:
        return sum(len(t.parents) for t in self._terms.values())


@dataclass(frozen=True)
class Corpus:
    documents: Mapping[str, Document]

    def __len__(self) -> int:
        return len(self.documents)

    def empty_document_ids(self) -> list[str]:
        return sorted(d.id for d in self.documents.values() if d.is_empty)

    def term_ids(self) -> set[TermId]:
        """All terms annotated anywhere in the corpus."""
        out: set[TermId] = set()
        for doc in self.documents.values():
            out.update(doc.term_ids())
        return out


@dataclass
class ValidationReport:
    n_terms: int
    n_edges: int
    n_qualifiers: int
    cycles: list[list[TermId]] = field(default_factory=list)  # at most one, see leaves_first

    @property
    def ok(self) -> bool:
        return not self.cycles


def _iter_lines(source: str | Path | IO[str] | Iterable[str]) -> Iterator[str]:
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            try:
                yield from fh
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8 text ({exc.reason})", str(source)) from exc
    else:
        yield from source


def _source_path(source) -> str | None:
    return str(source) if isinstance(source, (str, Path)) else None


@contextlib.contextmanager
def _open_out(dest: str | Path | IO, binary: bool = False):
    if isinstance(dest, (str, Path)):
        with open(dest, "wb") if binary else open(dest, "w", encoding="utf-8") as fh:
            yield fh
    else:
        yield dest


def _file_sha256(path: str | Path) -> str:
    """SHA-256 of a file's bytes, read in blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _header_fields(header: str, path: str | None) -> dict[str, str]:
    """The ``key=value`` fields that follow the ``#kind`` word of a header line."""
    fields: dict[str, str] = {}
    for part in header.split()[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ParseError(f"header field {part!r} is not key=value", path, 1)
        fields[key] = value
    return fields


def _record(line: str, path: str | None, lineno: int) -> dict | None:
    text = line.strip()
    if not text:
        return None
    try:
        rec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON record ({exc.msg})", path, lineno) from exc
    if not isinstance(rec, dict):
        raise ParseError("record is not a JSON object", path, lineno)
    return rec


def parse_vocabulary(source: str | Path | IO[str] | Iterable[str]) -> Vocabulary:
    """Load a vocabulary from its canonical line-delimited format.

    Raises ParseError on malformed records, duplicate ids, or dangling
    parent references (each reported with the offending line number).
    """
    path = _source_path(source)
    terms: dict[TermId, Term] = {}
    qualifiers: set[QualifierId] = set()
    for lineno, line in enumerate(_iter_lines(source), start=1):
        rec = _record(line, path, lineno)
        if rec is None:
            continue
        if "id" not in rec:
            if "header" in rec:
                continue
            raise ParseError("record lacks an 'id'", path, lineno)
        rid = rec["id"]
        if not isinstance(rid, str) or not rid:
            raise ParseError("record 'id' must be a non-empty string", path, lineno)
        if rec.get("kind") == "qualifier":
            if rid in qualifiers:
                raise ParseError(f"duplicate qualifier id {rid!r}", path, lineno)
            qualifiers.add(rid)
            continue
        if rid in terms:
            raise ParseError(f"duplicate term id {rid!r}", path, lineno)
        parents = rec.get("parents", [])
        if not isinstance(parents, list) or not all(isinstance(p, str) for p in parents):
            raise ParseError("'parents' must be a list of strings", path, lineno)
        if rid in parents:
            raise ParseError(f"term {rid!r} lists itself as parent", path, lineno)
        terms[rid] = Term(id=rid, label=str(rec.get("label", "")), parents=frozenset(parents))
    for term in terms.values():
        for p in term.parents:
            if p not in terms:
                raise ParseError(f"term {term.id!r} references unknown parent {p!r}", path)
    if not terms:
        raise ParseError("vocabulary file contains no terms", path)
    return Vocabulary(terms, qualifiers)


def serialize_vocabulary(
    vocab: Vocabulary, dest: str | Path | IO[str], header: dict | None = None
) -> None:
    """Write the canonical vocabulary format; inverse of parse_vocabulary."""
    with _open_out(dest) as fh:
        if header is not None:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
        for tid in sorted(vocab.terms):
            term = vocab.terms[tid]
            rec = {"id": term.id, "label": term.label, "parents": sorted(term.parents)}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        for qid in sorted(vocab.qualifiers):
            fh.write(json.dumps({"id": qid, "label": "", "kind": "qualifier"}, sort_keys=True) + "\n")


def _merge_annotations(raw: list[Annotation]) -> tuple[Annotation, ...]:
    # one annotation per term: major flags OR-ed, qualifier sets unioned
    merged: dict[TermId, tuple[bool, set[QualifierId]]] = {}
    for ann in raw:
        if ann.term in merged:
            major, quals = merged[ann.term]
            merged[ann.term] = (major or ann.is_major, quals | set(ann.qualifiers))
        else:
            merged[ann.term] = (ann.is_major, set(ann.qualifiers))
    return tuple(
        Annotation(term=t, is_major=m, qualifiers=frozenset(q))
        for t, (m, q) in sorted(merged.items())
    )


def parse_corpus(
    source: str | Path | IO[str] | Iterable[str],
    vocab: Vocabulary,
    strict: bool = True,
    stats: dict | None = None,
) -> Corpus:
    """Load a corpus from its canonical format against an existing vocabulary.

    In strict mode unknown term or qualifier ids raise ParseError naming the
    document and the id; in lenient mode they are counted and skipped.  The
    optional ``stats`` dict receives ``skipped_terms``, ``skipped_qualifiers``
    and ``empty_documents`` counts.  Duplicate (document, term) records merge;
    duplicate document records merge their annotation lists.
    """
    path = _source_path(source)
    skipped_terms = 0
    skipped_quals = 0
    pending: dict[str, list[Annotation]] = {}
    for lineno, line in enumerate(_iter_lines(source), start=1):
        rec = _record(line, path, lineno)
        if rec is None:
            continue
        if "id" not in rec:
            if "header" in rec:
                continue
            raise ParseError("record lacks an 'id'", path, lineno)
        doc_id = rec["id"]
        if not isinstance(doc_id, str) or not doc_id:
            raise ParseError("record 'id' must be a non-empty string", path, lineno)
        entries = rec.get("terms", [])
        if not isinstance(entries, list):
            raise ParseError("'terms' must be a list", path, lineno)
        annotations = pending.setdefault(doc_id, [])
        for entry in entries:
            if not isinstance(entry, dict) or not isinstance(entry.get("term"), str):
                raise ParseError(f"document {doc_id!r}: term entry lacks a string 'term'", path, lineno)
            tid, major = entry["term"], entry.get("major", False)
            if not isinstance(major, bool):
                raise ParseError(f"document {doc_id!r}: 'major' must be true or false", path, lineno)
            if tid not in vocab:
                if strict:
                    raise ParseError(
                        f"document {doc_id!r} references unknown term {tid!r}", path, lineno
                    )
                skipped_terms += 1
                continue
            quals = entry.get("qualifiers", [])
            if not isinstance(quals, list) or not all(isinstance(q, str) for q in quals):
                raise ParseError(f"document {doc_id!r}: 'qualifiers' must list strings", path, lineno)
            kept_quals = []
            for q in quals:
                if q not in vocab.qualifiers:
                    if strict:
                        raise ParseError(
                            f"document {doc_id!r} references unknown qualifier {q!r}", path, lineno
                        )
                    skipped_quals += 1
                    continue
                kept_quals.append(q)
            annotations.append(Annotation(term=tid, is_major=major, qualifiers=frozenset(kept_quals)))
    documents = {
        doc_id: Document(id=doc_id, annotations=_merge_annotations(raw))
        for doc_id, raw in pending.items()
    }
    corpus = Corpus(documents=documents)
    if stats is not None:
        stats["skipped_terms"] = skipped_terms
        stats["skipped_qualifiers"] = skipped_quals
        stats["empty_documents"] = corpus.empty_document_ids()
    return corpus


def serialize_corpus(
    corpus: Corpus, dest: str | Path | IO[str], header: dict | None = None
) -> None:
    with _open_out(dest) as fh:
        if header is not None:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
        for doc_id in sorted(corpus.documents):
            doc = corpus.documents[doc_id]
            rec = {
                "id": doc.id,
                "terms": [
                    {"term": a.term, "major": a.is_major, "qualifiers": sorted(a.qualifiers)}
                    for a in doc.annotations
                ],
            }
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def leaves_first(vocab: Vocabulary) -> tuple[list[TermId], list[TermId]]:
    """Every term after all of its children, and one parent cycle (empty if none).

    Kahn's algorithm over child counts, run once per vocabulary (which is
    immutable): later calls return the same lists, which must not be modified.
    When the parent relation is cyclic some terms are left unordered, each
    with an unordered child; the cycle is found by walking from the smallest
    of them to its smallest unordered child until a term repeats.  Each term
    of the cycle is a parent of the next.
    """
    if vocab._order is None:
        vocab._order = _kahn(vocab)
    return vocab._order


def _kahn(vocab: Vocabulary) -> tuple[list[TermId], list[TermId]]:
    remaining = {t: len(vocab.children_of(t)) for t in vocab.terms}
    ready = sorted(t for t, n in remaining.items() if n == 0)
    order: list[TermId] = []
    while ready:
        tid = ready.pop()
        order.append(tid)
        for parent in vocab.parents_of(tid):
            remaining[parent] -= 1
            if remaining[parent] == 0:
                ready.append(parent)
    if len(order) == len(vocab):
        return order, []
    walk: dict[TermId, int] = {}
    tid = min(t for t, n in remaining.items() if n)
    while tid not in walk:
        walk[tid] = len(walk)
        tid = next(c for c in vocab.children_of(tid) if remaining[c])
    return order, list(walk)[walk[tid] :]


def validate(vocab: Vocabulary) -> ValidationReport:
    """Structural report: counts and, if the parent relation is cyclic, one cycle.

    Report-only; a vocabulary whose report lists a cycle is rejected by
    ``descendant_closure`` and by every command.
    """
    _, cycle = leaves_first(vocab)
    return ValidationReport(
        n_terms=len(vocab),
        n_edges=vocab.edge_count(),
        n_qualifiers=len(vocab.qualifiers),
        cycles=[list(cycle)] if cycle else [],
    )


def read_pairs(source: str | Path | IO[str] | Iterable[str]) -> list[tuple[str, str]]:
    """Read a document-pair list: one ``doc_a<TAB>doc_b`` per line, '#' comments skipped."""
    path = _source_path(source)
    pairs = []
    for lineno, line in enumerate(_iter_lines(source), start=1):
        text = line.rstrip("\n")
        if not text.strip() or text.startswith("#"):
            continue
        parts = text.split("\t")
        if len(parts) != 2:
            raise ParseError("expected 'doc_a<TAB>doc_b'", path, lineno)
        pairs.append((parts[0], parts[1]))
    return pairs


__all__ = [
    "TermId",
    "QualifierId",
    "Term",
    "Annotation",
    "Document",
    "Vocabulary",
    "Corpus",
    "ValidationReport",
    "parse_vocabulary",
    "serialize_vocabulary",
    "parse_corpus",
    "serialize_corpus",
    "leaves_first",
    "validate",
    "read_pairs",
]
