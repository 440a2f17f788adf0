"""Term frequencies, descendant closure over the hierarchy, and information content.

A term's information content is the negative natural log of the share of the
corpus-wide occurrence mass carried by the term and all of its descendants:
``ic(t) = -ln(aggregate(t) / sum_of_all_aggregates)``.  Rarer (more specific)
terms get higher IC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Mapping

from .errors import CycleError, MissingDataError, ParseError, VocabrelError
from .model import (
    Corpus, TermId, Vocabulary, _header_fields, _iter_lines, _open_out, _source_path, leaves_first,
)


@dataclass(frozen=True)
class FreqTable:
    """Per-term document frequencies; ``total_docs`` is None for file-loaded tables."""

    counts: Mapping[TermId, int]
    total_docs: int | None = None


@dataclass(frozen=True)
class ICTable:
    ic: Mapping[TermId, float]
    aggregate: Mapping[TermId, int]
    denominator: int
    zero_aggregate: frozenset[TermId] = frozenset()


def term_frequencies(corpus: Corpus, vocab: Vocabulary) -> FreqTable:
    """Count, per term, the number of documents annotated with it.

    Each document contributes at most once per term (annotations are merged
    at parse time); vocabulary terms never seen get count 0.
    """
    counts = {t: 0 for t in vocab.terms}
    for doc in corpus.documents.values():
        for tid in doc.term_ids():
            if tid in counts:
                counts[tid] += 1
    return FreqTable(counts=counts, total_docs=len(corpus))


def load_frequencies(
    source: str | Path | IO[str] | Iterable[str], vocab: Vocabulary, strict: bool = True
) -> FreqTable:
    """Read an external ``term_id<TAB>count`` table (e.g. from a larger corpus)."""
    path = _source_path(source)
    counts = {t: 0 for t in vocab.terms}
    listed: set[TermId] = set()
    for lineno, line in enumerate(_iter_lines(source), start=1):
        text = line.rstrip("\n")
        if not text.strip() or text.startswith("#"):
            continue
        parts = text.split("\t")
        if len(parts) != 2:
            raise ParseError("expected 'term_id<TAB>count'", path, lineno)
        tid, raw = parts
        try:
            count = int(raw)
        except ValueError:
            raise ParseError(f"count {raw!r} is not an integer", path, lineno) from None
        if count < 0:
            raise ParseError(f"negative count for term {tid!r}", path, lineno)
        if tid not in counts:
            if strict:
                raise ParseError(f"unknown term {tid!r}", path, lineno)
            continue
        if tid in listed:
            raise ParseError(f"term {tid!r} listed twice", path, lineno)
        listed.add(tid)
        counts[tid] = count
    return FreqTable(counts=counts, total_docs=None)


def descendant_closure(vocab: Vocabulary) -> dict[TermId, frozenset[TermId]]:
    """All terms reachable from each term via child edges, the term itself excluded.

    Exact on DAGs with multiple parents: a term appears at most once in each
    closure set.  Raises CycleError naming one cycle on cyclic vocabularies.
    """
    order, cycle = leaves_first(vocab)
    if cycle:
        raise CycleError(cycle)
    closure: dict[TermId, frozenset[TermId]] = {}
    for tid in order:
        acc: set[TermId] = set()
        for child in vocab.children_of(tid):
            acc.add(child)
            acc.update(closure[child])
        closure[tid] = frozenset(acc)
    return closure


def information_content(
    freq: FreqTable, closure: Mapping[TermId, frozenset[TermId]], vocab: Vocabulary
) -> ICTable:
    """Information content per term from aggregated own-plus-descendant counts.

    Terms whose aggregate is zero receive the maximum finite value
    ``-ln(1/denominator)`` instead of infinity and are flagged in
    ``zero_aggregate``.
    """
    counts = freq.counts
    aggregate: dict[TermId, int] = {}
    for tid in vocab.terms:
        if tid not in closure:
            raise MissingDataError(f"closure lacks term {tid!r}")
        total = counts.get(tid, 0)
        for d in closure[tid]:
            total += counts.get(d, 0)
        aggregate[tid] = total
    denominator = sum(aggregate.values())
    if denominator == 0:
        raise VocabrelError("no term occurrences: cannot compute information content")
    ic = {tid: _ic_value(agg, denominator) for tid, agg in aggregate.items()}
    zero = frozenset(tid for tid, agg in aggregate.items() if agg == 0)
    return ICTable(ic=ic, aggregate=aggregate, denominator=denominator, zero_aggregate=zero)


def _ic_value(aggregate: int, denominator: int) -> float:
    # a zero aggregate counts as one occurrence: the maximum finite IC
    return -math.log(max(aggregate, 1) / denominator)


def save_ic_table(table: ICTable, dest: str | Path | IO[str]) -> None:
    with _open_out(dest) as fh:
        fh.write(f"#ictable n={len(table.ic)} denominator={table.denominator}\n")
        for tid in sorted(table.ic):
            fh.write(f"{tid}\t{table.aggregate[tid]}\t{table.ic[tid]:.17g}\n")


def load_ic_table(source: str | Path | IO[str] | Iterable[str]) -> ICTable:
    path = _source_path(source)
    lines = _iter_lines(source)
    try:
        header = next(lines)
    except StopIteration:
        raise ParseError("empty IC table file", path) from None
    if not header.startswith("#ictable"):
        raise ParseError("missing '#ictable' header", path, 1)
    fields = _header_fields(header, path)
    ic: dict[TermId, float] = {}
    aggregate: dict[TermId, int] = {}
    for lineno, line in enumerate(lines, start=2):
        text = line.rstrip("\n")
        if not text:
            continue
        parts = text.split("\t")
        if len(parts) != 3:
            raise ParseError("expected 'term<TAB>aggregate<TAB>ic'", path, lineno)
        tid, agg_raw, ic_raw = parts
        try:
            aggregate[tid] = int(agg_raw)
            ic[tid] = float(ic_raw)
        except ValueError:
            raise ParseError(f"bad aggregate {agg_raw!r} or IC {ic_raw!r}", path, lineno) from None
    denominator = sum(aggregate.values())
    try:  # both fields are required, so that a table cut inside its header fails to load
        declared_n = int(fields["n"])
        declared = int(fields["denominator"])
    except (KeyError, ValueError) as exc:
        raise ParseError(f"bad header field: {exc}", path, 1) from None
    if declared_n != len(ic):
        raise ParseError(f"header declares {declared_n} terms, file holds {len(ic)}", path)
    if declared != denominator:
        raise ParseError(
            f"declared denominator {declared} != sum of aggregates {denominator}", path
        )
    for tid, value in ic.items():  # also catches a file cut inside its last number
        if value != _ic_value(aggregate[tid], denominator):
            raise ParseError(f"IC {value!r} of {tid!r} does not match its aggregate", path)
    zero = frozenset(t for t, a in aggregate.items() if a == 0)
    return ICTable(ic=ic, aggregate=aggregate, denominator=denominator, zero_aggregate=zero)


__all__ = [
    "FreqTable",
    "ICTable",
    "term_frequencies",
    "load_frequencies",
    "descendant_closure",
    "information_content",
    "save_ic_table",
    "load_ic_table",
]
