"""Sparse vector representations of documents.

Three representations: the binary indicator vector, the IC-weighted vector
(minor term -> ic(t), major term -> ic(t) * w), and the qualifier-augmented
vector that adds one indicator dimension per (term, qualifier) pair present
in the document.  Vectors are sparse maps; entries exist exactly for the
document's annotated terms (an entry can be 0.0 in the degenerate case of a
term whose IC is 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import EmptyDocumentError, MissingDataError
from .infocontent import ICTable
from .model import Document, QualifierId, TermId

TermVector = dict[TermId, float]


@dataclass(frozen=True)
class QualifiedTermVector:
    """Term weights plus indicator entries for (term, qualifier) pairs."""

    term_part: Mapping[TermId, float]
    qual_part: Mapping[tuple[TermId, QualifierId], float]


def binary_vector(doc: Document) -> TermVector:
    """Indicator vector: weight 1 on each annotated term, major status ignored."""
    return document_vector(doc)


def ic_weighted_vector(doc: Document, ic: ICTable, w: float) -> TermVector:
    """IC weights with major terms scaled by ``w`` (>= 1)."""
    return document_vector(doc, use_ic=True, ic=ic, w=w)


def qualified_vector(doc: Document, ic: ICTable, w: float) -> QualifiedTermVector:
    """IC-weighted term part plus an indicator per (term, qualifier) pair."""
    return document_vector(doc, use_ic=True, ic=ic, w=w, qualifiers=True)


def document_vector(
    doc: Document,
    use_ic: bool = False,
    ic: ICTable | None = None,
    w: float = 1.0,
    qualifiers: bool = False,
) -> TermVector | QualifiedTermVector:
    """Build the representation selected by the method configuration.

    Each term weighs its IC (``use_ic=True``, which needs an ICTable) or 1,
    times ``w`` (>= 1) on major terms; ``use_ic=False`` with w == 1 is the
    plain binary vector.  ``qualifiers=True`` returns a QualifiedTermVector that
    adds an indicator per (term, qualifier) pair, which major status does not scale.
    """
    if use_ic and ic is None:
        raise MissingDataError("IC-weighted vectors need an ICTable")
    if doc.is_empty:
        raise EmptyDocumentError(f"empty document {doc.id!r}")
    if w < 1:
        raise ValueError(f"major weight must be >= 1, got {w}")
    term_part: TermVector = {}
    for a in doc.annotations:
        if not use_ic:
            weight = 1.0
        elif a.term in ic.ic:
            weight = ic.ic[a.term]
        else:
            raise MissingDataError(f"no IC value for term {a.term!r} (document {doc.id!r})")
        term_part[a.term] = weight * w if a.is_major else weight
    if qualifiers:
        qual_part = {(a.term, q): 1.0 for a in doc.annotations for q in a.qualifiers}
        return QualifiedTermVector(term_part=term_part, qual_part=qual_part)
    return term_part


__all__ = [
    "TermVector",
    "QualifiedTermVector",
    "binary_vector",
    "ic_weighted_vector",
    "qualified_vector",
    "document_vector",
]
