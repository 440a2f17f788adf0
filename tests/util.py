"""Small builders shared across test modules."""

from __future__ import annotations

import io
import json

import numpy as np

from vocabrel.infocontent import FreqTable, descendant_closure, information_content
from vocabrel.model import Annotation, Corpus, Document, Term, Vocabulary


def make_vocab(parents: dict, qualifiers=()) -> Vocabulary:
    terms = {t: Term(id=t, label=t, parents=frozenset(ps)) for t, ps in parents.items()}
    return Vocabulary(terms=terms, qualifiers=qualifiers)


def make_doc(doc_id: str, terms, majors=(), qualifiers=None) -> Document:
    majors = set(majors)
    qualifiers = qualifiers or {}
    annotations = tuple(
        Annotation(term=t, is_major=t in majors, qualifiers=frozenset(qualifiers.get(t, ())))
        for t in terms
    )
    return Document(id=doc_id, annotations=annotations)


def make_corpus(*docs: Document) -> Corpus:
    return Corpus(documents={d.id: d for d in docs})


def ic_for(vocab: Vocabulary, counts: dict):
    freq = FreqTable(counts={t: counts.get(t, 0) for t in vocab.terms}, total_docs=None)
    return information_content(freq, descendant_closure(vocab), vocab)


def dict_sim(table: dict):
    """SimFn over a symmetric pair table; identical terms -> 1, absent -> 0."""

    def sim(a: str, b: str) -> float:
        if a == b:
            return 1.0
        return table.get((a, b), table.get((b, a), 0.0))

    return sim


def rewrite_store(data: bytes, edit) -> bytes:
    """An ``.npz`` store with ``edit(header, arrays)`` applied to its decoded members."""
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        header = json.loads(str(npz["header"]))
        arrays = {name: npz[name] for name in npz.files if name != "header"}
    edit(header, arrays)
    buf = io.BytesIO()
    np.savez(buf, header=np.array(json.dumps(header)), **arrays)
    return buf.getvalue()


def score_doc_pairs(scorer, pairs) -> list:
    """Each document pair's score, or its exception, from one ``Scorer.score_pairs`` batch."""
    docs = list({id(d): d for pair in pairs for d in pair}.values())
    at = {id(d): k for k, d in enumerate(docs)}
    values, errors = scorer.score_pairs(docs, [at[id(a)] for a, _ in pairs], [at[id(b)] for _, b in pairs])
    return [errors.get(k, value) for k, value in enumerate(values.tolist())]
