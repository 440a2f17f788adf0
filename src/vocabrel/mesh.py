"""Converter from the ASCII MeSH exchange format to the vocabulary format.

Input files are sequences of records introduced by a ``*NEWRECORD`` line and
composed of ``KEY = value`` fields (a key can repeat).  Descriptor records
carry a unique identifier (UI), a heading (MH), and zero or more tree
numbers (MN); qualifier records carry UI and a subheading (SH).

The tree numbers encode the hierarchy: a descriptor's parents are the owners
of the tree numbers obtained by chopping the last dot-separated component
off each of its own tree numbers.  A top-level tree number (no dot)
contributes no parent.  Distinct tree numbers can resolve to the same
parent, and a descriptor sitting at several places in one subtree can
resolve to itself; self-parents are dropped.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .model import Term, Vocabulary, serialize_vocabulary, _iter_lines, _source_path

RECORD_MARK = "*NEWRECORD"
_FIELD_RE = re.compile(r"^([A-Z][A-Z0-9_]*) = (.*)$")


def parse_mesh_records(source) -> list[dict[str, list[str]]]:
    """Split an ASCII MeSH file into records of key -> values."""
    path = _source_path(source)
    records: list[dict[str, list[str]]] = []
    current: dict[str, list[str]] | None = None
    for lineno, raw in enumerate(_iter_lines(source), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith(RECORD_MARK):
            current = {}
            records.append(current)
            continue
        match = _FIELD_RE.match(line)
        if match is None:
            raise ParseError(f"not a KEY = value field: {line!r}", path=path, line=lineno)
        if current is None:
            raise ParseError("field before first *NEWRECORD", path=path, line=lineno)
        current.setdefault(match.group(1), []).append(match.group(2))
    return records


def _single(record: dict[str, list[str]], key: str, what: str, path: str | None) -> str:
    values = record.get(key, [])
    if len(values) != 1 or not values[0]:
        raise ParseError(f"{what} record needs exactly one {key} field, got {values!r}", path)
    return values[0]


def convert_mesh(
    descriptor_source,
    dest,
    qualifier_source=None,
) -> dict[str, int]:
    """Convert descriptor (and optional qualifier) files to vocabulary JSONL.

    Returns counts: terms, edges, qualifiers.
    """
    records = parse_mesh_records(descriptor_source)
    path = _source_path(descriptor_source)
    tree_owner: dict[str, str] = {}
    headings: dict[str, str] = {}
    trees: dict[str, list[str]] = {}
    for record in records:
        ui = _single(record, "UI", "descriptor", path)
        mh = _single(record, "MH", "descriptor", path)
        if ui in headings:
            raise ParseError(f"duplicate descriptor UI {ui!r}", path)
        headings[ui] = mh
        trees[ui] = record.get("MN", [])
        for tn in trees[ui]:
            if tn in tree_owner:
                raise ParseError(
                    f"tree number {tn!r} owned by both {tree_owner[tn]!r} and {ui!r}", path
                )
            tree_owner[tn] = ui

    terms: dict[str, Term] = {}
    n_edges = 0
    for ui in headings:
        parents: set[str] = set()
        for tn in trees[ui]:
            if "." not in tn:
                continue
            prefix = tn.rsplit(".", 1)[0]
            owner = tree_owner.get(prefix)
            if owner is None:
                raise ParseError(
                    f"tree number {tn!r} of {ui!r} has no parent record for {prefix!r}", path
                )
            if owner != ui:
                parents.add(owner)
        terms[ui] = Term(id=ui, label=headings[ui], parents=frozenset(parents))
        n_edges += len(parents)

    qualifiers: dict[str, str] = {}
    if qualifier_source is not None:
        qpath = _source_path(qualifier_source)
        for record in parse_mesh_records(qualifier_source):
            ui = _single(record, "UI", "qualifier", qpath)
            sh = _single(record, "SH", "qualifier", qpath)
            if ui in qualifiers or ui in headings:
                raise ParseError(f"duplicate qualifier UI {ui!r}", qpath)
            qualifiers[ui] = sh

    vocab = Vocabulary(terms=terms, qualifiers=qualifiers) if terms else None
    header = {
        "source": "mesh-ascii",
        "terms": len(headings),
        "edges": n_edges,
        "qualifiers": len(qualifiers),
    }
    if vocab is not None:
        serialize_vocabulary(vocab, dest, header=header)
    else:
        # no descriptors: emit the header line only
        from .model import _open_out
        import json

        with _open_out(dest) as fh:
            fh.write(json.dumps({"header": header}, sort_keys=True) + "\n")
    return {"terms": len(headings), "edges": n_edges, "qualifiers": len(qualifiers)}


__all__ = ["parse_mesh_records", "convert_mesh"]
