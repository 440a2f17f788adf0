"""Term graphs, shortest-path distances, and the sparse term-similarity matrix.

Two graphs over the vocabulary: the unweighted graph (every parent-child pair
is an edge of weight 1) and the IC-difference graph (same edges, weight
``|ic(a) - ic(b)|``).  Distance between terms is the shortest-path cost, and
similarity is ``exp(-dist/lam)``; unreachable pairs have distance ``inf`` and
similarity 0.

Materializing all-pairs similarity over a 30k-term vocabulary is infeasible
(~9e8 entries), so SimMatrix stores only entries above a cutoff ``eps``.
Searches prune their frontier with the same ``exp(-d/lam) > eps`` predicate
used for storage: cost is nondecreasing along the search, so no qualifying
entry is lost and the pruned result equals the unpruned one.

``SimMatrix.arrays`` holds a store's entries as arrays, the form scoring
reads; ``save``/``load`` keep that form as ``.npz`` for the cache, checked
against the entry count and SHA-256 in their header; ``export`` writes the
sorted TSV form that the ``simmatrix`` command gives.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain, count
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import MissingDataError, ParseError
from .infocontent import ICTable
from .model import TermId, Vocabulary, _open_out, _source_path

UNREACHABLE = math.inf


@dataclass(frozen=True)
class TermGraph:
    """Undirected term graph; ``adj`` maps each node to (neighbor, weight) pairs."""

    kind: str  # "g1" (unit weights) or "dic" (IC-difference weights)
    adj: Mapping[TermId, tuple[tuple[TermId, float], ...]]

    def __len__(self) -> int:
        return len(self.adj)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj.values()) // 2


def _adjacency(vocab: Vocabulary, weight_fn: Callable[[TermId, TermId], float]):
    adj: dict[TermId, list[tuple[TermId, float]]] = {t: [] for t in vocab.terms}
    for tid in vocab.terms:
        for parent in vocab.parents_of(tid):
            w = weight_fn(tid, parent)
            adj[tid].append((parent, w))
            adj[parent].append((tid, w))
    return {t: tuple(sorted(nbrs)) for t, nbrs in adj.items()}


def build_unweighted_graph(vocab: Vocabulary) -> TermGraph:
    """One edge of weight 1 per distinct parent-child pair."""
    return TermGraph(kind="g1", adj=_adjacency(vocab, lambda a, b: 1.0))


def build_ic_weighted_graph(vocab: Vocabulary, ic: ICTable) -> TermGraph:
    """Same edge set, weighted by absolute IC difference (zero weights are legal)."""
    table = ic.ic
    missing = [t for t in vocab.terms if t not in table]
    if missing:
        raise MissingDataError(f"no IC value for term {missing[0]!r}")
    return TermGraph(kind="dic", adj=_adjacency(vocab, lambda a, b: abs(table[a] - table[b])))


def single_source_distances(
    graph: TermGraph,
    source: TermId,
    keep: Callable[[float], bool] | None = None,
) -> dict[TermId, float]:
    """Exact shortest-path costs from ``source`` to every node satisfying ``keep``.

    ``keep`` must be antitone in cost (once false it stays false for larger
    costs); the search frontier is pruned at the first failing node.  BFS is
    used for the unit-weight g1 graph, Dijkstra otherwise.
    """
    if source not in graph.adj:
        raise KeyError(f"unknown term {source!r}")
    if graph.kind == "g1":
        return _bfs(graph, source, keep)
    return _dijkstra(graph, source, keep)


def _bfs(graph, source, keep):
    dist: dict[TermId, float] = {}
    frontier = [source]
    level = 0
    while frontier:
        if keep is not None and not keep(float(level)):
            break
        nxt = []
        for node in frontier:
            if node in dist:
                continue
            dist[node] = float(level)
            for nbr, _w in graph.adj[node]:
                if nbr not in dist:
                    nxt.append(nbr)
        frontier = nxt
        level += 1
    return dist


def _dijkstra(graph, source, keep):
    dist: dict[TermId, float] = {}
    heap: list[tuple[float, TermId]] = [(0.0, source)]
    while heap:
        d, node = heappop(heap)
        if node in dist:
            continue
        if keep is not None and not keep(d):
            break  # costs pop in nondecreasing order; nothing later can pass
        dist[node] = d
        for nbr, w in graph.adj[node]:
            if nbr not in dist:
                heappush(heap, (d + w, nbr))
    return dist


class StoreArrays(NamedTuple):
    """A store's entries as arrays: entry k joins ``terms[a[k]]`` and ``terms[b[k]]``."""

    terms: Sequence[TermId]  # the distinct ids of the entries' ends, sorted
    a: np.ndarray  # positions in ``terms``: int32, a < b, in a SimMatrix's arrays
    b: np.ndarray
    sim: np.ndarray  # float64 similarities


@dataclass(frozen=True)
class SimMatrix:
    """Sparse symmetric term-similarity matrix with an implicit unit diagonal.

    ``entries`` maps a term pair ``(a, b)`` with ``a < b`` to its similarity,
    and is held as given, not copied.  Off-diagonal entries are stored only
    when strictly above the cutoff ``eps``; everything else reads as 0.
    ``inputs`` is the digest of the inputs the store was built from, as a
    cache records it; empty when unknown.
    """

    kind: str  # the graph: "g1" or "dic"
    lam: float
    eps: float
    n: int  # terms in the graph
    entries: Mapping[tuple[TermId, TermId], float] = field(repr=False)
    inputs: str = field(default="", compare=False)

    def sim(self, a: TermId, b: TermId) -> float:
        if a == b:
            return 1.0
        key = (a, b) if a < b else (b, a)
        return self.entries.get(key, 0.0)

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def arrays(self) -> StoreArrays:
        """The entries as arrays, derived once; a loaded store has the arrays it read."""
        index = defaultdict(count().__next__)  # numbers each term id when first seen
        n_entries = len(self.entries)
        flat = chain.from_iterable(self.entries)  # a1, b1, a2, b2, ...
        ends = np.fromiter(map(index.__getitem__, flat), np.int32, 2 * n_entries)
        ids = list(index)
        order = sorted(range(len(ids)), key=ids.__getitem__)
        rank = np.empty(len(ids), np.int32)
        rank[order] = np.arange(len(ids), dtype=np.int32)  # first-seen number -> sorted position
        return StoreArrays([ids[k] for k in order], rank[ends[0::2]], rank[ends[1::2]],
                           np.fromiter(self.entries.values(), np.float64, n_entries))

    def save(self, dest: str | Path | IO[bytes]) -> None:
        """Write the ``.npz`` cache form: the arrays, and a header with their count and digest."""
        terms, a, b, sims = self.arrays
        if any(t.endswith("\0") for t in terms):
            raise ValueError("a term id ending in NUL cannot be stored")  # numpy strips it
        arrays = {"terms": np.array(terms, dtype=str), "a": a, "b": b, "sim": sims}
        header = {"graph": self.kind, "lambda": self.lam, "eps": self.eps, "n": self.n,
                  "entries": len(sims), "sha256": _arrays_sha256(arrays), "inputs": self.inputs}
        with _open_out(dest, binary=True) as fh:
            np.savez(fh, header=np.array(json.dumps(header, sort_keys=True)), **arrays)

    @classmethod
    def load(cls, source: str | Path | IO[bytes]) -> "SimMatrix":
        """Read the ``.npz`` cache form; a file that is cut, edited or incomplete raises ParseError."""
        path = _source_path(source)
        try:
            with np.load(source, allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in _STORE_ARRAYS}
                fields = json.loads(str(npz["header"]))
        except (OSError, KeyError, ValueError, EOFError, RuntimeError, zipfile.BadZipFile) as exc:
            raise ParseError(f"unreadable store: {exc}", path) from exc
        try:
            kind, lam, eps = str(fields["graph"]), float(fields["lambda"]), float(fields["eps"])
            n, declared, digest = int(fields["n"]), int(fields["entries"]), fields["sha256"]
            inputs = str(fields.get("inputs", ""))  # a store written without it fits no request
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad header field: {exc}", path) from exc
        for name, dtype in _STORE_ARRAYS.items():
            array = arrays[name]
            if array.dtype.kind != dtype or array.ndim != 1 or (name != "terms" and len(array) != declared):
                raise ParseError(f"array {name!r} is not {declared} entries of kind {dtype!r}", path)
        if digest != _arrays_sha256(arrays):
            raise ParseError("arrays do not match the header's sha256", path)
        a, b, sims = arrays["a"], arrays["b"], arrays["sim"]
        if declared and not (a.min() >= 0 and (a < b).all() and b.max() < len(arrays["terms"])):
            raise ParseError("end indices out of range or out of order", path)
        ids = arrays["terms"].astype(object)
        keys = zip(ids[a].tolist(), ids[b].tolist())
        matrix = cls(kind=kind, lam=lam, eps=eps, n=n, entries=dict(zip(keys, sims.tolist())),
                     inputs=inputs)
        vars(matrix)["arrays"] = StoreArrays(ids.tolist(), a, b, sims)  # arrays' cached value
        return matrix

    def export(self, dest: str | Path | IO[str]) -> None:
        """Write the TSV form, as ``simmatrix --out`` gives it: one sorted line per entry."""
        keys = sorted(self.entries)
        with _open_out(dest) as fh:
            fh.write(
                f"#simmatrix graph={self.kind} lambda={self.lam:.17g} entries={len(keys)} "
                f"eps={self.eps:.17g} n={self.n}\n"
            )
            for start in range(0, len(keys), 4096):  # written a block of lines at a time
                block = keys[start : start + 4096]
                fh.write("".join(f"{a}\t{b}\t{self.entries[a, b]:.17g}\n" for a, b in block))


# the store's arrays and the numpy kind of each: str ids, int end indices, float similarities
_STORE_ARRAYS = {"terms": "U", "a": "i", "b": "i", "sim": "f"}


def _arrays_sha256(arrays: Mapping[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in _STORE_ARRAYS:
        array = arrays[name]
        digest.update(f"{name} {array.dtype.str} {array.shape}\n".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


# names the rule by which similarity_matrix picks an entry between two sources; a cache folds
# it into the inputs digest a store records, so a store built under an earlier rule is rebuilt
ENTRY_RULE = "entry-rule: an entry between two sources comes from the larger id's search"


def similarity_matrix(
    graph: TermGraph,
    lam: float,
    eps: float = 1e-4,
    restrict: Iterable[TermId] | None = None,
) -> SimMatrix:
    """Materialize similarities ``exp(-dist/lam) > eps`` as a SimMatrix.

    With ``restrict`` given, only those terms (typically the terms occurring
    in the corpus) are search sources: a stored entry has at least one of them
    as an end, and each of their rows is complete, its other ends ranging over
    the whole graph.  An entry between two sources holds what the search from
    the larger id finds: the two directions' path sums can differ in the last
    bit, and taking one of them always keeps the pruned store equal to the
    unpruned one above eps.
    """
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    if not 0 <= eps < 1:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    if restrict is None:
        sources = sorted(graph.adj)
    else:
        sources = sorted(set(restrict))
        unknown = [t for t in sources if t not in graph.adj]
        if unknown:
            raise KeyError(f"unknown term {unknown[0]!r}")
    keep = (lambda d: math.exp(-d / lam) > eps) if eps > 0 else None
    source_set = set(sources)
    entries: dict[tuple[TermId, TermId], float] = {}
    for src in sources:
        for node, d in single_source_distances(graph, src, keep=keep).items():
            if node == src or (node > src and node in source_set):  # node's own search writes it
                continue
            s = math.exp(-d / lam)
            if s > eps:
                key = (src, node) if src < node else (node, src)
                entries[key] = s
    return SimMatrix(kind=graph.kind, lam=lam, eps=eps, n=len(graph.adj), entries=entries)


def save_graph(graph: TermGraph, dest: str | Path | IO[str]) -> None:
    with _open_out(dest) as fh:
        fh.write(f"#termgraph kind={graph.kind} n={len(graph.adj)}\n")
        for node in sorted(graph.adj):
            fh.write(f"n\t{node}\n")
        seen = set()
        for node in sorted(graph.adj):
            for nbr, w in graph.adj[node]:
                key = (node, nbr) if node < nbr else (nbr, node)
                if key in seen:
                    continue
                seen.add(key)
                fh.write(f"e\t{key[0]}\t{key[1]}\t{w:.17g}\n")


__all__ = [
    "UNREACHABLE",
    "TermGraph",
    "SimMatrix",
    "StoreArrays",
    "build_unweighted_graph",
    "build_ic_weighted_graph",
    "single_source_distances",
    "similarity_matrix",
    "save_graph",
]
