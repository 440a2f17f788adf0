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
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from pathlib import Path
from typing import IO, Callable, Iterable, Mapping

from .errors import MissingDataError, ParseError
from .infocontent import ICTable
from .model import TermId, Vocabulary, _file_sha256, _header_fields, _iter_lines, _open_out, _source_path

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


class SimMatrix:
    """Sparse symmetric term-similarity matrix with an implicit unit diagonal.

    Off-diagonal entries are stored only when strictly above the cutoff
    ``eps``; everything else reads as 0.
    """

    def __init__(
        self,
        kind: str,
        lam: float,
        eps: float,
        n: int,
        entries: Mapping[tuple[TermId, TermId], float],
    ):
        self.kind = kind
        self.lam = lam
        self.eps = eps
        self.n = n
        self._entries = dict(entries)

    def sim(self, a: TermId, b: TermId) -> float:
        if a == b:
            return 1.0
        key = (a, b) if a < b else (b, a)
        return self._entries.get(key, 0.0)

    @property
    def entries(self) -> Mapping[tuple[TermId, TermId], float]:
        return self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimMatrix):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.lam == other.lam
            and self.eps == other.eps
            and self.n == other.n
            and self._entries == other._entries
        )

    def save(self, dest: str | Path | IO[str]) -> None:
        """Write the TSV form; the header carries the entry count and body digest.

        The integrity fields come before the required ``eps`` field, so a file
        cut anywhere, even inside its header, fails ``load`` instead of
        reading as fewer entries.
        """
        items = sorted(self._entries.items())
        digest = hashlib.sha256()
        chunks = []  # joined 4096 lines at a time: a list of every line would triple the memory
        for start in range(0, len(items), 4096):
            chunk = "".join(f"{a}\t{b}\t{s:.17g}\n" for (a, b), s in items[start : start + 4096])
            digest.update(chunk.encode())
            chunks.append(chunk)
        with _open_out(dest) as fh:
            fh.write(
                f"#simmatrix graph={self.kind} lambda={self.lam:.17g} entries={len(items)} "
                f"sha256={digest.hexdigest()} eps={self.eps:.17g} n={self.n}\n"
            )
            fh.writelines(chunks)

    @classmethod
    def load(cls, source: str | Path | IO[str] | Iterable[str]) -> "SimMatrix":
        """Read the TSV form; the header's ``entries`` and ``sha256`` are required and checked."""
        path = _source_path(source)
        lines = _iter_lines(source)
        try:
            header = next(lines)
        except StopIteration:
            raise ParseError("empty similarity-matrix file", path) from None
        if not header.startswith("#simmatrix"):
            raise ParseError("missing '#simmatrix' header", path, 1)
        fields = _header_fields(header, path)
        try:
            kind = fields["graph"]
            lam = float(fields["lambda"])
            eps = float(fields["eps"])
            n = int(fields.get("n", 0))
            declared = int(fields["entries"])
            digest = fields["sha256"]
        except (KeyError, ValueError) as exc:
            raise ParseError(f"bad header field: {exc}", path, 1) from exc
        if path is None:
            lines = list(lines)
            actual = hashlib.sha256("".join(lines).encode()).hexdigest()
        else:
            actual = _file_sha256(path, skip_header=True)
        if actual != digest:
            raise ParseError("content does not match the header's sha256", path)
        entries: dict[tuple[TermId, TermId], float] = {}
        for lineno, line in enumerate(lines, start=2):
            text = line.rstrip("\n")
            if not text:
                continue
            parts = text.split("\t")
            if len(parts) != 3:
                raise ParseError("expected 'term_i<TAB>term_j<TAB>sim'", path, lineno)
            a, b, raw = parts
            if not a < b:
                raise ParseError(f"pair {a!r},{b!r} not in sorted order", path, lineno)
            try:
                entries[(a, b)] = float(raw)
            except ValueError:
                raise ParseError(f"similarity {raw!r} is not a number", path, lineno) from None
        if declared != len(entries):
            raise ParseError(f"header declares {declared} entries, file holds {len(entries)}", path)
        return cls(kind=kind, lam=lam, eps=eps, n=n, entries=entries)


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
    the whole graph.  The result is identical for any source order.
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
    entries: dict[tuple[TermId, TermId], float] = {}
    for src in sources:
        for node, d in single_source_distances(graph, src, keep=keep).items():
            if node == src:
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
    "build_unweighted_graph",
    "build_ic_weighted_graph",
    "single_source_distances",
    "similarity_matrix",
    "save_graph",
]
