"""Term graphs, shortest-path distances, and the dense term-similarity store.

Two graphs over the vocabulary: the unweighted graph (every parent-child pair
is an edge of weight 1) and the IC-difference graph (same edges, weight
``|ic(a) - ic(b)|``).  Distance between terms is the shortest-path cost, and
similarity is ``exp(-dist/lam)``; unreachable pairs have distance ``inf`` and
similarity 0.

Scoring reads only the similarities among the terms documents carry, so a
SimMatrix is one dense block of the similarities above a cutoff ``eps``
among its terms (the corpus's terms on every CLI path).  ``similarity_matrix``
searches from a batch of those terms at a time over the graph's CSR arrays,
in numpy: one frontier relaxation, a BFS on unit weights, pruned at the
horizon ``-lam*ln(eps)``.  Cost is nondecreasing along a path, so no
similarity above eps is lost and the pruned store equals the unpruned one.
Each batch keeps its columns of the store's terms; each distance there
becomes ``math.exp(-d/lam)``, one cell at a time, straight into the block.

``SimMatrix.save``/``load`` keep the block as ``.npz`` for the cache,
checked against the entry count and SHA-256 in its header.
``export_similarities`` writes the sources' complete rows over the whole
graph, from the same searches, as the ``simmatrix`` command's sorted TSV.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import zipfile
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

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

    @cached_property
    def csr(self) -> _CSR:
        """The adjacency as int32 CSR arrays over the sorted ids, built once."""
        terms = sorted(self.adj)
        position = {t: k for k, t in enumerate(terms)}
        edges = [edge for t in terms for edge in self.adj[t]]
        indptr = np.zeros(len(terms) + 1, np.int64)
        np.cumsum([len(self.adj[t]) for t in terms], out=indptr[1:])
        return _CSR(terms, position, indptr,
                    np.fromiter((position[v] for v, _ in edges), np.int32, len(edges)),
                    np.fromiter((w for _, w in edges), np.float64, len(edges)))


class _CSR(NamedTuple):
    """A graph's adjacency: node k is ``terms[k]``, its edges ``indptr[k]`` to ``indptr[k + 1]``."""

    terms: list[TermId]  # sorted
    position: dict[TermId, int]
    indptr: np.ndarray
    indices: np.ndarray  # int32 neighbours
    weights: np.ndarray  # float64


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

    A batch of one through the search ``similarity_matrix`` runs, without a
    horizon; ``keep`` must be antitone in cost (once false it stays false for
    larger costs), as it filters what the search reaches.
    """
    csr = graph.csr
    if source not in csr.position:
        raise KeyError(f"unknown term {source!r}")
    row = _distances(csr, np.array([csr.position[source]]), math.inf)[0]
    reached = np.flatnonzero(row < math.inf)
    return {csr.terms[k]: d for k, d in zip(reached.tolist(), row[reached].tolist())
            if keep is None or keep(d)}


# a batch of sources holds two dense blocks over the graph, distances and owners, 16 bytes a
# cell; the batch is as many sources as keep them under this many bytes
_BATCH_BYTES = 1 << 26


def _distances(csr: _CSR, sources: np.ndarray, horizon: float) -> np.ndarray:
    """Shortest-path costs from each of ``sources`` (rows) to every node (columns); inf if none.

    A frontier label-correcting relaxation: each round relaxes the edges out
    of the labels the last round lowered, and a label is lowered only to a
    cost at most ``horizon``.  On unit weights the frontier is one BFS level.
    With nonnegative weights ``fl(x + w)`` is monotone in x and never below
    x, so each node ends at ``min over u of fl(d(u) + w(u, v))``, the floats
    a Dijkstra search settles; a node within the horizon is reached through
    nodes no farther, so pruning loses none of them.
    """
    n = len(csr.terms)
    dist = np.full((len(sources), n), math.inf)
    flat = dist.reshape(-1)  # a view: a label's flat position is row * n + node
    owner = np.empty(len(flat), np.intp)  # which of a round's lowered labels stands for its position
    frontier = np.arange(len(sources)) * n + sources
    flat[frontier] = 0.0
    degree = np.diff(csr.indptr)
    while len(frontier):
        node = frontier % n
        counts = degree[node]
        ends = np.cumsum(counts)
        edge = np.repeat(csr.indptr[node] - (ends - counts), counts) + np.arange(ends[-1])
        target = np.repeat(frontier - node, counts) + csr.indices[edge]
        cost = np.repeat(flat[frontier], counts) + csr.weights[edge]
        lower = (cost < flat[target]) & (cost <= horizon)
        target, cost = target[lower], cost[lower]
        np.minimum.at(flat, target, cost)  # the least of a round's costs to one node
        at = np.arange(len(target))
        owner[target] = at  # one of the round's labels at each position wins
        frontier = target[owner[target] == at]
    return dist


@dataclass(frozen=True, init=False, eq=False)
class SimMatrix:
    """Symmetric term similarities: one dense float64 block over the store's sorted ``terms``.

    ``block`` is (k+1)² for k terms: cell ``[i+1, j+1]`` holds the stored
    similarity of ``terms[i]`` and ``terms[j]``, strictly above the cutoff
    ``eps``, or 0.0; the diagonal holds 1.0, and row and column 0, the
    padding, hold 0.0: padding is an absent term.  A term outside ``terms``
    is similar only to itself.  A store built by hand from ``entries``, a
    map from a term pair ``(a, b)`` with ``a < b`` to its similarity, has
    their ends as its terms; ``entries`` is derived from the block's upper
    triangle when read.  ``inputs`` is the digest of the inputs the store
    was built from, as a cache records it; empty when unknown.
    """

    kind: str  # the graph: "g1" or "dic"
    lam: float
    eps: float
    n: int  # terms in the graph
    terms: Sequence[TermId] = field(repr=False)
    block: np.ndarray = field(repr=False)
    inputs: str = ""

    def __init__(self, kind: str, lam: float, eps: float, n: int, terms: Sequence[TermId] = (),
                 block: np.ndarray | None = None, inputs: str = "",
                 entries: Mapping[tuple[TermId, TermId], float] | None = None):
        if (entries is None) == (block is None):
            raise TypeError("a SimMatrix takes either entries or its terms and block")
        if entries is not None:
            terms, block = _entry_block(entries)
        # past the frozen __setattr__, as cached_property writes
        vars(self).update(kind=kind, lam=lam, eps=eps, n=n, terms=terms, block=block, inputs=inputs)

    @cached_property
    def index(self) -> dict[TermId, int]:
        """Each term's row and column in ``block``."""
        return {t: k for k, t in enumerate(self.terms, 1)}

    def stored(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The stored entries: their rows ``i`` and columns ``j > i`` in ``block``, and similarities."""
        i, j = np.nonzero(np.triu(self.block, 1))
        return i, j, self.block[i, j]

    @cached_property
    def entries(self) -> Mapping[tuple[TermId, TermId], float]:
        """The entries keyed by term pair, derived from the block when first read."""
        i, j, sims = self.stored()
        terms = self.terms
        return {(terms[a - 1], terms[b - 1]): s for a, b, s in zip(i.tolist(), j.tolist(), sims.tolist())}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimMatrix):
            return NotImplemented
        return ((self.kind, self.lam, self.eps, self.n) == (other.kind, other.lam, other.eps, other.n)
                and self.entries == other.entries)

    def sim(self, a: TermId, b: TermId) -> float:
        return 1.0 if a == b else float(self.block[self.index.get(a, 0), self.index.get(b, 0)])

    def __len__(self) -> int:
        # every cell but the padding and the diagonal's 1.0 is one of a mirrored pair
        return (int(np.count_nonzero(self.block)) - len(self.terms)) // 2

    def save(self, dest: str | Path | IO[bytes]) -> None:
        """Write the ``.npz`` cache form: the terms, the block, and a header with their entry count and digest."""
        if any(t.endswith("\0") for t in self.terms):
            raise ValueError("a term id ending in NUL cannot be stored")  # numpy strips it
        arrays = {"terms": np.array(self.terms, dtype=str), "block": self.block}
        header = {"graph": self.kind, "lambda": self.lam, "eps": self.eps, "n": self.n,
                  "entries": len(self), "sha256": _arrays_sha256(arrays), "inputs": self.inputs}
        with _open_out(dest, binary=True) as fh:
            np.savez(fh, header=np.array(json.dumps(header, sort_keys=True)), **arrays)

    @classmethod
    def load(cls, source: str | Path | IO[bytes]) -> "SimMatrix":
        """Read the ``.npz`` cache form; a file that is cut, edited or incomplete raises ParseError."""
        path = _source_path(source)
        try:
            with open(source, "rb") if path else contextlib.nullcontext(source) as fh, \
                    np.load(fh, allow_pickle=False) as npz:  # np.load leaves a bad zip it opens open
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
        for name, (dtype, ndim) in _STORE_ARRAYS.items():
            if arrays[name].dtype.kind != dtype or arrays[name].ndim != ndim:
                raise ParseError(f"array {name!r} is not {ndim}-dimensional of kind {dtype!r}", path)
        terms, block = arrays["terms"], arrays["block"]
        if block.shape != (len(terms) + 1,) * 2:
            raise ParseError(f"block is not square with side {len(terms) + 1}, one more than the terms", path)
        if digest != _arrays_sha256(arrays):
            raise ParseError("arrays do not match the header's sha256", path)
        if not (terms[1:] > terms[:-1]).all():  # the index and the cache's lookups rely on it
            raise ParseError("term ids are not strictly increasing", path)
        matrix = cls(kind=kind, lam=lam, eps=eps, n=n, terms=terms.tolist(), block=block, inputs=inputs)
        if len(matrix) != declared:
            raise ParseError(f"block holds {len(matrix)} entries, the header says {declared}", path)
        return matrix


def _entry_block(entries: Mapping[tuple[TermId, TermId], float]) -> tuple[list[TermId], np.ndarray]:
    """A hand-built store's terms, the ends of its entries, and its block."""
    terms = sorted(set(chain.from_iterable(entries)))
    index = {t: k for k, t in enumerate(terms, 1)}
    block = np.diag(np.r_[0.0, np.ones(len(terms))])  # no entry yet: padding 0.0, the diagonal 1.0
    i, j = [index[a] for a, _ in entries], [index[b] for _, b in entries]
    block[i, j] = block[j, i] = list(entries.values())
    return terms, block


# the store's arrays, with the numpy kind and the dimensions of each: str ids, float similarities
_STORE_ARRAYS = {"terms": ("U", 1), "block": ("f", 2)}


def _arrays_sha256(arrays: Mapping[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in _STORE_ARRAYS:
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name} {array.dtype.str} {array.shape}\n".encode())
        digest.update(array)  # the bytes, without a copy
    return digest.hexdigest()


# names the rule by which a search picks the similarity between two sources; a cache folds
# it into the inputs digest a store records, so a store built under an earlier rule is rebuilt
ENTRY_RULE = "entry-rule: an entry between two sources comes from the larger id's search"


def _sources(graph: TermGraph, lam: float, eps: float, restrict: Iterable[TermId] | None) -> np.ndarray:
    """The positions in ``graph.csr`` of the search sources, ascending: ``restrict``'s terms, or every term."""
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and positive, got {lam}")
    if not 0 <= eps < 1:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    csr = graph.csr
    if restrict is None:
        return np.arange(len(csr.terms))
    wanted = sorted(set(restrict))
    unknown = [t for t in wanted if t not in csr.position]
    if unknown:
        raise KeyError(f"unknown term {unknown[0]!r}")
    return np.array([csr.position[t] for t in wanted], np.int64)


def _searched(csr: _CSR, sources: np.ndarray, lam: float, eps: float) -> Iterator[tuple[int, np.ndarray]]:
    """Each batch of ``sources`` searched, as many as keep its blocks under ``_BATCH_BYTES``: its start and distances.

    Row r holds the distances from ``sources[start + r]`` to every node, inf
    where the search stopped, at the source itself, and at every source of
    larger id, whose own search gives that pair (``ENTRY_RULE``).
    """
    n = len(csr.terms)
    is_source = np.zeros(n, bool)
    is_source[sources] = True
    # a little past -lam*ln(eps), so that no cost the exact math.exp test of _kept keeps is pruned
    horizon = -lam * math.log(eps) * (1 + 1e-9) if eps > 0 else math.inf
    batch = max(1, _BATCH_BYTES // (16 * max(n, 1)))
    for start in range(0, len(sources), batch):
        src = sources[start : start + batch]
        dist = _distances(csr, src, horizon)
        dist[is_source & (np.arange(n) >= src[:, None])] = math.inf
        yield start, dist


def _kept(dist: np.ndarray, lam: float, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows, columns and similarities ``math.exp(-d/lam)`` (a scalar search's bits) of cells above eps."""
    rows, cols = np.nonzero(dist < math.inf)
    sims = np.fromiter(map(math.exp, (-dist[rows, cols] / lam).tolist()), np.float64, len(rows))
    kept = sims > eps
    return rows[kept], cols[kept], sims[kept]


def similarity_matrix(
    graph: TermGraph,
    lam: float,
    eps: float = 1e-4,
    restrict: Iterable[TermId] | None = None,
) -> SimMatrix:
    """The similarities ``exp(-dist/lam) > eps`` among the ``restrict`` terms (or all), as a SimMatrix.

    The store's terms are the search sources; each batch of them keeps its
    columns of the store's terms, each cell straight into the block,
    mirrored.  A similarity between two sources holds what the search from
    the larger id finds: the two directions' path sums can differ in the
    last bit, and taking one of them keeps the pruned store equal to the
    unpruned one above eps.
    """
    csr, sources = graph.csr, _sources(graph, lam, eps, restrict)
    block = np.diag(np.r_[0.0, np.ones(len(sources))])  # no entry yet: padding 0.0, the diagonal 1.0
    for start, dist in _searched(csr, sources, lam, eps):
        rows, cols, sims = _kept(dist[:, sources], lam, eps)
        rows, cols = rows + (start + 1), cols + 1
        block[rows, cols] = block[cols, rows] = sims
    return SimMatrix(kind=graph.kind, lam=lam, eps=eps, n=len(csr.terms),
                     terms=[csr.terms[k] for k in sources.tolist()], block=block)


def export_similarities(
    graph: TermGraph,
    dest: str | Path | IO[str],
    lam: float,
    eps: float = 1e-4,
    restrict: Iterable[TermId] | None = None,
) -> int:
    """Write the TSV form ``simmatrix --out`` gives, and return its count of entries.

    One line per similarity ``exp(-dist/lam) > eps`` with an end among the
    ``restrict`` terms (or any), sorted by ids: their complete rows over the
    whole graph, from the searches ``similarity_matrix`` runs.
    """
    csr, sources = graph.csr, _sources(graph, lam, eps, restrict)
    parts = [(np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0))]  # no entry at all
    for start, dist in _searched(csr, sources, lam, eps):
        rows, cols, sims = _kept(dist, lam, eps)
        one = sources[start + rows]
        parts.append((np.minimum(one, cols).astype(np.int32), np.maximum(one, cols).astype(np.int32), sims))
    a, b, sims = (np.concatenate(part) for part in zip(*parts))
    order, terms = np.lexsort((b, a)), csr.terms  # positions in the sorted ids: (a, b) order is the ids' order
    with _open_out(dest) as fh:
        fh.write(f"#simmatrix graph={graph.kind} lambda={lam:.17g} entries={len(sims)} "
                 f"eps={eps:.17g} n={len(terms)}\n")
        for start in range(0, len(order), 4096):  # written a block of lines at a time
            at = order[start : start + 4096]
            fh.write("".join(f"{terms[i]}\t{terms[j]}\t{s:.17g}\n"
                             for i, j, s in zip(a[at].tolist(), b[at].tolist(), sims[at].tolist())))
    return len(sims)


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
    "export_similarities",
    "save_graph",
]
