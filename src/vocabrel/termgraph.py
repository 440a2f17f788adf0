"""Term graphs, shortest-path distances, and the sparse term-similarity matrix.

Two graphs over the vocabulary: the unweighted graph (every parent-child pair
is an edge of weight 1) and the IC-difference graph (same edges, weight
``|ic(a) - ic(b)|``).  Distance between terms is the shortest-path cost, and
similarity is ``exp(-dist/lam)``; unreachable pairs have distance ``inf`` and
similarity 0.

Materializing all-pairs similarity over a 30k-term vocabulary is infeasible
(~9e8 entries), so SimMatrix stores only entries above a cutoff ``eps``.
``similarity_matrix`` searches from a batch of sources at a time over the
graph's CSR arrays, in numpy: one frontier relaxation, a BFS on unit
weights, pruned at the horizon ``-lam*ln(eps)``.  Cost is nondecreasing
along a path, so no entry above eps is lost and the pruned store equals the
unpruned one.  Each distance becomes ``math.exp(-d/lam)``, one entry at a
time, and goes straight into the store's arrays.

A SimMatrix is its ``arrays``; the map keyed by term pairs is derived only
when read.  ``SimMatrix.block`` grows from the arrays the dense similarities
among the terms scored so far, one block per store; ``save``/``load`` keep
the arrays as ``.npz`` for the cache, checked against the entry count and
SHA-256 in their header; ``export`` writes the sorted TSV form that the
``simmatrix`` command gives.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import zipfile
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice
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


class StoreArrays(NamedTuple):
    """A store's entries as arrays: entry k joins ``terms[a[k]]`` and ``terms[b[k]]``."""

    terms: Sequence[TermId]  # sorted: a built store's are the graph's, a hand-built one's its ends
    a: np.ndarray  # positions in ``terms``: int32, a < b, in a SimMatrix's arrays
    b: np.ndarray
    sim: np.ndarray  # float64 similarities


class _Block:
    """Dense values of a symmetric similarity among the terms added so far, indexed from 1.

    An entry of the store, mirrored, holds its ``sim`` or ``value(sim)``; a
    term with itself holds ``self_value`` unless an entry joins the two, and
    any other pair ``absent``, the least value.  Index 0 and the spare rows
    that let batches add terms without a copy hold it too: padding is absent.
    """

    def __init__(self, store: StoreArrays, absent: float, self_value: float,
                 value: Callable[[float], float] | None = None):
        self.store, self.absent, self.self_value, self.value = store, absent, self_value, value
        self.index: dict[TermId, int] = {}
        self.array = np.full((1, 1), absent)
        self._where = {t: k for k, t in enumerate(store.terms)}  # position in the store of each id
        self._at = np.zeros(len(store.terms), np.int32)  # block index of each store id, 0 if none

    def add(self, terms: Iterable[TermId]) -> None:
        """Index each new term, its row and column scattered from the store's entries."""
        old = len(self.index)
        for t in terms:
            self.index.setdefault(t, len(self.index) + 1)
        new = len(self.index)
        if new == old:
            return
        if new >= len(self.array):  # out of spare rows: grow by a quarter, or to fit
            grow = max(new + 1, len(self.array) * 5 // 4) - len(self.array)
            self.array = np.pad(self.array, (0, grow), constant_values=self.absent)
        fresh = np.arange(old + 1, new + 1)
        self.array[fresh, fresh] = self.self_value
        placed = [(self._where[t], k) for t, k in islice(self.index.items(), old, None) if t in self._where]
        if not placed:  # no new term has an entry
            return
        self._at[[p for p, _ in placed]] = [k for _, k in placed]
        ia, ib = self._at[self.store.a], self._at[self.store.b]
        hit = np.flatnonzero((np.minimum(ia, ib) > 0) & (np.maximum(ia, ib) > old))  # one end new
        ia, ib, sims = ia[hit], ib[hit], self.store.sim[hit]
        if self.value is not None:
            sims = np.fromiter(map(self.value, sims.tolist()), float, len(sims))
        self.array[ia, ib] = self.array[ib, ia] = sims


@dataclass(frozen=True, init=False, eq=False)
class SimMatrix:
    """Sparse symmetric term-similarity matrix with an implicit unit diagonal.

    The store is its ``arrays``; off-diagonal entries are stored only when
    strictly above the cutoff ``eps``, and everything else reads as 0.  A
    store is built from its arrays, or by hand from ``entries``, a map from
    a term pair ``(a, b)`` with ``a < b`` to its similarity, held as given.
    ``entries`` is derived from the arrays only when something reads it:
    itself, ``sim`` or equality; ``dataclasses.replace`` passes the arrays
    on.  ``inputs`` is the digest of the inputs the store was built from, as
    a cache records it; empty when unknown.
    """

    kind: str  # the graph: "g1" or "dic"
    lam: float
    eps: float
    n: int  # terms in the graph
    arrays: StoreArrays = field(repr=False)
    inputs: str = ""

    def __init__(self, kind: str, lam: float, eps: float, n: int,
                 entries: Mapping[tuple[TermId, TermId], float] | None = None,
                 inputs: str = "", arrays: StoreArrays | None = None):
        if (entries is None) == (arrays is None):
            raise TypeError("a SimMatrix takes either entries or arrays")
        if arrays is None:
            vars(self)["entries"] = entries  # the cached value of ``entries``
            arrays = _entry_arrays(entries)
        # past the frozen __setattr__, as cached_property writes
        vars(self).update(kind=kind, lam=lam, eps=eps, n=n, arrays=arrays, inputs=inputs)

    @cached_property
    def entries(self) -> Mapping[tuple[TermId, TermId], float]:
        """The entries keyed by term pair, derived from the arrays when first read."""
        terms, a, b, sims = self.arrays
        keys = zip(map(terms.__getitem__, a.tolist()), map(terms.__getitem__, b.tolist()))
        return dict(zip(keys, sims.tolist()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SimMatrix):
            return NotImplemented
        return ((self.kind, self.lam, self.eps, self.n) == (other.kind, other.lam, other.eps, other.n)
                and self.entries == other.entries)

    def sim(self, a: TermId, b: TermId) -> float:
        if a == b:
            return 1.0
        key = (a, b) if a < b else (b, a)
        return self.entries.get(key, 0.0)

    def __len__(self) -> int:
        return len(self.arrays.sim)

    @cached_property
    def block(self) -> _Block:
        """The similarities among the terms scored so far, grown on demand; every soft and mts scorer reads it."""
        return _Block(self.arrays, 0.0, 1.0)

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
        for name, dtype in _STORE_ARRAYS.items():
            array = arrays[name]
            if array.dtype.kind != dtype or array.ndim != 1 or (name != "terms" and len(array) != declared):
                raise ParseError(f"array {name!r} is not {declared} entries of kind {dtype!r}", path)
        if digest != _arrays_sha256(arrays):
            raise ParseError("arrays do not match the header's sha256", path)
        terms, a, b, sims = arrays["terms"], arrays["a"], arrays["b"], arrays["sim"]
        if not (terms[1:] > terms[:-1]).all():  # export's order and the block's lookups rely on it
            raise ParseError("term ids are not strictly increasing", path)
        if declared and not (a.min() >= 0 and (a < b).all() and b.max() < len(terms)):
            raise ParseError("end indices out of range or out of order", path)
        return cls(kind=kind, lam=lam, eps=eps, n=n, inputs=inputs,
                   arrays=StoreArrays(terms.tolist(), a, b, sims))

    def export(self, dest: str | Path | IO[str]) -> None:
        """Write the TSV form, as ``simmatrix --out`` gives it: one line per entry, sorted by ids."""
        terms, a, b, sims = self.arrays
        order = np.lexsort((b, a))  # terms are sorted: (a, b) order is the ids' order
        with _open_out(dest) as fh:
            fh.write(
                f"#simmatrix graph={self.kind} lambda={self.lam:.17g} entries={len(sims)} "
                f"eps={self.eps:.17g} n={self.n}\n"
            )
            for start in range(0, len(order), 4096):  # written a block of lines at a time
                at = order[start : start + 4096]
                fh.write("".join(f"{terms[i]}\t{terms[j]}\t{s:.17g}\n"
                                 for i, j, s in zip(a[at].tolist(), b[at].tolist(), sims[at].tolist())))


def _entry_arrays(entries: Mapping[tuple[TermId, TermId], float]) -> StoreArrays:
    """A hand-built store's entries as arrays, in their order."""
    terms = sorted(set(chain.from_iterable(entries)))
    position = {t: k for k, t in enumerate(terms)}
    ends = np.fromiter(map(position.__getitem__, chain.from_iterable(entries)), np.int32, 2 * len(entries))
    return StoreArrays(terms, ends[0::2], ends[1::2], np.fromiter(entries.values(), np.float64, len(entries)))


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
    """Materialize similarities ``exp(-dist/lam) > eps`` as a SimMatrix of arrays.

    The sources are searched a batch at a time, as many as keep the batch's
    dense blocks under ``_BATCH_BYTES``; each distance becomes
    ``math.exp(-d/lam)``, the bits a scalar search gives, and each batch's
    entries go straight into the store's arrays.

    With ``restrict`` given, only those terms (typically the terms occurring
    in the corpus) are search sources: a stored entry has at least one of them
    as an end, and each of their rows is complete, its other ends ranging over
    the whole graph.  An entry between two sources holds what the search from
    the larger id finds: the two directions' path sums can differ in the last
    bit, and taking one of them always keeps the pruned store equal to the
    unpruned one above eps.
    """
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be finite and positive, got {lam}")
    if not 0 <= eps < 1:
        raise ValueError(f"eps must lie in [0, 1), got {eps}")
    csr = graph.csr
    if restrict is None:
        sources = np.arange(len(csr.terms))
    else:
        wanted = sorted(set(restrict))
        unknown = [t for t in wanted if t not in csr.position]
        if unknown:
            raise KeyError(f"unknown term {unknown[0]!r}")
        sources = np.array([csr.position[t] for t in wanted], np.int64)
    n = len(csr.terms)
    is_source = np.zeros(n, bool)
    is_source[sources] = True
    # a little past -lam*ln(eps), so that no cost the exact math.exp test below keeps is pruned
    horizon = -lam * math.log(eps) * (1 + 1e-9) if eps > 0 else math.inf
    batch = max(1, _BATCH_BYTES // (16 * max(n, 1)))
    parts = [(np.zeros(0, np.int32), np.zeros(0, np.int32), np.zeros(0))]  # an empty store's arrays
    for start in range(0, len(sources), batch):
        src = sources[start : start + batch]
        dist = _distances(csr, src, horizon)
        # a row's own term, and another source of larger id, whose search gives that entry
        dist[is_source & (np.arange(n) >= src[:, None])] = math.inf
        rows, cols = np.nonzero(dist < math.inf)
        sims = np.fromiter(map(math.exp, (-dist[rows, cols] / lam).tolist()), np.float64, len(rows))
        kept = sims > eps
        one, other = src[rows[kept]], cols[kept]
        parts.append((np.minimum(one, other).astype(np.int32), np.maximum(one, other).astype(np.int32),
                      sims[kept]))
    a, b, sims = (np.concatenate(part) for part in zip(*parts))
    return SimMatrix(kind=graph.kind, lam=lam, eps=eps, n=n, arrays=StoreArrays(csr.terms, a, b, sims))


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
