"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: quadratic double loops, Floyd-Warshall
over dense maps, brute-force graph reachability.  None of it shares code with
vocabrel internals, so agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import heapq
import math
import random

INF = math.inf


def naive_cliffs_delta(xs, ys) -> float:
    """Double loop over all cross pairs; integer tally, one final division."""
    total = 0
    for x in xs:
        for y in ys:
            if x > y:
                total += 1
            elif x < y:
                total -= 1
    return total / (len(xs) * len(ys))


def floyd_warshall(nodes, adj) -> dict:
    """All-pairs shortest paths over an undirected weighted adjacency map."""
    dist = {a: {b: INF for b in nodes} for a in nodes}
    for a in nodes:
        dist[a][a] = 0.0
    for a, nbrs in adj.items():
        for b, w in nbrs.items():
            if w < dist[a][b]:
                dist[a][b] = w
                dist[b][a] = w
    for k in nodes:
        for i in nodes:
            dik = dist[i][k]
            if dik == INF:
                continue
            for j in nodes:
                alt = dik + dist[k][j]
                if alt < dist[i][j]:
                    dist[i][j] = alt
    return dist


def brute_force_descendants(parents: dict) -> dict:
    """Descendant sets from a parent map, checked one candidate at a time.

    d is a descendant of t iff t is reachable from d by repeatedly following
    parent links; each candidate gets its own upward walk.
    """

    def ancestors(node: str) -> set:
        seen: set = set()
        stack = list(parents[node])
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(parents[cur])
        return seen

    return {t: {d for d in parents if d != t and t in ancestors(d)} for t in parents}


def direct_ic(counts: dict, descendants: dict) -> tuple[dict, dict, int]:
    """(ic, aggregate, denominator) evaluated straight from the definition."""
    aggregate = {
        t: counts.get(t, 0) + sum(counts.get(d, 0) for d in descendants[t])
        for t in descendants
    }
    denominator = sum(aggregate.values())
    ic = {}
    for t, agg in aggregate.items():
        p = (agg if agg > 0 else 1) / denominator
        ic[t] = -math.log(p)
    return ic, aggregate, denominator


def naive_mts(terms_a, terms_b, sim, w: float = 1.0) -> float:
    """Weighted mean of per-term best matches, written as four plain loops.

    ``terms_a``/``terms_b`` are sequences of (term_id, is_major) pairs.
    """
    num = 0.0
    den = 0.0
    for t, major in terms_a:
        best = -INF
        for u, _ in terms_b:
            value = sim(t, u)
            if value > best:
                best = value
        weight = w if major else 1.0
        num += weight * best
        den += weight
    for u, major in terms_b:
        best = -INF
        for t, _ in terms_a:
            value = sim(u, t)
            if value > best:
                best = value
        weight = w if major else 1.0
        num += weight * best
        den += weight
    return num / den


def naive_soft_cosine(x: dict, y: dict, sim) -> float:
    """x'Sy / sqrt(x'Sx y'Sy), each form a plain sum over every pair of entries."""

    def form(u: dict, v: dict) -> float:
        return sum(a * sim(i, j) * b for i, a in u.items() for j, b in v.items())

    return form(x, y) / math.sqrt(form(x, x) * form(y, y))


def sorted_dot(x: dict, y: dict) -> float:
    """Sum of x[k] * y[k] over the shared keys, added one by one in sorted key order from 0.0."""
    total = 0.0
    for key in sorted(x.keys() & y.keys()):
        total += x[key] * y[key]
    return total


def scalar_salton(x: tuple[dict, dict], y: tuple[dict, dict]) -> float:
    """Salton's cosine of two (term part, qualifier part) vectors, as a scalar loop adds it up.

    Each part's dot product runs over its shared keys in sorted order, and the
    qualifier part's is added after the term part's.  A zero vector raises
    ZeroDivisionError.
    """

    def dot(u, v):
        return sorted_dot(u[0], v[0]) + sorted_dot(u[1], v[1])

    return dot(x, y) / (math.sqrt(dot(x, x)) * math.sqrt(dot(y, y)))


def naive_classification(topics: dict, draw, score, iterations: int) -> tuple[int, int, int, int]:
    """(tp, fp, tn, fn) of the max-similarity rule, asking ``score`` for every comparison.

    ``topics`` maps a topic to {doc: is_relevant}; ``draw(topic, iteration)``
    gives that iteration's (relevant seeds, not-relevant seeds).  A document
    is predicted relevant only when its best relevant seed beats its best
    not-relevant seed.
    """
    tp = fp = tn = fn = 0
    for topic in sorted(topics):
        for iteration in range(iterations):
            seeds_rel, seeds_not = draw(topic, iteration)
            for doc, actual in sorted(topics[topic].items()):
                if doc in seeds_rel or doc in seeds_not:
                    continue
                best_rel = max(score(doc, s) for s in seeds_rel)
                best_not = max(score(doc, s) for s in seeds_not)
                predicted = best_rel > best_not
                tp += predicted and actual
                fp += predicted and not actual
                tn += not predicted and not actual
                fn += not predicted and actual
    return tp, fp, tn, fn


def naive_cosine(x: dict, y: dict) -> float:
    dot = sum(v * y[k] for k, v in x.items() if k in y)
    nx = math.sqrt(sum(v * v for v in x.values()))
    ny = math.sqrt(sum(v * v for v in y.values()))
    return dot / (nx * ny)


# weights drawn from negative powers of two stay exact under addition of a
# few terms, which lets graph-distance comparisons use a 1e-12 tolerance
# without worrying about summation order
EXACT_WEIGHTS = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0]


def random_dag_parents(rng: random.Random, max_nodes: int) -> dict:
    """Random parent map over node ids n0..nk; edges only point to earlier
    nodes, so the result is acyclic by construction."""
    n = rng.randint(2, max_nodes)
    nodes = [f"n{i}" for i in range(n)]
    parents: dict = {nodes[0]: set()}
    for i in range(1, n):
        k = rng.randint(0, min(i, 2))
        parents[nodes[i]] = set(rng.sample(nodes[:i], k))
    return {t: frozenset(ps) for t, ps in parents.items()}


def random_weighted_adjacency(rng: random.Random, parents: dict) -> dict:
    """Symmetric weighted adjacency over the edges of a parent map."""
    adj: dict = {t: {} for t in parents}
    for child, ps in parents.items():
        for parent in ps:
            w = rng.choice(EXACT_WEIGHTS)
            adj[child][parent] = w
            adj[parent][child] = w
    return adj


def random_term_vector(rng: random.Random, pool, max_terms: int = 8) -> dict:
    n = rng.randint(1, max_terms)
    terms = rng.sample(pool, n)
    return {t: rng.choice([1.0, 2.0, 0.5, 3.0, 1.5]) for t in terms}


def bfs_distances(adj, source, keep=None) -> dict:
    """Hop counts from ``source`` over an adjacency of (neighbour, weight) pairs, one level at a time.

    ``keep`` is antitone in cost; the search stops at the first level it rejects.
    """
    dist: dict = {}
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
            for nbr, _w in adj[node]:
                if nbr not in dist:
                    nxt.append(nbr)
        frontier = nxt
        level += 1
    return dist


def dijkstra_distances(adj, source, keep=None) -> dict:
    """Shortest-path costs from ``source`` by a binary-heap Dijkstra; ``keep`` as in ``bfs_distances``."""
    dist: dict = {}
    heap = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in dist:
            continue
        if keep is not None and not keep(d):
            break  # costs pop in nondecreasing order; nothing later can pass
        dist[node] = d
        for nbr, w in adj[node]:
            if nbr not in dist:
                heapq.heappush(heap, (d + w, nbr))
    return dist


def scalar_store(adj, unit_weights: bool, lam: float, eps: float, restrict=None) -> dict:
    """A term-similarity store's entries ``{(a, b): exp(-d/lam)}``, ``a < b``, from one scalar search per source.

    Each source's search is pruned where ``exp(-d/lam) > eps`` fails; an entry
    between two sources comes from the larger id's search.
    """
    search = bfs_distances if unit_weights else dijkstra_distances
    sources = set(adj if restrict is None else restrict)
    keep = (lambda d: math.exp(-d / lam) > eps) if eps > 0 else None
    entries = {}
    for src in sorted(sources):
        for node, d in search(adj, src, keep).items():
            if node == src or (node > src and node in sources):
                continue
            s = math.exp(-d / lam)
            if s > eps:
                entries[(src, node) if src < node else (node, src)] = s
    return entries
