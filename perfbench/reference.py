"""Reference results for a benchmark world, computed without ``vocabrel``.

Distances come from ``scipy.sparse.csgraph.dijkstra``; similarities, the
Salton, soft cosine and MTS scores, Cliff's delta, population means and
skewness use numpy.  The formulas follow the program's documentation:

* ``ic(t) = -ln(aggregate(t) / sum of aggregates)``, aggregate = own plus
  descendant frequency, a zero aggregate taking ``-ln(1 / denominator)``;
* ``sim(a, b) = exp(-d(a, b) / lambda)``, kept when above ``eps``, unit
  diagonal; g1 edges weigh 1, dic edges ``|ic(a) - ic(b)|``;
* Salton: cosine of the weight vectors; soft cosine: ``x'Sy / sqrt(x'Sx y'Sy)``
  (Novotny 2018); MTS: best-match average with major terms weighted by w
  (Pesquita et al. 2009).  Vector weights: ``binary`` is 1, or w on major
  terms; ``ic`` is ic(t), times w on major terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from worlds import NOT_RELEVANT, POSSIBLY, RELEVANT, World


@dataclass(frozen=True)
class Config:
    """One relatedness configuration, in the program's CSV vocabulary."""

    method: str  # salton | soft | mts
    vector: str = "."  # binary | ic for salton/soft
    graph: str = "."  # g1 | dic for soft/mts
    w: int = 1
    lam: float = 0.0

    def csv_key(self) -> tuple[str, ...]:
        lam = f"{self.lam:g}" if self.graph != "." else "."
        slim = "false" if self.method == "mts" else "."
        return (self.method, self.vector, self.graph, f"{self.w:g}", lam, slim)

    def cli_args(self) -> list[str]:
        args = ["--method", self.method, "--w", str(self.w)]
        if self.vector != ".":
            args += ["--vector", self.vector]
        if self.graph != ".":
            args += ["--graph", self.graph, "--lambda", f"{self.lam:g}"]
        return args


REFERENCE9 = [
    Config("salton", "binary", w=1), Config("salton", "binary", w=3), Config("salton", "ic", w=2),
    Config("soft", "binary", "g1", 4, 1.0), Config("soft", "binary", "dic", 4, 1.0),
    Config("soft", "ic", "g1", 3, 1.0), Config("soft", "ic", "dic", 3, 1.0),
    Config("mts", ".", "g1", 16, 1.0), Config("mts", ".", "dic", 16, 2.0),
]


class Reference:
    """IC, distances and all document-pair scores of one world."""

    def __init__(self, world: World, eps: float = 1e-4):
        self.world = world
        self.eps = eps
        self.terms = sorted(world.terms)
        self.index = {t: i for i, t in enumerate(self.terms)}
        n = len(self.terms)
        child, parent = [], []
        for t, parents in world.terms.items():
            for p in parents:
                child.append(self.index[t])
                parent.append(self.index[p])
        self.child = np.array(child, dtype=np.int64)
        self.parent = np.array(parent, dtype=np.int64)
        # descendant closure: t reaches d by child->parent links iff d is
        # below t; dist[d, t] finite, the diagonal counting the term itself
        up = sp.csr_matrix((np.ones(len(child)), (self.child, self.parent)), shape=(n, n))
        below = np.isfinite(dijkstra(up, directed=True, unweighted=True))
        if world.freq is not None:
            counts = np.array([world.freq.get(t, 0) for t in self.terms], dtype=np.int64)
        else:
            counts = np.zeros(n, dtype=np.int64)
            for anns in world.docs.values():
                for t, _, _ in anns:
                    counts[self.index[t]] += 1
        self.aggregate = below.T.astype(np.int64) @ counts
        self.denominator = int(self.aggregate.sum())
        agg = np.where(self.aggregate > 0, self.aggregate, 1).astype(float)
        self.ic = -np.log(agg / self.denominator)
        self.docs = sorted(world.docs)
        self.doc_index = {d: i for i, d in enumerate(self.docs)}
        self.rows = [self.index[t] for t in world.corpus_terms()]
        self._raw: dict[tuple[str, float], np.ndarray] = {}
        self._sims: dict[tuple[str, float], np.ndarray] = {}
        self._scores: dict[Config, np.ndarray] = {}

    def raw_rows(self, graph: str, lam: float) -> np.ndarray:
        """``exp(-d/lam)`` from every corpus term (rows) to every term, no eps floor."""
        key = (graph, lam)
        if key not in self._raw:
            n = len(self.terms)
            if graph == "g1":
                weights = np.ones(len(self.child))
            else:
                weights = np.abs(self.ic[self.child] - self.ic[self.parent])
            # explicit zeros stay edges of weight 0 in a csgraph CSR matrix
            g = sp.csr_matrix((weights, (self.child, self.parent)), shape=(n, n))
            horizon = -lam * math.log(self.eps) * (1 + 1e-9)
            dist = dijkstra(g, directed=False, indices=self.rows, limit=horizon)
            with np.errstate(over="ignore"):
                self._raw[key] = np.exp(-dist / lam)
        return self._raw[key]

    def on_boundary(self, raw: np.ndarray) -> np.ndarray:
        """Similarities equal to eps up to rounding.

        On the dic graph a distance is a sum of IC differences, which
        telescopes to the log of a ratio of integer aggregates, so
        ``exp(-d/lam) == eps`` holds exactly for some pairs; whether such an
        entry lands above the floor is decided by the last bit of a float sum.
        """
        return np.abs(raw - self.eps) <= 1e-9 * self.eps

    def adopt_boundary(self, graph: str, lam: float, present: set[tuple[int, int]]) -> None:
        """Keep exactly the boundary entries in ``present`` (term index pairs, low first)."""
        raw = self.raw_rows(graph, lam)
        sim = np.where((raw > self.eps) & ~self.on_boundary(raw), raw, 0.0)
        for r, c in zip(*np.nonzero(self.on_boundary(raw))):
            a = self.rows[r]
            if (min(a, c), max(a, c)) in present:
                sim[r, c] = raw[r, c]
        sim[np.arange(len(self.rows)), self.rows] = 1.0
        self._sims[(graph, lam)] = sim
        self._scores = {k: v for k, v in self._scores.items() if (k.graph, k.lam) != (graph, lam)}

    def similarity_rows(self, graph: str, lam: float) -> np.ndarray:
        """Stored similarities: above eps, unit diagonal, boundary entries as adopted."""
        if (graph, lam) not in self._sims:
            self.adopt_boundary(graph, lam, set())
        return self._sims[(graph, lam)]

    def _weights(self, cfg: Config) -> np.ndarray:
        """Documents x corpus terms weight matrix of the configuration."""
        col = {self.terms[i]: j for j, i in enumerate(self.rows)}
        x = np.zeros((len(self.docs), len(self.rows)))
        for i, doc in enumerate(self.docs):
            for t, major, _ in self.world.docs[doc]:
                base = self.ic[self.index[t]] if cfg.vector == "ic" else 1.0
                x[i, col[t]] = base * cfg.w if major else base
        return x

    def scores(self, cfg: Config) -> np.ndarray:
        """Documents x documents score matrix."""
        if cfg in self._scores:
            return self._scores[cfg]
        if cfg.method == "mts":
            present = self._weights(Config("mts", "binary", w=1)) > 0
            weight = self._weights(Config("mts", "binary", w=cfg.w))
            s = self.similarity_rows(cfg.graph, cfg.lam)[:, self.rows]
            # best[t, b] = max similarity of term t to any term of document b
            best = np.stack([s[:, present[b]].max(axis=1) for b in range(len(self.docs))], axis=1)
            num = weight @ best
            den = weight.sum(axis=1)
            out = (num + num.T) / (den[:, None] + den[None, :])
        else:
            x = self._weights(cfg)
            if cfg.method == "soft":
                s = self.similarity_rows(cfg.graph, cfg.lam)[:, self.rows]
                gram = x @ s @ x.T
            else:
                gram = x @ x.T
            norm = np.sqrt(np.diag(gram))
            out = gram / np.outer(norm, norm)
        self._scores[cfg] = out
        return out

    def populations(self, min_frac: float = 0.10) -> tuple[np.ndarray, np.ndarray]:
        """(same-topic, separate-topic) document index pairs, as the protocol pairs them."""
        by_topic: dict[str, dict[str, int]] = {}
        for topic, doc, level in self.world.judgements:
            by_topic.setdefault(topic, {})[doc] = level
        same, sep = [], []
        for topic, levels in sorted(by_topic.items()):
            if sum(1 for v in levels.values() if v != NOT_RELEVANT) / len(levels) < min_frac:
                continue
            docs = sorted(d for d, v in levels.items() if v != POSSIBLY)
            for i, a in enumerate(docs):
                for b in docs[i + 1:]:
                    ra, rb = levels[a] == RELEVANT, levels[b] == RELEVANT
                    if ra or rb:
                        (same if ra and rb else sep).append((self.doc_index[a], self.doc_index[b]))
        return np.array(same), np.array(sep)

    def sweep_row(self, cfg: Config) -> dict[str, float]:
        """delta, means and skewness over all judged pairs, plus delta's tie slack."""
        same_idx, sep_idx = self.populations()
        m = self.scores(cfg)
        same = m[same_idx[:, 0], same_idx[:, 1]]
        sep = m[sep_idx[:, 0], sep_idx[:, 1]]
        lo, hi = cliffs_delta_bounds(same, sep)
        return {
            "delta_lo": lo, "delta_hi": hi,
            "mean_same": float(np.mean(same)), "mean_sep": float(np.mean(sep)),
            "skew_same": skewness(same), "skew_sep": skewness(sep),
        }


def cliffs_delta_bounds(xs: np.ndarray, ys: np.ndarray, tol: float = 1e-12) -> tuple[float, float]:
    """Cliff's delta, as an interval over cross pairs whose order is within ``tol``.

    Scores that tie exactly in one implementation can differ in the last bit
    in another; such near-ties may count either way.
    """
    ys = np.sort(ys)
    scale = tol * np.maximum(1.0, np.abs(xs))
    less = np.searchsorted(ys, xs - scale, side="left")  # ys certainly below x
    greater = len(ys) - np.searchsorted(ys, xs + scale, side="right")
    near = len(ys) - less - greater
    total = int(less.sum()) - int(greater.sum())
    slack = int(near.sum())
    n = len(xs) * len(ys)
    return (total - slack) / n, (total + slack) / n


def skewness(xs: np.ndarray) -> float:
    """Population skewness m3 / m2^1.5; nan for fewer than 3 or constant values."""
    if xs.size < 3:
        return math.nan
    c = xs - xs.mean()
    m2 = float(np.mean(c * c))
    if m2 == 0.0:
        return math.nan
    return float(np.mean(c ** 3)) / m2 ** 1.5
