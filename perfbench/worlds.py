"""Seeded worlds for the benchmark: vocabulary, corpus, judgements, pair lists.

Nothing here imports ``vocabrel``: the benchmark's inputs depend only on the
workload's shape and the seed, so no change to the program can change them.
The same seed always gives byte-identical files.

Two world shapes:

* ``disjoint_world`` - one root and one subtree per topic, in the proportions
  of the program's own synthetic generator: every document carries a fixed
  per-topic core plus a random draw from its topic's subtree, so documents
  of different topics share no term.
* ``mesh_world`` - a MeSH-shaped vocabulary: many roots, deeper and broader
  trees, descriptors placed in several trees (extra parents in other
  trees), few topics and few documents, and annotations that cross topics.
"""

from __future__ import annotations

import json
import random
import math
from dataclasses import dataclass
from pathlib import Path

RELEVANT, POSSIBLY, NOT_RELEVANT = 2, 1, 0
MAJORS = 2  # major terms per document
MAYBES = 2  # "possibly relevant" judgements per topic

# disjoint worlds, in the proportions of the program's synthetic generator
DISJOINT_TERMS_PER_DOC = 10
DISJOINT_CORE_TERMS = 5  # per-topic terms every document of the topic carries
DISJOINT_QUALIFIERS = 4

# MeSH-shaped worlds
MESH_TERMS_PER_DOC = 8
MESH_QUALIFIERS = 8
MESH_EXTRA_PARENT_FRAC = 0.1  # descriptors placed in a second (or third) tree
MESH_DEEPEN = 0.3  # chance that a new descriptor extends a recent chain
MESH_REGION_TREES = 3  # trees a topic's pool is drawn from
MESH_FREQ_MU, MESH_FREQ_SIGMA = 3.0, 1.5  # log-normal external term frequencies


@dataclass
class World:
    """An in-memory world; ``docs`` maps a document to (term, major, qualifiers)."""

    terms: dict[str, tuple[str, ...]]  # term id -> parent ids
    qualifiers: list[str]
    docs: dict[str, list[tuple[str, bool, tuple[str, ...]]]]
    judgements: list[tuple[str, str, int]]
    disjoint: bool
    roots: int = 1
    placements: int = 0  # parent links beyond the first, i.e. extra tree positions
    freq: dict[str, int] | None = None  # external term frequencies, when IC uses them

    def corpus_terms(self) -> list[str]:
        return sorted({t for anns in self.docs.values() for t, _, _ in anns})


def _judge(rng: random.Random, doc_topic: dict[str, str], topics: list[str],
           negatives: int) -> list[tuple[str, str, int]]:
    """Own documents relevant, a draw of other topics' documents not relevant."""
    all_docs = sorted(doc_topic)
    out: list[tuple[str, str, int]] = []
    for topic in topics:
        own = [d for d in all_docs if doc_topic[d] == topic]
        others = [d for d in all_docs if doc_topic[d] != topic]
        neg = sorted(rng.sample(others, min(negatives, len(others))))
        rest = [d for d in others if d not in set(neg)]
        out += [(topic, d, RELEVANT) for d in own]
        out += [(topic, d, NOT_RELEVANT) for d in neg]
        out += [(topic, d, POSSIBLY) for d in sorted(rng.sample(rest, min(MAYBES, len(rest))))]
    return sorted(out)


def _annotate(rng: random.Random, terms: list[str],
              qualifiers: list[str]) -> list[tuple[str, bool, tuple[str, ...]]]:
    major = set(rng.sample(terms, MAJORS))
    out = []
    for t in sorted(terms):
        quals = (qualifiers[rng.randrange(len(qualifiers))],) if rng.random() < 0.3 else ()
        out.append((t, t in major, quals))
    return out


def _deal(rng: random.Random, pool: list[str], n_docs: int, k: int) -> list[list[str]]:
    """``k`` distinct pool terms per document, dealt from a shuffled deck.

    Every pool term is used before any is used twice, so the number of
    distinct annotated terms (the store's rows) does not vary with the seed.
    """
    deck: list[str] = []
    hands: list[list[str]] = []
    for _ in range(n_docs):
        hand: list[str] = []
        while len(hand) < k:
            if not deck:
                deck = rng.sample(pool, len(pool))
            t = deck.pop()
            if t in hand:
                deck.insert(0, t)
                continue
            hand.append(t)
        hands.append(hand)
    return hands


def disjoint_world(seed: int, n_topics: int, docs_per_topic: int, terms_per_topic: int) -> World:
    rng = random.Random(f"disjoint|{seed}|{n_topics}|{docs_per_topic}|{terms_per_topic}")
    terms: dict[str, tuple[str, ...]] = {"ROOT": ()}
    qualifiers = [f"Q{i:02d}" for i in range(DISJOINT_QUALIFIERS)]
    placements = 0
    members: dict[str, list[str]] = {}
    for k in range(n_topics):
        head = f"T{k}"
        terms[head] = ("ROOT",)
        own: list[str] = []
        for i in range(terms_per_topic):
            tid = f"{head}.{i:03d}"
            if i < 3:
                parents = {head}
            else:
                parents = {own[rng.randrange(len(own))]}
                if rng.random() < 0.15:
                    parents.add(head)
            placements += len(parents) - 1
            terms[tid] = tuple(sorted(parents))
            own.append(tid)
        members[head] = own
    docs: dict[str, list] = {}
    doc_topic: dict[str, str] = {}
    for head, own in members.items():
        core, pool = own[:DISJOINT_CORE_TERMS], own[DISJOINT_CORE_TERMS:]
        dealt = _deal(rng, pool, docs_per_topic, DISJOINT_TERMS_PER_DOC - DISJOINT_CORE_TERMS)
        for d in range(docs_per_topic):
            doc = f"{head}D{d:03d}"
            docs[doc] = _annotate(rng, core + dealt[d], qualifiers)
            doc_topic[doc] = head
    judgements = _judge(rng, doc_topic, sorted(members), docs_per_topic)
    return World(terms, qualifiers, docs, judgements, disjoint=True, roots=1,
                 placements=placements)


def mesh_world(seed: int, n_roots: int, terms_per_root: int, n_topics: int,
               docs_per_topic: int, pool_size: int) -> World:
    rng = random.Random(f"mesh|{seed}|{n_roots}|{terms_per_root}|{n_topics}|{docs_per_topic}")
    qualifiers = [f"Q{i:02d}" for i in range(MESH_QUALIFIERS)]
    terms: dict[str, tuple[str, ...]] = {}
    children: dict[str, list[str]] = {}
    rank: dict[str, int] = {}
    trees: list[list[str]] = []
    for r in range(n_roots):
        root = f"M{r:02d}"
        terms[root] = ()
        children[root] = []
        rank[root] = -1
        nodes = [root]
        for i in range(terms_per_root):
            tid = f"M{r:02d}.{i:04d}"
            # deepen a recent chain, otherwise broaden anywhere
            if rng.random() < MESH_DEEPEN:
                parent = nodes[max(0, len(nodes) - 8) + rng.randrange(min(8, len(nodes)))]
            else:
                parent = nodes[rng.randrange(len(nodes))]
            terms[tid] = (parent,)
            children[tid] = []
            children[parent].append(tid)
            rank[tid] = i
            nodes.append(tid)
        trees.append(nodes)
    # extra tree positions: a fixed share of descriptors gets a second (one
    # in five a third) parent in another tree; every edge runs from a higher
    # rank to a strictly lower one, so the hierarchy stays acyclic
    placements = 0
    placed = [(r, t) for r, nodes in enumerate(trees) for t in nodes[1:]]
    for r, tid in rng.sample(placed, round(MESH_EXTRA_PARENT_FRAC * len(placed))):
        parents = set(terms[tid])
        for _ in range(2 if rng.random() < 0.2 else 1):
            other = trees[(r + 1 + rng.randrange(n_roots - 1)) % n_roots]
            cand = other[: 1 + rank[tid]]  # root plus lower-ranked nodes
            parents.add(cand[rng.randrange(len(cand))])
        placements += len(parents) - len(terms[tid])
        terms[tid] = tuple(sorted(parents))

    taken: set[str] = set()

    def ball(tree: int, size: int) -> list[str]:
        """``size`` descriptors of one tree no other pool holds, breadth-first."""
        out: list[str] = []
        while len(out) < size:
            free = [t for t in trees[tree][1:] if t not in taken]
            queue = [free[rng.randrange(len(free))]]
            taken.add(queue[0])
            out.append(queue[0])
            while queue and len(out) < size:
                node = queue.pop(0)
                for nbr in (*terms[node], *children[node]):
                    if len(out) < size and nbr not in taken and rank[nbr] >= 0 \
                            and nbr.startswith(node[:3]):
                        taken.add(nbr)
                        out.append(nbr)
                        queue.append(nbr)
        return out

    # a topic's pool: balls in MESH_REGION_TREES different trees, pools disjoint
    pools = [[t for r in rng.sample(range(n_roots), MESH_REGION_TREES)
              for t in ball(r, pool_size // MESH_REGION_TREES)] for _ in range(n_topics)]
    # annotations from anywhere else: each outside descriptor used at most once
    outside = [t for t in sorted(terms) if t not in taken and rank[t] >= 0]
    noise = rng.sample(outside, len(outside))
    n_region = round(0.6 * MESH_TERMS_PER_DOC)
    n_cross = round(0.25 * MESH_TERMS_PER_DOC)
    docs: dict[str, list] = {}
    doc_topic: dict[str, str] = {}
    for k in range(n_topics):
        topic = f"T{k}"
        dealt = _deal(rng, pools[k], docs_per_topic, n_region)
        for d in range(docs_per_topic):
            doc = f"{topic}D{d:03d}"
            other = pools[(k + 1 + rng.randrange(n_topics - 1)) % n_topics]
            chosen = dealt[d] + rng.sample(other, n_cross)
            chosen += [noise.pop() for _ in range(MESH_TERMS_PER_DOC - len(chosen))]
            docs[doc] = _annotate(rng, sorted(chosen), qualifiers)
            doc_topic[doc] = topic
    topics = [f"T{k}" for k in range(n_topics)]
    judgements = _judge(rng, doc_topic, topics, docs_per_topic)
    # frequencies from a larger collection, log-normal per term, so that IC
    # (and with it the dic graph) does not hinge on the few documents here
    freq = {t: int(math.exp(rng.gauss(MESH_FREQ_MU, MESH_FREQ_SIGMA))) for t in sorted(terms)}
    return World(terms, qualifiers, docs, judgements, disjoint=False, roots=n_roots,
                 placements=placements, freq=freq)


def pair_list(world: World, n_pairs: int, seed: int) -> list[tuple[str, str]]:
    """``n_pairs`` seeded document pairs (distinct documents), each in both orders."""
    rng = random.Random(f"pairs|{seed}|{n_pairs}")
    ids = sorted(world.docs)
    out: list[tuple[str, str]] = []
    for _ in range(n_pairs):
        a, b = rng.sample(ids, 2)
        out += [(a, b), (b, a)]
    return out


def write_world(world: World, pairs: list[tuple[str, str]], out: Path) -> dict[str, Path]:
    """Write the canonical input files; returns their paths by role."""
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / fname for name, fname in (
        ("vocab", "vocab.jsonl"), ("corpus", "corpus.jsonl"),
        ("judgements", "judgements.tsv"), ("pairs", "pairs.tsv"))}
    if world.freq is not None:
        paths["freq"] = out / "freq.tsv"
        with open(paths["freq"], "w", encoding="utf-8") as fh:
            for tid in sorted(world.freq):
                fh.write(f"{tid}\t{world.freq[tid]}\n")
    with open(paths["vocab"], "w", encoding="utf-8") as fh:
        for tid in sorted(world.terms):
            rec = {"id": tid, "label": f"term {tid}", "parents": list(world.terms[tid])}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        for q in world.qualifiers:
            fh.write(json.dumps({"id": q, "kind": "qualifier", "label": ""}, sort_keys=True) + "\n")
    with open(paths["corpus"], "w", encoding="utf-8") as fh:
        for doc in sorted(world.docs):
            anns = [{"major": m, "qualifiers": list(q), "term": t} for t, m, q in world.docs[doc]]
            fh.write(json.dumps({"id": doc, "terms": anns}, sort_keys=True) + "\n")
    with open(paths["judgements"], "w", encoding="utf-8") as fh:
        for topic, doc, level in world.judgements:
            fh.write(f"{topic}\t{doc}\t{level}\n")
    with open(paths["pairs"], "w", encoding="utf-8") as fh:
        for a, b in pairs:
            fh.write(f"{a}\t{b}\n")
    return paths
