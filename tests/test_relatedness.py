import io
import itertools
import math
import random
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vocabrel.benchmark import ScoreSource
from vocabrel.docvectors import QualifiedTermVector, document_vector, ic_weighted_vector
from vocabrel.errors import (
    ConfigError,
    EmptyDocumentError,
    NoMajorTermsError,
    NonPositiveQuadraticFormError,
    VocabrelError,
)
from vocabrel.infocontent import ICTable
from vocabrel import relatedness
from vocabrel.model import Document
from vocabrel.relatedness import (
    _CHUNK,
    _placed,
    MethodConfig,
    Scorer,
    matrix_distance_fn,
    mts,
    pairwise_scores,
    read_scores,
    salton_cosine,
    soft_cosine,
    write_scores,
)
from vocabrel.termgraph import SimMatrix, TermGraph, similarity_matrix

import oracles
from util import dict_sim, make_corpus, make_doc, score_doc_pairs


def identity_matrix(n: int = 0) -> SimMatrix:
    return SimMatrix(kind="g1", lam=1.0, eps=0.5, n=n, entries={})


def sim_matrix(entries: dict, lam: float = 1.0, eps: float = 1e-4) -> SimMatrix:
    keyed = {}
    for (a, b), s in entries.items():
        keyed[(a, b) if a < b else (b, a)] = s
    return SimMatrix(kind="g1", lam=lam, eps=eps, n=0, entries=keyed)


TERM_POOL = [f"t{i}" for i in range(1, 13)]


def test_salton_fixture():
    value = salton_cosine({"t1": 1.0, "t2": 1.0}, {"t1": 1.0, "t3": 1.0}).value
    assert value == pytest.approx(0.5, abs=1e-12)


def test_salton_empty_vector_rejected():
    with pytest.raises(EmptyDocumentError):
        salton_cosine({}, {"t1": 1.0})


def test_soft_fixture():
    matrix = sim_matrix({("t1", "t2"): 0.5})
    assert soft_cosine({"t1": 1.0}, {"t2": 1.0}, matrix).value == pytest.approx(
        0.5, abs=1e-15
    )


def test_salton_of_qualifier_dimensions_alone():
    x = QualifiedTermVector(term_part={}, qual_part={("t1", "q1"): 1.0, ("t1", "q2"): 1.0})
    y = QualifiedTermVector(term_part={}, qual_part={("t1", "q1"): 1.0})
    assert salton_cosine(x, y).value == 1.0 / math.sqrt(2.0)


def test_soft_with_identity_matrix_is_salton():
    rng = random.Random(3)
    for _ in range(200):
        x = oracles.random_term_vector(rng, TERM_POOL)
        y = oracles.random_term_vector(rng, TERM_POOL)
        assert soft_cosine(x, y, identity_matrix()).value == salton_cosine(x, y).value


def test_soft_guard_raises_not_clamps():
    # an out-of-range off-diagonal entry makes x'Sx negative for a mixed
    # vector; real matrices keep s <= 1 but the guard must not rely on that
    matrix = sim_matrix({("t1", "t2"): 1.5})
    x = {"t1": 1.0, "t2": -1.0}
    with pytest.raises(NonPositiveQuadraticFormError):
        soft_cosine(x, x, matrix)


def test_mts_fixture():
    p_a = make_doc("a", ["t1", "t2"])
    p_b = make_doc("b", ["t1", "t3"])
    sim = dict_sim({("t2", "t3"): 0.4, ("t2", "t1"): 0.1, ("t1", "t3"): 0.2})
    assert mts(p_a, p_b, sim).value == pytest.approx(0.7, abs=1e-15)


def test_mts_fixture_weighted():
    p_a = make_doc("a", ["t1", "t2"], majors=["t1"])
    p_b = make_doc("b", ["t1", "t3"])
    sim = dict_sim({("t2", "t3"): 0.4, ("t2", "t1"): 0.1, ("t1", "t3"): 0.2})
    assert mts(p_a, p_b, sim, w=2.0).value == pytest.approx(0.76, abs=1e-15)


def test_mts_rejects_w_below_one():
    doc = make_doc("a", ["t1"])
    with pytest.raises(ValueError):
        mts(doc, doc, dict_sim({}), w=0.9)


def test_mts_slim_uses_major_terms_only():
    p_a = make_doc("a", ["t1", "t2"], majors=["t1"])
    p_b = make_doc("b", ["t1", "t3"], majors=["t3"])
    sim = dict_sim({("t1", "t3"): 0.2})
    assert mts(p_a, p_b, sim, slim=True).value == pytest.approx(0.2, abs=1e-15)
    with pytest.raises(NoMajorTermsError):
        mts(p_a, make_doc("c", ["t4"]), sim, slim=True)


def test_mts_self_relatedness_is_one():
    doc = make_doc("a", ["t1", "t2", "t3"], majors=["t2"])
    sim = dict_sim({("t1", "t2"): 0.3})
    assert mts(doc, doc, sim).value == 1.0
    assert mts(doc, doc, sim, w=7.0).value == 1.0


def test_mts_superset_never_decreases():
    # adding to P_b a term already in P_a raises that term's best match to 1
    rng = random.Random(11)
    sim_table = {
        (a, b): rng.random() * 0.8
        for i, a in enumerate(TERM_POOL)
        for b in TERM_POOL[i + 1 :]
    }
    sim = dict_sim(sim_table)
    for _ in range(100):
        terms_a = rng.sample(TERM_POOL, 4)
        terms_b = rng.sample(TERM_POOL, 3)
        extra = rng.choice(terms_a)
        if extra in terms_b:
            continue
        p_a = make_doc("a", terms_a)
        p_b = make_doc("b", terms_b)
        p_b_plus = make_doc("b", terms_b + [extra])
        assert mts(p_a, p_b_plus, sim).value >= mts(p_a, p_b, sim).value - 1e-12


@given(st.integers(0, 10_000))
def test_mts_matches_naive_oracle(seed):
    rng = random.Random(seed)
    sim_table = {
        (a, b): rng.random()
        for i, a in enumerate(TERM_POOL)
        for b in TERM_POOL[i + 1 :]
    }
    sim = dict_sim(sim_table)
    terms_a = rng.sample(TERM_POOL, rng.randint(1, 5))
    terms_b = rng.sample(TERM_POOL, rng.randint(1, 5))
    p_a = make_doc("a", terms_a, majors=rng.sample(terms_a, rng.randint(0, len(terms_a))))
    p_b = make_doc("b", terms_b, majors=rng.sample(terms_b, rng.randint(0, len(terms_b))))
    for w in (1.0, 2.0, 16.0):
        expected = oracles.naive_mts(
            [(a.term, a.is_major) for a in p_a.annotations],
            [(b.term, b.is_major) for b in p_b.annotations],
            sim,
            w,
        )
        assert mts(p_a, p_b, sim, w=w).value == pytest.approx(expected, abs=1e-12)


@given(st.integers(0, 10_000))
def test_symmetry_is_bitwise(seed):
    rng = random.Random(seed)
    entries = {
        (a, b): rng.random() * 0.9
        for i, a in enumerate(TERM_POOL)
        for b in TERM_POOL[i + 1 :]
        if rng.random() < 0.4
    }
    matrix = sim_matrix(entries)
    x = oracles.random_term_vector(rng, TERM_POOL)
    y = oracles.random_term_vector(rng, TERM_POOL)
    assert salton_cosine(x, y).value == salton_cosine(y, x).value
    assert soft_cosine(x, y, matrix).value == soft_cosine(y, x, matrix).value
    terms_a = sorted(x)
    terms_b = sorted(y)
    p_a = make_doc("a", terms_a, majors=terms_a[:1])
    p_b = make_doc("b", terms_b, majors=terms_b[:1])
    sim = matrix.sim
    assert mts(p_a, p_b, sim, w=3.0).value == mts(p_b, p_a, sim, w=3.0).value


def test_soft_cosine_is_bitwise_symmetric_on_the_same_terms():
    # both documents carry the same four terms with different major terms, so
    # their sorted keys tie and only the weights can order the pair
    rng = random.Random(5)
    for _ in range(20):
        terms = rng.sample(TERM_POOL, 4)
        pairs = itertools.combinations(terms, 2)
        matrix = sim_matrix({pair: rng.uniform(0.05, 0.3) for pair in pairs})
        doc_a = make_doc("a", terms, majors=terms[:2])
        doc_b = make_doc("b", terms, majors=terms[1:])
        x = document_vector(doc_a, w=3.0)
        y = document_vector(doc_b, w=3.0)
        assert soft_cosine(x, y, matrix).value.hex() == soft_cosine(y, x, matrix).value.hex()
        scorer = Scorer(config=MethodConfig("soft", graph="g1", lam=1.0, w=3), matrix=matrix)
        assert scorer.score(doc_a, doc_b).hex() == scorer.score(doc_b, doc_a).hex()


def test_ic_rescaling_leaves_cosine_unchanged(ic_fixture):
    _, table = ic_fixture
    doc_a = make_doc("a", ["r", "c1"], majors=["c1"])
    doc_b = make_doc("b", ["r", "c2"])
    base = salton_cosine(
        ic_weighted_vector(doc_a, table, 2.0), ic_weighted_vector(doc_b, table, 2.0)
    ).value
    for c in (0.1, 3.0, 1e6):
        scaled = ICTable(
            ic={t: v * c for t, v in table.ic.items()},
            aggregate=table.aggregate,
            denominator=table.denominator,
        )
        value = salton_cosine(
            ic_weighted_vector(doc_a, scaled, 2.0), ic_weighted_vector(doc_b, scaled, 2.0)
        ).value
        assert value == pytest.approx(base, abs=1e-12)


def test_salton_qualified_vectors_share_qualifier_dimensions(ic_fixture):
    _, table = ic_fixture
    doc_a = make_doc("a", ["c1"], qualifiers={"c1": ["q1"]})
    doc_b = make_doc("b", ["c1"], qualifiers={"c1": ["q1"]})
    doc_c = make_doc("c", ["c1"], qualifiers={"c1": ["q2"]})
    vec = lambda d: document_vector(d, use_ic=True, ic=table, qualifiers=True)
    same_qual = salton_cosine(vec(doc_a), vec(doc_b)).value
    diff_qual = salton_cosine(vec(doc_a), vec(doc_c)).value
    assert same_qual == pytest.approx(1.0, abs=1e-12)
    assert diff_qual < same_qual


def test_matrix_distance_fn_recovers_distances():
    matrix = sim_matrix({("t1", "t2"): math.exp(-2.0)}, lam=1.0, eps=0.01)
    neg = matrix_distance_fn(matrix)
    assert neg("t1", "t1") == 0.0
    assert neg("t1", "t2") == pytest.approx(-2.0, abs=1e-12)
    # absent pair saturates at the eps horizon -lam*ln(eps)
    assert neg("t1", "t9") == pytest.approx(math.log(0.01), abs=1e-12)


def test_matrix_distance_fn_eps_zero_cutoff():
    matrix = sim_matrix({("t1", "t2"): math.exp(-3.0)}, lam=1.0, eps=0.0)
    neg = matrix_distance_fn(matrix)
    assert neg("t1", "t9") == pytest.approx(-4.0, abs=1e-12)  # longest + 1


def test_method_config_validation():
    MethodConfig("salton", vector="ic", w=2).validate()
    MethodConfig("soft", vector="binary", graph="g1", lam=1.0).validate()
    MethodConfig("mts", graph="dic", lam=2.0, slim=True).validate()
    for bad in (
        MethodConfig("nope"),
        MethodConfig("salton", w=0.5),
        MethodConfig("salton", lam=1.0),
        MethodConfig("salton", graph="g1"),
        MethodConfig("soft", graph="g1"),  # missing lambda
        MethodConfig("soft", graph="g3", lam=1.0),
        MethodConfig("soft", graph="g1", lam=1.0, qualifiers=True),
        MethodConfig("mts", graph="g1", lam=1.0, qualifiers=True),
        MethodConfig("mts", graph="g1", lam=1.0, eps=1.5),
    ):
        with pytest.raises(ConfigError):
            bad.validate()


@pytest.mark.parametrize(
    "config, name",
    [
        (MethodConfig("mts", graph="g1", lam=1.0, vector="ic"), "vector"),
        (MethodConfig("salton", eps=1e-3), "eps"),
        (MethodConfig("salton", lam=1.0), "lambda"),
        (MethodConfig("soft", graph="g1", lam=1.0, raw_distance=True), "raw_distance"),
    ],
)
def test_method_config_rejects_a_parameter_its_method_does_not_read(config, name):
    with pytest.raises(ConfigError, match=f"does not read {name}$"):
        config.validate()


def test_method_config_tag_marks_inapplicable_fields():
    tag = MethodConfig("salton", vector="ic", w=2).tag()
    assert tag == "method=salton vector=ic qualifiers=false graph=. w=2 lambda=. eps=. slim=."
    raw = MethodConfig("mts", graph="dic", lam=2.0, raw_distance=True)
    assert raw.method_label == "mts-rawdist"
    assert "method=mts-rawdist" in raw.tag()


def test_scorer_reports_document_ids_on_guard_error():
    # bad1's only term has IC 0, so its IC-weighted vector is zero and x'Sx = 0
    ic = ICTable(ic={"t1": 0.0, "t2": 1.0}, aggregate={"t1": 4, "t2": 1}, denominator=4)
    corpus = make_corpus(make_doc("bad1", ["t1"]), make_doc("bad2", ["t2"]))
    scorer = Scorer(
        config=MethodConfig("soft", vector="ic", graph="g1", lam=1.0),
        ic=ic, matrix=sim_matrix({("t1", "t2"): 0.5}),
    )
    with pytest.raises(NonPositiveQuadraticFormError, match=r"x'Sx=0\.0, y'Sy=1\.0") as err:
        scorer.score(corpus.documents["bad1"], corpus.documents["bad2"])
    assert "bad1" in str(err.value) and "bad2" in str(err.value)


def test_pairwise_scores_order_and_worker_independence():
    # every pair of 30 documents, an empty one and an unknown id, both ways round: several chunks,
    # with a failing document and the unknown id on each side of the first two chunk boundaries
    rng = random.Random(11)
    matrix = sim_matrix({pair: rng.uniform(0.05, 0.9)
                         for pair in itertools.combinations(TERM_POOL, 2) if rng.random() < 0.4})
    docs = [make_doc(f"d{i:02d}", terms, majors=terms[:1])
            for i, terms in enumerate(rng.sample(TERM_POOL, rng.randint(1, 4)) for _ in range(30))]
    corpus = make_corpus(*docs, Document(id="empty", annotations=()))
    ids = [*corpus.documents, "ghost"]
    pairs = [(a, b) for a in ids for b in ids if a != b]
    rng.shuffle(pairs)
    for k, pair in zip([_CHUNK - 1, _CHUNK, 2 * _CHUNK - 1, 2 * _CHUNK],
                       [("d00", "empty"), ("ghost", "d01"), ("d02", "ghost"), ("empty", "d03")]):
        pairs.remove(pair)
        pairs.insert(k, pair)
    for config in [MethodConfig("salton", w=2), MethodConfig("soft", graph="g1", lam=1.0, w=3),
                   MethodConfig("mts", graph="g1", lam=1.0, w=2)]:
        new_scorer = lambda: Scorer(config=config, matrix=matrix if config.uses_graph else None)
        errors: list = []
        got = [(a, b, value.hex()) for a, b, value in pairwise_scores(corpus, pairs, new_scorer(), errors)]
        source, want, want_errors = ScoreSource(corpus, new_scorer()), [], []
        for a, b in pairs:  # each pair asked alone
            try:
                want.append((a, b, source(a, b).hex()))
            except VocabrelError as exc:
                want_errors.append((a, b, str(exc)))
        assert len(pairs) > 3 * _CHUNK and len(want_errors) == 4 * (len(ids) - 1) - 2
        assert got == want
        assert errors == want_errors


def test_pairwise_scores_collects_errors():
    corpus = make_corpus(make_doc("d1", ["t1"]), Document(id="empty", annotations=()))
    scorer = Scorer(config=MethodConfig("salton"))
    errors: list = []
    results = list(
        pairwise_scores(corpus, [("d1", "empty"), ("d1", "d1")], scorer, errors=errors)
    )
    assert len(results) == 1 and results[0][:2] == ("d1", "d1")
    assert len(errors) == 1 and errors[0][:2] == ("d1", "empty")


def test_scores_round_trip():
    corpus = make_corpus(make_doc("d1", ["t1", "t2"]), make_doc("d2", ["t2"]))
    scorer = Scorer(config=MethodConfig("salton"))
    results = list(pairwise_scores(corpus, [("d1", "d2")], scorer))
    buf = io.StringIO()
    n = write_scores(buf, scorer.config.tag(), results)
    text = buf.getvalue()
    assert n == 1
    assert text.startswith("#method salton ")
    header, rows = read_scores(io.StringIO(text))
    assert header.startswith("salton ")
    assert rows == [("d1", "d2", results[0][2])]
    # a pair repeated with the same bits, either way round, stays legal
    value = rows[0][2]
    _, rows = read_scores(io.StringIO(text + f"d2\td1\t{value!r}\nd1\td2\t{value:.17g}\n"))
    assert rows == [("d1", "d2", value), ("d2", "d1", value), ("d1", "d2", value)]


@pytest.mark.parametrize("method", ["salton", "soft", "mts"])
def test_scorer_prepares_a_new_document_under_a_known_id_afresh(method):
    config = MethodConfig(method, graph="g1", lam=1.0) if method != "salton" else MethodConfig(method)
    scorer = Scorer(config=config, matrix=identity_matrix() if config.uses_graph else None)
    b = make_doc("b", ["t1", "t2"])
    old_a, new_a = make_doc("a", ["t1", "t2"]), make_doc("a", ["t3"])
    assert scorer.score(old_a, b) == pytest.approx(1.0, abs=1e-12)
    assert scorer.score(new_a, b) == 0.0
    fresh = Scorer(config=config, matrix=scorer.matrix)
    assert score_doc_pairs(fresh, [(old_a, b), (new_a, b)]) == [scorer.score(old_a, b), 0.0]


@pytest.mark.parametrize("method", ["salton", "soft", "mts"])
def test_a_self_pair_prepares_its_document_once(method, monkeypatch):
    config = MethodConfig(method, graph="g1", lam=1.0) if method != "salton" else MethodConfig(method)
    matrix = identity_matrix() if config.uses_graph else None
    built = []
    record = Scorer._record
    monkeypatch.setattr(Scorer, "_record", lambda self, doc: built.append(doc.id) or record(self, doc))
    doc = make_doc("d1", ["t1", "t2"])
    source = ScoreSource(make_corpus(doc), Scorer(config=config, matrix=matrix))
    assert Scorer(config=config, matrix=matrix).score(doc, doc) == pytest.approx(1.0, abs=1e-12)
    assert source("d1", "d1") == pytest.approx(1.0, abs=1e-12)
    assert built == ["d1", "d1"]  # one record for each fresh scorer


# --- the batched kernel against the oracles ------------------------------------

KERNEL_CONFIGS = {
    "salton-binary": MethodConfig("salton", w=3),
    "salton-ic": MethodConfig("salton", vector="ic", w=2),
    "salton-ic-q": MethodConfig("salton", vector="ic", qualifiers=True, w=2),
    "soft-binary": MethodConfig("soft", graph="dic", lam=1.0, w=3),
    "soft-ic": MethodConfig("soft", vector="ic", graph="dic", lam=1.0, w=3),
    "mts": MethodConfig("mts", graph="dic", lam=1.0, w=3),
    "mts-slim": MethodConfig("mts", graph="dic", lam=1.0, w=2, slim=True),
    "mts-rawdist": MethodConfig.from_label("mts-rawdist", graph="dic", lam=2.0, w=2),
    "mts-rawdist-eps0": MethodConfig.from_label("mts-rawdist", graph="dic", lam=2.0, w=2, eps=0.0),
}


def _kernel_world(rng: random.Random):
    """A random weighted graph, IC values (some 0), and documents over its terms, some qualified.

    Returns (graph, ic, documents, all-pairs distances by Floyd-Warshall).
    """
    parents = oracles.random_dag_parents(rng, 12)
    adj = oracles.random_weighted_adjacency(rng, parents)
    graph = TermGraph(kind="dic", adj={t: tuple(sorted(nbrs.items())) for t, nbrs in adj.items()})
    nodes = sorted(parents)
    # 0.1 rounds as products add up; the others are exact
    ic = ICTable(ic={t: rng.choice([0.0, 0.1, 0.5, 1.0, 2.5]) for t in nodes},
                 aggregate={t: 1 for t in nodes}, denominator=1)
    docs = []
    for i in range(rng.randint(2, 7)):
        terms = rng.sample(nodes, rng.randint(1, min(5, len(nodes))))
        qualifiers = {t: rng.sample(["q1", "q2", "q3"], rng.randint(0, 3)) for t in terms}
        docs.append(make_doc(f"d{i}", terms, majors=rng.sample(terms, rng.randint(0, len(terms))),
                             qualifiers=qualifiers))
    if rng.random() < 0.3:
        docs.append(Document(id=f"d{len(docs)}", annotations=()))
    return graph, ic, docs, oracles.floyd_warshall(nodes, adj)


def _oracle_sim(config: MethodConfig, dist: dict):
    lam, eps = config.lam, config.eps
    if not config.raw_distance:
        def sim(a, b):
            s = 1.0 if a == b else math.exp(-dist[a][b] / lam)
            return s if a == b or s > eps else 0.0
        return sim
    if eps > 0:
        cutoff = -lam * math.log(eps)
    else:
        finite = [d for row in dist.values() for d in row.values() if 0 < d < math.inf]
        cutoff = max(finite, default=0.0) + 1.0
    return lambda a, b: 0.0 if a == b else -min(dist[a][b], cutoff)


def _oracle_score(config: MethodConfig, ic: ICTable, sim, doc_a: Document, doc_b: Document):
    """The oracle's score of a pair, or the (type, message) of the error it must raise."""
    if config.method == "mts":
        first, second = sorted((doc_a, doc_b), key=lambda d: d.id)
        for doc in (first, second):
            if doc.is_empty:
                return EmptyDocumentError, f"empty document {doc.id!r}"
            if config.slim and not doc.major_term_ids():
                return NoMajorTermsError, f"document {doc.id!r} has no major terms"
        terms = [
            [(a.term, a.is_major) for a in d.annotations if a.is_major or not config.slim]
            for d in (doc_a, doc_b)
        ]
        return oracles.naive_mts(*terms, sim, config.w)
    vectors = []
    for doc in (doc_a, doc_b):
        if doc.is_empty:
            return EmptyDocumentError, f"empty document {doc.id!r}"
        base = ic.ic if config.vector == "ic" else dict.fromkeys(doc.term_ids(), 1.0)
        vectors.append({a.term: base[a.term] * (config.w if a.is_major else 1.0)
                        for a in doc.annotations})
    if config.method == "salton":
        quals = [{(a.term, q): 1.0 for a in d.annotations for q in a.qualifiers} if config.qualifiers
                 else {} for d in (doc_a, doc_b)]
        try:
            return oracles.scalar_salton(*zip(vectors, quals))
        except ZeroDivisionError:
            return EmptyDocumentError, "cosine of a zero vector"
    if any(sum(v * sim(i, j) * u for i, v in x.items() for j, u in x.items()) <= 0 for x in vectors):
        return (NonPositiveQuadraticFormError,
                f"documents {doc_a.id!r}, {doc_b.id!r}: non-positive quadratic form (x'Sx=")
    return oracles.naive_soft_cosine(*vectors, sim)


def _same_outcome(got, want, bitwise: bool = False) -> None:
    if isinstance(want, tuple):
        assert type(got) is want[0] and str(got).startswith(want[1]), (got, want)
    else:
        assert not isinstance(got, Exception), got
        if bitwise:
            assert got.hex() == want.hex()
        else:
            assert got == pytest.approx(want, abs=1e-12)


def _outcome(score, *args):
    try:
        return score(*args)
    except VocabrelError as exc:
        return exc


def _fingerprint(outcome) -> str:
    """A score's bits, or an error's text: ``pairwise_scores`` reports only the text."""
    return outcome.hex() if isinstance(outcome, float) else str(outcome)


def _relate(corpus, scorer, a: str, b: str):
    """The score ``pairwise_scores`` gives the one pair, or the text of its error."""
    errors: list = []
    scored = list(pairwise_scores(corpus, [(a, b)], scorer, errors))
    return scored[0][2] if scored else errors[0][2]


@given(st.integers(0, 10_000))
def test_kernel_matches_the_oracles_and_no_batch_moves_a_bit(seed):
    rng = random.Random(seed)
    graph, ic, docs, dist = _kernel_world(rng)
    pairs = [(a, b) for a in docs for b in docs]
    corpus = make_corpus(*docs)
    for config in KERNEL_CONFIGS.values():
        matrix = similarity_matrix(graph, lam=config.lam, eps=config.eps) if config.uses_graph else None
        sim = _oracle_sim(config, dist)
        new_scorer = lambda: Scorer(config=config, ic=ic, matrix=matrix)
        batch = score_doc_pairs(new_scorer(), pairs)
        for (a, b), got in zip(pairs, batch):  # salton: the scalar formula's bits
            _same_outcome(got, _oracle_score(config, ic, sim, a, b), bitwise=config.method == "salton")
        # a pair alone, in a shuffled batch, and on both sides of a kernel step's end;
        # the filler pairs all score, so that the step holds _CHUNK of them
        a, b = rng.choice(pairs)
        shuffled = rng.sample(pairs, len(pairs))
        scoring = [pair for pair, got in zip(pairs, batch) if isinstance(got, float)] or pairs
        boundary = [rng.choice(scoring) for _ in range(_CHUNK + 1)]
        boundary[_CHUNK - 1 : _CHUNK + 1] = [(a, b), (b, a)]
        across = score_doc_pairs(new_scorer(), boundary)
        forward = [_outcome(new_scorer().score, a, b), across[_CHUNK - 1],
                   score_doc_pairs(new_scorer(), shuffled)[shuffled.index((a, b))]]
        backward = [_outcome(new_scorer().score, b, a), across[_CHUNK]]
        # by document id: relate asks in the order given, a ScoreSource the smaller id first
        forward.append(_relate(corpus, new_scorer(), a.id, b.id))
        backward.append(_relate(corpus, new_scorer(), b.id, a.id))
        (forward if a.id <= b.id else backward).append(_outcome(ScoreSource(corpus, new_scorer()), b.id, a.id))
        if isinstance(forward[0], Exception):  # the message names the ids in the order asked
            assert {_fingerprint(o) for o in forward} == {_fingerprint(forward[0])}
            assert {_fingerprint(o) for o in backward} == {_fingerprint(backward[0])}
            assert {type(o) for o in forward + backward if not isinstance(o, str)} == {type(forward[0])}
        else:
            assert {_fingerprint(o) for o in forward + backward} == {_fingerprint(forward[0])}


@given(st.integers(0, 10_000))
def test_soft_and_mts_on_one_store_read_one_block_in_either_order(seed):
    # every step's kernel reads the store's block itself, which nothing writes, and no score
    # moves a bit from the same pairs scored on a copy of the store that no scorer has read
    rng = random.Random(seed)
    graph, ic, docs, _ = _kernel_world(rng)
    store = similarity_matrix(graph, lam=1.0)
    soft, mts_config = KERNEL_CONFIGS["soft-ic"], KERNEL_CONFIGS["mts"]

    def soft_cosine_each(matrix, pairs):
        vector = lambda doc: document_vector(doc, use_ic=True, ic=ic, w=soft.w)
        return [_outcome(lambda x, y: soft_cosine(vector(x), vector(y), matrix).value, a, b) for a, b in pairs]

    steps = {
        "mts": lambda matrix, pairs: score_doc_pairs(Scorer(config=mts_config, ic=ic, matrix=matrix), pairs),
        "soft": lambda matrix, pairs: score_doc_pairs(Scorer(config=soft, ic=ic, matrix=matrix), pairs),
        "soft_cosine": soft_cosine_each,
    }
    every_pair = [(a, b) for a in docs for b in docs]
    asked = {name: rng.sample(every_pair, rng.randint(1, len(every_pair))) for name in steps}
    # soft_cosine reads no term of a pair whose vector fails to build
    asked["soft_cosine"] = [(a, b) for a, b in asked["soft_cosine"] if not (a.is_empty or b.is_empty)]
    rawdist = MethodConfig.from_label("mts-rawdist", graph="dic", lam=1.0, w=2)

    def kernel_blocks(score, *args):
        """What ``score(*args)`` gives, and the block each of its kernel calls read."""
        with mock.patch.object(relatedness, "_score_rows", side_effect=relatedness._score_rows) as kernel:
            return score(*args), [call.args[1] for call in kernel.call_args_list]

    for order in (list(steps), list(steps)[::-1]):
        block = store.block.copy()
        block.flags.writeable = False
        matrix = replace(store, block=block)
        for name in order:
            got, read = kernel_blocks(steps[name], matrix, asked[name])
            fresh = steps[name](replace(store, block=store.block.copy()), asked[name])
            assert [_fingerprint(o) for o in got] == [_fingerprint(o) for o in fresh]
            assert all(b is block for b in read) and (read or not asked[name])
        for config in (soft, mts_config):
            assert Scorer(config=config, ic=ic, matrix=matrix)._block is block
        rawdist_scorer = Scorer(config=rawdist, ic=ic, matrix=matrix)
        _, read = kernel_blocks(score_doc_pairs, rawdist_scorer, every_pair)
        assert rawdist_scorer._block is not block and all(b is rawdist_scorer._block for b in read)
        assert matrix.block is block and block.tobytes() == store.block.tobytes()


@given(st.integers(0, 10_000), st.sampled_from(["soft-binary", "soft-ic", "mts", "mts-slim", "mts-rawdist",
                                                "mts-rawdist-eps0"]))
def test_a_term_outside_a_restricted_store_scores_as_on_a_hand_built_store(seed, name):
    # a restricted store's terms are the search sources; an outside term is similar only to itself,
    # as on a store built by hand from the same entries, whose terms are their ends alone
    rng = random.Random(seed)
    graph, ic, docs, _ = _kernel_world(rng)
    config = KERNEL_CONFIGS[name]
    restrict = rng.sample(sorted(graph.adj), rng.randint(0, len(graph.adj)))
    store = similarity_matrix(graph, lam=config.lam, eps=config.eps, restrict=restrict)
    hand_built = SimMatrix(kind="dic", lam=config.lam, eps=config.eps, n=store.n, entries=store.entries)
    pairs = [(a, b) for a in docs for b in docs]
    assert store.block.shape == (len(restrict) + 1,) * 2
    outcomes = []
    for matrix in (store, hand_built):
        outcomes.append([_fingerprint(o) for o in score_doc_pairs(Scorer(config=config, ic=ic, matrix=matrix), pairs)])
        if config.method == "soft":
            vector = lambda doc: document_vector(doc, use_ic=config.vector == "ic", ic=ic, w=config.w)
            outcomes[-1] += [_fingerprint(_outcome(lambda x, y: soft_cosine(vector(x), vector(y), matrix).value, a, b))
                             for a, b in pairs if not (a.is_empty or b.is_empty)]
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("how", ["built", "replaced", "loaded"])
def test_scoring_a_batch_never_derives_the_entries_keyed_by_term_pair(how):
    # the store is its arrays; a dict keyed by term pairs is derived only for a caller that reads it
    graph, ic, docs, _ = _kernel_world(random.Random(3))
    pairs = [(a, b) for a in docs for b in docs]
    for name in ("soft-ic", "mts", "mts-rawdist", "mts-rawdist-eps0"):
        config = KERNEL_CONFIGS[name]
        store = similarity_matrix(graph, lam=config.lam, eps=config.eps)
        if how == "replaced":  # as a cache records the inputs it was built from
            store = replace(store, inputs="digest")
        elif how == "loaded":
            buf = io.BytesIO()
            store.save(buf)
            store = SimMatrix.load(io.BytesIO(buf.getvalue()))
        assert len(store) > 0
        scores = score_doc_pairs(Scorer(config=config, ic=ic, matrix=store), pairs)
        assert any(isinstance(score, float) for score in scores)
        assert "entries" not in vars(store)


def test_salton_adds_the_qualifier_count_after_the_term_sum():
    # the 0.1 weights round as they add up, so counting the shared qualifier dimensions
    # into the running sum, before the terms or one by one after them, moves the last bit
    ic = ICTable(ic=dict.fromkeys(["t1", "t2", "t3"], 0.1), aggregate={}, denominator=1)
    a = make_doc("a", ["t1", "t2", "t3"], qualifiers={"t1": ["q1", "q2"], "t2": ["q1"]})
    b = make_doc("b", ["t1", "t2"], qualifiers={"t1": ["q1", "q2"]})
    config = MethodConfig("salton", vector="ic", qualifiers=True)
    parts = [(v.term_part, v.qual_part) for v in (document_vector(d, True, ic, qualifiers=True) for d in (a, b))]
    want = oracles.scalar_salton(*parts)
    assert want.hex() == "0x1.a20bd700c2c3fp-1"
    scorer = Scorer(config=config, ic=ic)
    got = [scorer.score(a, b), scorer.score(b, a),
           *score_doc_pairs(Scorer(config=config, ic=ic), [(a, b), (b, a)])]
    assert {value.hex() for value in got} == {want.hex()}


def test_salton_zero_vector_fails_as_its_pair_is_scored():
    # every term of "z" has IC 0; an empty document fails first, as it is prepared
    ic = ICTable(ic={"t1": 0.0, "t2": 1.5}, aggregate={}, denominator=1)
    zero, plain, empty = make_doc("z", ["t1"]), make_doc("p", ["t1", "t2"]), Document(id="e", annotations=())
    pairs = [(zero, plain), (plain, zero), (zero, zero), (zero, empty), (empty, zero)]
    want = [(EmptyDocumentError, "cosine of a zero vector")] * 3 + [(EmptyDocumentError, "empty document 'e'")] * 2
    config = MethodConfig("salton", vector="ic")
    alone = [_outcome(Scorer(config=config, ic=ic).score, a, b) for a, b in pairs]
    batch = score_doc_pairs(Scorer(config=config, ic=ic), pairs)
    for got in (alone, batch):
        assert [(type(e), str(e)) for e in got] == want


# --- the store's block, and mts-rawdist's, against sim calls ---------------------

BLOCK_IDS = ["a", "b", "c", "ß", "日本", "t1", "t10", "x\0", "y\0\0"]  # the NUL ids stay in memory
LOG_ROUNDS_APART = 0.5699993338763802  # np.log gives it one ulp off math.log (x86-64, numpy 2)


def _block_by_sim(sim, terms, size) -> np.ndarray:
    """The block as one ``sim`` call per pair of the terms would fill it; padding is an absent term."""
    block = np.full((size, size), sim("loose", "z"))  # no entry holds either term
    for i, a in enumerate(terms):
        for j, b in enumerate(terms[: i + 1]):
            block[i + 1, j + 1] = block[j + 1, i + 1] = sim(a, b)
    return block


def _neg_distance_by_sim(matrix: SimMatrix):
    """mts-rawdist's negated distance of two terms, from ``matrix.sim`` and the scalar math.log."""
    lam = matrix.lam
    longest = max((-lam * math.log(s) for s in matrix.entries.values()), default=0.0)
    cutoff = -lam * math.log(matrix.eps) if matrix.eps > 0 else longest + 1.0

    def neg_distance(a, b):
        s = matrix.sim(a, b)
        return 0.0 if a == b else -cutoff if s <= 0.0 else -min(cutoff, -lam * math.log(s))

    return neg_distance


@given(
    st.dictionaries(
        st.lists(st.sampled_from(BLOCK_IDS), min_size=2, max_size=2, unique=True).map(sorted).map(tuple),
        st.one_of(st.sampled_from([1.0, "eps", LOG_ROUNDS_APART]), st.floats(1e-9, 1.0, exclude_min=True)),
        max_size=20,
    ),
    st.sampled_from([0.0, 1e-4, 0.25]),
    st.sampled_from([0.7, 1.0, 2.0]),
    st.lists(st.lists(st.sampled_from(BLOCK_IDS + ["loose", "z"]), max_size=6), min_size=1, max_size=4),
    st.booleans(),
)
def test_scattered_block_equals_the_block_filled_by_sim_calls(entries, eps, lam, batches, loaded):
    # entries at eps, at 1.0 (a dic zero-weight edge), and corpus terms with no entry
    entries = {key: (eps if s == "eps" else s) for key, s in entries.items()}
    entries = {key: s for key, s in entries.items() if s > 0.0}
    matrix = SimMatrix(kind="dic", lam=lam, eps=eps, n=len(BLOCK_IDS), entries=entries)
    if loaded:
        entries = {key: s for key, s in entries.items() if not any(t.endswith("\0") for t in key)}
        buf = io.BytesIO()
        SimMatrix(kind="dic", lam=lam, eps=eps, n=len(BLOCK_IDS), entries=entries).save(buf)
        matrix = SimMatrix.load(io.BytesIO(buf.getvalue()))
        assert matrix.entries == entries
    config = MethodConfig("mts", graph="dic", lam=lam, eps=eps, raw_distance=True)
    rawdist = Scorer(config=config, ic=ICTable(ic={}, aggregate={}, denominator=1), matrix=matrix)
    outside = [t for t in dict.fromkeys(t for batch in batches for t in batch) if t not in matrix.index]
    for block, sim, self_value in [(matrix.block, matrix.sim, 1.0),
                                   (rawdist._block, _neg_distance_by_sim(matrix), 0.0)]:
        index = matrix.index
        for batch in batches:  # the terms outside the store pad a copy, as a scorer's batches do
            block, index = _placed(block, index, batch, self_value)
        terms = sorted(index, key=index.get)
        assert terms == sorted({t for key in entries for t in key}) + outside
        # index 0 holds the absent value; -0.0 is not 0.0
        assert block.tobytes() == _block_by_sim(sim, terms, len(block)).tobytes()
