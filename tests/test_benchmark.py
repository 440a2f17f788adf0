import dataclasses
import io
import itertools
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vocabrel import benchmark
from vocabrel.benchmark import (
    ArtifactSet,
    BenchResult,
    Confusion,
    Level,
    RelevanceJudgement,
    ScoreSource,
    build_pairs,
    ccc,
    classification_test,
    cliffs_delta,
    derive_substream_seed,
    filter_topics,
    ingest_judgements,
    log_skipped,
    mcc,
    pair_key,
    parameter_sweep,
    run_benchmark,
    separation_stats,
    skewness,
    stable_sample,
    write_distributions,
    write_judgements,
    write_results_csv,
)
from vocabrel.cli import reference_configs
from vocabrel.errors import MissingDataError, ParseError, VocabrelError
from vocabrel.model import Corpus, Document
from vocabrel.relatedness import MethodConfig, Scorer, pairwise_scores
from vocabrel.termgraph import SimMatrix

import oracles
from util import make_corpus, make_doc


def J(topic, doc, level):
    return RelevanceJudgement(topic, doc, Level(level))


# --- ingestion and filtering -------------------------------------------------


def test_ingest_judgements_keeps_highest_level():
    lines = ["T1\td1\t0", "T1\td1\t2", "T1\td2\t1", "# comment", ""]
    judgements = ingest_judgements(lines)
    assert judgements == [J("T1", "d1", 2), J("T1", "d2", 1)]


def test_ingest_judgements_bad_lines():
    with pytest.raises(ParseError):
        ingest_judgements(["T1\td1"])
    with pytest.raises(ParseError):
        ingest_judgements(["T1\td1\t9"])
    with pytest.raises(ParseError):
        ingest_judgements(["\td1\t0"])


def test_judgements_round_trip(tmp_path):
    judgements = [J("T1", "d1", 2), J("T1", "d2", 0), J("T2", "d1", 1)]
    path = tmp_path / "j.tsv"
    write_judgements(judgements, path)
    assert ingest_judgements(str(path)) == sorted(judgements)


def test_filter_topics_keeps_10_percent_and_drops_possibly():
    # 2 positives of 10 judged = 20% -> topic kept, possibly entries dropped
    keep_topic = [J("T1", f"d{i}", 0) for i in range(8)]
    keep_topic += [J("T1", "p1", 1), J("T1", "r1", 2)]
    # 1 positive of 20 judged = 5% -> topic dropped entirely
    drop_topic = [J("T2", f"e{i}", 0) for i in range(19)] + [J("T2", "r2", 2)]
    kept, dropped = filter_topics(keep_topic + drop_topic)
    assert dropped == ["T2"]
    assert {j.topic for j in kept} == {"T1"}
    assert all(j.level != Level.POSSIBLY_RELEVANT for j in kept)
    assert len(kept) == 9  # the possibly-relevant judgement is gone


def test_build_pairs_classification_of_pairs():
    judgements = [
        J("T1", "a", 2),
        J("T1", "b", 2),
        J("T1", "c", 0),
        # the same document pair under a second topic counts again
        J("T2", "a", 2),
        J("T2", "b", 0),
    ]
    pairs = build_pairs(judgements)
    assert pairs.same_topic == (("T1", "a", "b"),)
    assert set(pairs.separate_topic) == {("T1", "a", "c"), ("T1", "b", "c"), ("T2", "a", "b")}
    assert pairs.n_pairs == 4


# --- statistics ---------------------------------------------------------------


def test_cliffs_delta_fixture():
    assert cliffs_delta([3, 3], [1, 2, 3]) == pytest.approx(4 / 6, abs=1e-15)
    # numpy populations, as the benchmark's gathers give them, count as the lists do
    for xs, ys in [([3.0, 3.0], [1.0, 2.0, 3.0]), ([1.0, 2.0], [0.5, 3.0])]:
        expected = cliffs_delta(xs, ys)
        assert cliffs_delta(np.array(xs), np.array(ys)) == cliffs_delta(np.array(xs), ys) == expected


def test_cliffs_delta_empty_rejected():
    for xs, ys in [([], [1.0]), ([1.0], []), (np.array([]), np.array([1.0])), (np.array([1.0]), np.zeros(0))]:
        with pytest.raises(ValueError, match="two non-empty samples"):
            cliffs_delta(xs, ys)
    assert cliffs_delta(np.array([0.0]), [1.0]) == -1.0  # one zero is a sample, not an empty one


@given(st.integers(0, 10_000))
def test_cliffs_delta_matches_naive(seed):
    rng = random.Random(seed)
    xs = [rng.choice([0.0, 0.25, 0.5, 1.0, 2.0]) for _ in range(rng.randint(1, 30))]
    ys = [rng.choice([0.0, 0.25, 0.5, 1.0, 2.0]) for _ in range(rng.randint(1, 30))]
    assert cliffs_delta(xs, ys) == oracles.naive_cliffs_delta(xs, ys)


# ties, signed zeros, neighbouring floats and raw-distance negatives, among arbitrary values
_DELTA_VALUES = st.one_of(
    st.sampled_from([-3.5, -1.0, -0.0, 0.0, 0.1, math.nextafter(0.1, 1.0), 0.5, 1.0, math.inf]),
    st.floats(-4.0, 4.0),
)


@given(st.lists(_DELTA_VALUES, min_size=1, max_size=60), st.lists(_DELTA_VALUES, min_size=1, max_size=60))
def test_cliffs_delta_is_the_naive_tally_to_the_bit(xs, ys):
    assert cliffs_delta(xs, ys).hex() == oracles.naive_cliffs_delta(xs, ys).hex()


@given(st.integers(0, 10_000))
def test_cliffs_delta_antisymmetry_and_monotone_invariance(seed):
    rng = random.Random(seed)
    xs = [rng.random() for _ in range(rng.randint(1, 20))]
    ys = [rng.random() for _ in range(rng.randint(1, 20))]
    delta = cliffs_delta(xs, ys)
    assert -1.0 <= delta <= 1.0
    assert cliffs_delta(ys, xs) == -delta
    # rank statistic: any strictly increasing transform preserves it
    fx = [math.exp(3 * v) for v in xs]
    fy = [math.exp(3 * v) for v in ys]
    assert cliffs_delta(fx, fy) == delta


def test_mcc_fixture():
    assert mcc(Confusion(tp=6, fp=1, tn=2, fn=1)) == pytest.approx(11 / 21, abs=1e-15)


def test_mcc_zero_denominator_is_zero():
    assert mcc(Confusion(tp=0, fp=0, tn=5, fn=3)) == 0.0


@given(st.integers(0, 1000))
def test_mcc_label_swap_properties(seed):
    rng = random.Random(seed)
    conf = Confusion(
        tp=rng.randint(1, 20), fp=rng.randint(1, 20),
        tn=rng.randint(1, 20), fn=rng.randint(1, 20),
    )
    # flipping both predictions and truth relabels TP<->TN and FP<->FN
    both = Confusion(tp=conf.tn, fp=conf.fn, tn=conf.tp, fn=conf.fp)
    assert mcc(both) == pytest.approx(mcc(conf), abs=1e-12)
    # flipping predictions alone turns hits into misses and negates phi
    preds = Confusion(tp=conf.fn, fp=conf.tn, tn=conf.fp, fn=conf.tp)
    assert mcc(preds) == pytest.approx(-mcc(conf), abs=1e-12)
    assert -1.0 <= mcc(conf) <= 1.0


def test_skewness_fixtures():
    assert skewness([1.0, 2.0, 3.0]) == 0.0
    assert skewness([0.0, 0.0, 0.0, 1.0]) == pytest.approx(2 / math.sqrt(3), abs=1e-12)
    assert skewness([0.0, 1.0, 1.0, 1.0]) == pytest.approx(-2 / math.sqrt(3), abs=1e-12)


def test_skewness_rejects_degenerate_samples():
    with pytest.raises(ValueError):
        skewness([1.0, 2.0])
    with pytest.raises(ValueError):
        skewness([5.0, 5.0, 5.0])


@given(st.integers(0, 10_000))
def test_skewness_mirror_negates(seed):
    rng = random.Random(seed)
    xs = [rng.random() for _ in range(rng.randint(3, 40))]
    if max(xs) == min(xs):
        xs[0] += 1.0
    assert skewness([-v for v in xs]) == pytest.approx(-skewness(xs), abs=1e-10)


def test_ccc_fixtures():
    assert ccc([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0, abs=1e-15)
    # y = -x with zero means and equal sigma: rho = -1, C_b = 1
    assert ccc([-1.0, 0.0, 1.0], [1.0, 0.0, -1.0]) == pytest.approx(-1.0, abs=1e-15)
    # y = 2x on x=[1,2,3]: rho = 1, C_b = 2/(2 + 1/2 + 1/(2/3)) = 4/11
    assert ccc([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == pytest.approx(4 / 11, abs=1e-12)


def test_ccc_rejects_degenerate_samples():
    with pytest.raises(ValueError):
        ccc([1.0], [2.0])
    with pytest.raises(ValueError):
        ccc([1.0, 1.0], [1.0, 2.0])


@given(st.integers(0, 10_000))
def test_ccc_bounded_by_pearson(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 30)
    xs = [rng.random() for _ in range(n)]
    ys = [rng.random() for _ in range(n)]
    if max(xs) == min(xs):
        xs[0] += 1.0
    if max(ys) == min(ys):
        ys[0] += 1.0
    import numpy as np

    rho = float(np.corrcoef(xs, ys)[0, 1])
    assert abs(ccc(xs, ys)) <= abs(rho) + 1e-12
    assert ccc(xs, xs) == pytest.approx(1.0, abs=1e-12)


# --- deterministic sampling ---------------------------------------------------


def test_derive_substream_seed_is_stable_and_distinct():
    a = derive_substream_seed(42, "T1", 0)
    assert a == derive_substream_seed(42, "T1", 0)
    assert a != derive_substream_seed(42, "T1", 1)
    assert a != derive_substream_seed(42, "T2", 0)
    assert a != derive_substream_seed(43, "T1", 0)
    assert 0 <= a < 2**64


def test_stable_sample_properties():
    pool = [f"d{i}" for i in range(20)]
    rng = random.Random(123)
    picked = stable_sample(pool, 5, rng)
    assert len(picked) == 5 and len(set(picked)) == 5
    assert set(picked) <= set(pool)
    assert stable_sample(pool, 5, random.Random(123)) == picked
    with pytest.raises(ValueError):
        stable_sample(pool, 21, rng)


# --- classification test ------------------------------------------------------


def _fake_score(a: str, b: str) -> float:
    # deterministic, symmetric, no Python hash involvement
    key = (a, b) if a <= b else (b, a)
    return (sum(key[0].encode()) * 31 + sum(key[1].encode())) % 997 / 997


def _toy_judgements(n_rel=4, n_not=4, topics=("T1", "T2")):
    out = []
    for t in topics:
        for i in range(n_rel):
            out.append(J(t, f"{t}r{i}", 2))
        for i in range(n_not):
            out.append(J(t, f"{t}n{i}", 0))
    return out


def test_classification_deterministic_across_workers():
    judgements = _toy_judgements()
    kwargs = dict(iterations=5, sample_size=2, seed=9)
    base = classification_test(judgements, _fake_score, **kwargs)
    assert classification_test(judgements, _fake_score, **kwargs) == base
    assert base.total == 5 * 2 * (8 - 4)  # iterations * topics * unsampled docs


def test_classification_rejects_small_topic():
    judgements = _toy_judgements(n_rel=1, n_not=4)
    with pytest.raises(VocabrelError) as err:
        classification_test(judgements, _fake_score, iterations=2, sample_size=2)
    assert "too small to sample" in str(err.value)


def test_classification_rejects_unfiltered_judgements():
    judgements = _toy_judgements() + [J("T1", "maybe", 1)]
    with pytest.raises(ValueError):
        classification_test(judgements, _fake_score, iterations=1, sample_size=2)


def test_classification_rejects_bad_counts():
    with pytest.raises(ValueError):
        classification_test(_toy_judgements(), _fake_score, iterations=0)


def test_classification_tie_goes_to_not_relevant():
    # constant scorer: every comparison ties, so every prediction is "not
    # relevant"; relevant docs become false negatives
    judgements = _toy_judgements(n_rel=3, n_not=3, topics=("T1",))
    conf = classification_test(
        judgements, lambda a, b: 0.5, iterations=1, sample_size=2, seed=0
    )
    assert conf.tp == 0 and conf.fp == 0
    assert conf.fn + conf.tn == conf.total == 2


def test_classification_takes_the_larger_max_similarity_not_the_sum():
    # T1 holds 3 relevant docs and exactly 2 not-relevant ones, so every
    # iteration seeds with both not-relevant docs and 2 of the 3 relevant
    # ones, and classifies the remaining relevant doc.  Against its seeds it
    # scores 0.4 with each relevant seed (max 0.4, sum 0.8) and 0.5 / 0.0
    # with the not-relevant seeds (max 0.5, sum 0.5): the max rule predicts
    # not relevant (a false negative), the sum rule would predict relevant.
    # T2 mirrors it, so its remaining not-relevant doc is a false positive
    # under the max rule and a true negative under the sum rule.
    judgements = [J("T1", f"T1r{i}", 2) for i in range(3)] + [J("T1", f"T1n{i}", 0) for i in range(2)]
    judgements += [J("T2", f"T2r{i}", 2) for i in range(2)] + [J("T2", f"T2n{i}", 0) for i in range(3)]
    by_seed = {"T1n0": 0.5, "T1n1": 0.0, "T2r0": 0.5, "T2r1": 0.0}

    def score(doc: str, seed: str) -> float:
        return by_seed.get(seed, 0.4)

    conf = classification_test(judgements, score, iterations=3, sample_size=2, seed=5)
    assert conf == Confusion(tp=0, fp=3, tn=0, fn=3)


def test_classification_matches_the_naive_loop():
    # asymmetric scores drawn from five values, so maxima often tie
    for world in range(30):
        rng = random.Random(world)
        sample_size = rng.randint(1, 3)
        judgements = []
        for t in range(rng.randint(1, 3)):
            n_rel = rng.randint(sample_size, sample_size + 4)
            n_not = rng.randint(sample_size, sample_size + 4)
            judgements += _toy_judgements(n_rel, n_not, topics=(f"T{t}",))
        topics: dict = {}
        for j in judgements:
            topics.setdefault(j.topic, {})[j.doc] = j.level == Level.RELEVANT
        table: dict = {}

        def score(doc: str, seed: str) -> float:
            return table.setdefault((doc, seed), rng.choice((0.0, 0.25, 0.5, 0.75, 1.0)))

        def draw(topic: str, iteration: int):
            docs = sorted(topics[topic])
            r = random.Random(derive_substream_seed(world, topic, iteration))
            rel = stable_sample([d for d in docs if topics[topic][d]], sample_size, r)
            return rel, stable_sample([d for d in docs if not topics[topic][d]], sample_size, r)

        conf = classification_test(
            judgements, score, iterations=4, sample_size=sample_size, seed=world
        )
        expected = oracles.naive_classification(topics, draw, score, iterations=4)
        assert (conf.tp, conf.fp, conf.tn, conf.fn) == expected


def _counting(score_fn):
    asked: Counter = Counter()

    def counted(a, b):
        asked[a, b] += 1
        return score_fn(a, b)

    return counted, asked


def test_classification_asks_each_ordered_pair_at_most_once():
    judgements = _toy_judgements()
    score, asked = _counting(_fake_score)
    classification_test(judgements, score, iterations=5, sample_size=2, seed=9)
    topic = {j.doc: j.topic for j in judgements}
    assert asked and max(asked.values()) == 1
    assert all(topic[a] == topic[b] and a != b for a, b in asked)


def test_classification_of_a_topic_that_is_all_seeds_asks_nothing():
    score, asked = _counting(_fake_score)
    judgements = _toy_judgements(n_rel=2, n_not=2)
    conf = classification_test(judgements, score, iterations=3, sample_size=2)
    assert conf.total == 0 and not asked


# --- end-to-end benchmark ----------------------------------------------------


@pytest.fixture(scope="session")
def filtered_synth(synth_world):
    _, _, judgements = synth_world
    kept, dropped = filter_topics(judgements)
    assert not dropped
    return kept


def test_run_benchmark_salton(synth_world, filtered_synth):
    _, corpus, _ = synth_world
    scorer = Scorer(config=MethodConfig("salton"))
    dump: tuple = ([], [])
    result = run_benchmark(
        corpus, filtered_synth, scorer, iterations=2, sample_size=5, seed=1, dump=dump
    )
    pairs = build_pairs(filtered_synth)
    assert result.n_same == len(pairs.same_topic) == len(dump[0])
    assert result.n_separate == len(pairs.separate_topic) == len(dump[1])
    assert result.n_errors == 0
    assert -1.0 <= result.delta <= 1.0
    assert result.n_classifications > 0


def test_run_benchmark_reproducible(synth_world, filtered_synth):
    _, corpus, _ = synth_world
    def run():
        scorer = Scorer(config=MethodConfig("salton", vector="binary", w=3))
        return run_benchmark(
            corpus, filtered_synth, scorer,
            iterations=2, sample_size=5, seed=7,
        )
    a, b = run(), run()
    assert (a.delta, a.phi, a.mean_same, a.mean_separate) == (
        b.delta, b.phi, b.mean_same, b.mean_separate
    )


def _counting_scorer(scorer: Scorer) -> Counter:
    """Count each document pair asked of ``scorer``, through ``score`` or ``score_pairs``.

    A call made inside a counted one (``score`` scores a batch of one) is not counted again.
    """
    asked: Counter = Counter()
    busy = []

    def counting(fn, pairs_of):
        def counted(*args):
            if not busy:
                asked.update(pair_key(a.id, b.id) for a, b in pairs_of(*args))
            busy.append(fn)
            try:
                return fn(*args)
            finally:
                busy.pop()

        return counted

    scorer.score = counting(scorer.score, lambda a, b: [(a, b)])
    scorer.score_pairs = counting(scorer.score_pairs,
                                  lambda docs, a, b: [(docs[i], docs[j]) for i, j in zip(a, b)])
    return asked


def test_run_benchmark_scores_each_document_pair_at_most_once(synth_world, filtered_synth):
    _, corpus, _ = synth_world
    scorer = Scorer(config=MethodConfig("salton"))
    per_pair = _counting_scorer(scorer)
    run_benchmark(corpus, filtered_synth, scorer, iterations=5, sample_size=5, seed=3)
    assert per_pair and max(per_pair.values()) == 1


def test_score_source_memoizes_and_reports_missing():
    corpus = make_corpus(make_doc("d1", ["t1"]), make_doc("d2", ["t1", "t2"]))
    scorer = Scorer(config=MethodConfig("salton"))
    asked = _counting_scorer(scorer)
    source = ScoreSource(corpus, scorer)
    assert source("d1", "d2") == source("d2", "d1")
    for pair in [("d1", "ghost"), ("ghost", "d2")]:  # not asked of the scorer; the text pairwise_scores gives
        with pytest.raises(MissingDataError, match="^document 'ghost' is not in the corpus$"):
            source(*pair)
    errors: list = []
    assert list(pairwise_scores(corpus, [("ghost", "d2")], scorer, errors)) == []
    assert errors == [("ghost", "d2", "document 'ghost' is not in the corpus")]
    assert asked == Counter({("d1", "d2"): 1})


def test_score_source_raises_a_failing_pairs_error_each_time_and_asks_the_scorer_once():
    corpus = make_corpus(make_doc("d1", []), make_doc("d2", ["t1", "t2"]))
    scorer = Scorer(config=MethodConfig("salton"))
    asked = _counting_scorer(scorer)
    source = ScoreSource(corpus, scorer)
    raised = []
    for a, b in [("d1", "d2"), ("d2", "d1")]:
        with pytest.raises(VocabrelError) as exc:
            source(a, b)
        raised.append((type(exc.value), str(exc.value)))
    assert raised[0] == raised[1] and raised[0][0] is not MissingDataError
    assert asked == Counter({("d1", "d2"): 1})


@pytest.mark.parametrize("config", [MethodConfig("soft", graph="g1", lam=1.0), MethodConfig("mts", graph="g1", lam=1.0)])
def test_score_source_fill_with_no_new_pair_scores_nothing(config):
    corpus = make_corpus(make_doc("d1", ["t1"]), make_doc("d2", ["t1", "t2"]))
    matrix = SimMatrix(kind="g1", lam=1.0, eps=1e-4, n=2, entries={("t1", "t2"): 0.5})
    scorer = Scorer(config=config, matrix=matrix)
    values, errors = scorer.score_pairs([], [], [])
    assert len(values) == 0 and errors == {}
    source = ScoreSource(corpus, scorer)
    assert source("d1", "d2") == scorer.score(corpus.documents["d1"], corpus.documents["d2"])
    with pytest.raises(MissingDataError):
        source("d1", "ghost")


def test_run_benchmark_with_one_judged_document_per_topic_fills_nothing(synth_world):
    _, corpus, _ = synth_world
    ids = sorted(corpus.documents)[:2]
    judgements = [J("T1", ids[0], 2), J("T2", ids[1], 0)]
    matrix = SimMatrix(kind="g1", lam=1.0, eps=1e-4, n=0, entries={})
    with pytest.raises(VocabrelError, match="needs both pair populations"):
        run_benchmark(corpus, judgements, Scorer(config=MethodConfig("mts", graph="g1", lam=1.0), matrix=matrix))


def _bench_outcome(run) -> tuple:
    """A benchmark cell's every field, floats as hex, or the type and message of its fatal error."""
    try:
        result = run()
    except VocabrelError as exc:
        return type(exc), str(exc)
    values = (getattr(result, f.name) for f in dataclasses.fields(result))
    return tuple(v.hex() if isinstance(v, float) else v for v in values)


def _per_pair_benchmark(corpus, judgements, scorer, **protocol) -> BenchResult:
    """``run_benchmark`` as every pair asked alone: no batch, no table, and a plain score function."""
    source = ScoreSource(corpus, scorer)
    pairs = build_pairs(judgements)
    errors: list = []
    same: list = []
    separate: list = []
    for triples, scores in [(pairs.same_topic, same), (pairs.separate_topic, separate)]:
        for topic, a, b in triples:
            try:
                scores.append(source(a, b))
            except VocabrelError as exc:
                errors.append(f"{topic}/{a}/{b}: {exc}")
    log_skipped(errors)
    confusion = classification_test(judgements, lambda a, b: source(a, b), **protocol)
    return BenchResult(
        config=scorer.config, phi=mcc(confusion), **separation_stats(same, separate),
        n_same=len(same), n_separate=len(separate), n_errors=len(errors),
        n_classifications=confusion.total,
    )


BENCH_CONFIGS = [
    MethodConfig("salton", vector="ic", w=2),
    MethodConfig("soft", graph="g1", lam=1.0, w=4),
    MethodConfig("soft", vector="ic", graph="dic", lam=1.0, w=3),
    MethodConfig("mts", graph="g1", lam=1.0, w=16),
    MethodConfig("mts", graph="dic", lam=2.0, w=2, slim=True),
    MethodConfig.from_label("mts-rawdist", graph="dic", lam=2.0, w=2),
]


def _flawed_world(synth_world, filtered_synth, flaw: str):
    """The first two topics of the synthetic world, two documents of the first given ``flaw``.

    Returns the vocabulary, the flawed corpus and the two topics' judgements.
    """
    vocab, corpus, _ = synth_world
    topics = sorted({j.topic for j in filtered_synth})[:2]
    judgements = [j for j in filtered_synth if j.topic in topics]
    docs = dict(corpus.documents)
    first_topic = sorted(j.doc for j in judgements if j.topic == topics[0])
    for victim in (first_topic[2], first_topic[-3]):  # two, so that which fails first shows
        if flaw == "empty-document":
            docs[victim] = Document(id=victim, annotations=())
        elif flaw == "slim-document":  # no major terms: slim mts fails on it, the rest score it
            docs[victim] = Document(id=victim, annotations=tuple(
                dataclasses.replace(a, is_major=False) for a in docs[victim].annotations))
        elif flaw == "missing-document":
            del docs[victim]
    return vocab, Corpus(documents=docs), judgements


FLAWS = ["none", "empty-document", "slim-document", "missing-document"]
FLAW_PROTOCOL = {"iterations": 4, "sample_size": 3, "seed": 11}


@pytest.mark.parametrize("flaw", FLAWS)
def test_run_benchmark_equals_the_per_pair_path(synth_world, filtered_synth, flaw):
    vocab, corpus, judgements = _flawed_world(synth_world, filtered_synth, flaw)
    artifacts = ArtifactSet(vocab=vocab, corpus=corpus)
    protocol = FLAW_PROTOCOL
    for config in BENCH_CONFIGS:
        batched = _bench_outcome(lambda: run_benchmark(corpus, judgements, artifacts.scorer(config), **protocol))
        alone = _bench_outcome(lambda: _per_pair_benchmark(corpus, judgements, artifacts.scorer(config), **protocol))
        assert batched == alone, config.tag()
        assert isinstance(batched[0], type) == (flaw != "none" and (flaw != "slim-document" or config.slim))


def _skipped_lines(caplog) -> list[str]:
    lines = [r.getMessage() for r in caplog.records if r.name == "vocabrel.benchmark"]
    caplog.clear()
    return [line for line in lines if line.startswith(("pair skipped: ", "... and "))]


@pytest.mark.parametrize("flaw", ["empty-document", "missing-document"])
def test_run_benchmark_logs_the_skipped_pairs_of_the_per_pair_path(synth_world, filtered_synth, flaw, caplog):
    vocab, corpus, judgements = _flawed_world(synth_world, filtered_synth, flaw)
    artifacts = ArtifactSet(vocab=vocab, corpus=corpus)
    caplog.set_level("WARNING", logger="vocabrel.benchmark")
    for config in BENCH_CONFIGS:
        _bench_outcome(lambda: run_benchmark(corpus, judgements, artifacts.scorer(config), **FLAW_PROTOCOL))
        batched = _skipped_lines(caplog)
        _bench_outcome(lambda: _per_pair_benchmark(corpus, judgements, artifacts.scorer(config), **FLAW_PROTOCOL))
        alone = _skipped_lines(caplog)
        assert batched == alone, config.tag()
        assert len(batched) == 11 and batched[-1].startswith("... and "), config.tag()


def test_a_pair_judged_under_two_topics_is_scored_once_and_enters_both_populations():
    docs = {"a": ["t1", "t2"], "b": ["t2", "t3"], "c": ["t1"], "d": ["t3", "t4"], "e": ["t2", "t4"],
            "f": ["t4"]}
    corpus = make_corpus(*(make_doc(d, terms) for d, terms in docs.items()))
    levels = {"T1": {"a": 2, "b": 2, "c": 0, "d": 0},  # a, b relevant: a same-topic pair
              "T2": {"a": 2, "b": 0, "e": 2, "f": 0},  # a relevant, b not: a separate-topic pair
              "T3": {"a": 0, "b": 0, "c": 2, "e": 2}}  # neither relevant: in no population
    judgements = [J(t, d, level) for t, by_doc in levels.items() for d, level in by_doc.items()]
    pairs = build_pairs(judgements)
    assert ("T1", "a", "b") in pairs.same_topic and ("T2", "a", "b") in pairs.separate_topic
    assert ("T3", "a", "b") not in pairs.same_topic + pairs.separate_topic
    matrix = SimMatrix(kind="g1", lam=1.0, eps=1e-4, n=4, entries={("t1", "t2"): 0.5, ("t3", "t4"): 0.25})
    protocol = {"iterations": 3, "sample_size": 1, "seed": 2}
    for config in [MethodConfig("salton"), MethodConfig("soft", graph="g1", lam=1.0),
                   MethodConfig("mts", graph="g1", lam=1.0)]:
        scorer = Scorer(config=config, matrix=None if config.method == "salton" else matrix)
        asked = _counting_scorer(scorer)
        dump: tuple = ([], [])
        batched = _bench_outcome(lambda: run_benchmark(corpus, judgements, scorer, dump=dump, **protocol))
        assert not isinstance(batched[0], type), batched
        assert asked[("a", "b")] == 1 and max(asked.values()) == 1, config.tag()
        ab = scorer.score(corpus.documents["a"], corpus.documents["b"]).hex()
        assert dump[0][pairs.same_topic.index(("T1", "a", "b"))].hex() == ab
        assert dump[1][pairs.separate_topic.index(("T2", "a", "b"))].hex() == ab
        fresh = Scorer(config=config, matrix=scorer.matrix)
        assert batched == _bench_outcome(lambda: _per_pair_benchmark(corpus, judgements, fresh, **protocol))


@pytest.mark.parametrize("flaw", FLAWS)
def test_run_benchmark_asks_the_scorer_once_for_each_within_topic_pair(synth_world, filtered_synth, flaw):
    vocab, corpus, judgements = _flawed_world(synth_world, filtered_synth, flaw)
    artifacts = ArtifactSet(vocab=vocab, corpus=corpus)
    topics: dict = {}
    for j in judgements:
        topics.setdefault(j.topic, []).append(j.doc)
    # a pair naming a document the corpus lacks is never asked
    within = {pair for docs in topics.values() for pair in itertools.combinations(sorted(docs), 2)
              if all(d in corpus.documents for d in pair)}
    for config in BENCH_CONFIGS:
        scorer = artifacts.scorer(config)
        asked = _counting_scorer(scorer)
        _bench_outcome(lambda: run_benchmark(corpus, judgements, scorer, **FLAW_PROTOCOL))
        assert set(asked) == within and max(asked.values()) == 1, config.tag()


def test_classification_asks_a_score_source_only_what_it_lacks_in_loop_order(
        synth_world, filtered_synth, monkeypatch):
    # classification keeps its own table per topic: a score source is a plain score
    # function, asked for each cell its topic needs once, whatever its memo holds
    _, corpus, _ = synth_world
    iterations, sample_size, seed = 4, 3, 5
    pairs = list(itertools.combinations(sorted({j.doc for j in filtered_synth}), 2))
    random.Random(5).shuffle(pairs)
    source = ScoreSource(corpus, Scorer(config=MethodConfig("salton")))
    for a, b in pairs[: len(pairs) // 2]:
        source(a, b)
    topics: dict = {}
    for j in filtered_synth:
        topics.setdefault(j.topic, {})[j.doc] = j.level == Level.RELEVANT

    def draw(topic: str, iteration: int):
        docs = sorted(topics[topic])
        r = random.Random(derive_substream_seed(seed, topic, iteration))
        rel = stable_sample([d for d in docs if topics[topic][d]], sample_size, r)
        return rel, stable_sample([d for d in docs if not topics[topic][d]], sample_size, r)

    # the naive loop's first ask of each ordered pair, topic by topic; nothing is carried across topics
    expected, plain = [], ScoreSource(corpus, Scorer(config=MethodConfig("salton")))
    totals = []
    for topic in sorted(topics):
        loop: dict = {}
        totals.append(oracles.naive_classification(
            {topic: topics[topic]}, draw, lambda a, b: loop.setdefault((a, b), plain(a, b)), iterations))
        expected += list(loop)
    asked: list = []
    call = ScoreSource.__call__
    monkeypatch.setattr(ScoreSource, "__call__", lambda self, a, b: asked.append((a, b)) or call(self, a, b))
    confusion = classification_test(filtered_synth, source, iterations=iterations,
                                    sample_size=sample_size, seed=seed)
    assert asked == expected
    assert (confusion.tp, confusion.fp, confusion.tn, confusion.fn) == tuple(map(sum, zip(*totals)))


def test_parameter_sweep_continues_after_failing_cell(synth_world, filtered_synth):
    vocab, corpus, _ = synth_world
    # drop all major flags from one topic's documents so slim MTS fails there
    docs = {}
    for doc_id, doc in corpus.documents.items():
        if doc_id.startswith("T0"):
            from vocabrel.model import Annotation, Document

            docs[doc_id] = Document(
                id=doc_id,
                annotations=tuple(
                    Annotation(term=a.term, is_major=False, qualifiers=a.qualifiers)
                    for a in doc.annotations
                ),
            )
        else:
            docs[doc_id] = doc
    broken = make_corpus(*docs.values())
    artifacts = ArtifactSet(vocab=vocab, corpus=broken)
    configs = [
        MethodConfig("mts", graph="g1", lam=1.0, slim=True),
        MethodConfig("salton"),
    ]
    results = parameter_sweep(
        configs, artifacts, filtered_synth, iterations=1, sample_size=5, seed=0
    )
    assert len(results) == 2
    assert results[0].note and math.isnan(results[0].delta)
    assert not results[1].note and not math.isnan(results[1].delta)


def test_artifact_set_caches_and_guards(synth_world):
    vocab, corpus, _ = synth_world
    artifacts = ArtifactSet(vocab=vocab, corpus=corpus)
    assert artifacts.ic_table() is artifacts.ic_table()
    assert artifacts.matrix("g1", 1.0) is artifacts.matrix("g1", 1.0)
    assert artifacts.matrix("g1", 1.0) is not artifacts.matrix("g1", 2.0)
    with pytest.raises(VocabrelError):
        ArtifactSet(vocab=vocab).ic_table()
    with pytest.raises(VocabrelError):
        parameter_sweep([MethodConfig("salton")], ArtifactSet(vocab=vocab), [])


def test_artifact_set_keeps_its_stores_in_its_cache(synth_world, filtered_synth, tmp_path, monkeypatch, caplog):
    vocab, corpus, _ = synth_world
    cache, elsewhere = tmp_path / "cache", tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)

    def sweep(artifacts):
        return [dataclasses.asdict(r) for r in parameter_sweep(
            reference_configs(1e-4), artifacts, filtered_synth, iterations=3, sample_size=5)]

    uncached = sweep(ArtifactSet(vocab, corpus))
    assert list(tmp_path.iterdir()) == [elsewhere] and not list(elsewhere.iterdir())
    first = ArtifactSet(vocab, corpus, cache=str(cache))
    cold = sweep(first)
    stores = sorted(cache.iterdir())
    assert len(stores) == 3  # g1 and dic at lambda 1, dic at 2

    def search(*args, **kwargs):
        raise AssertionError("a cached store was searched again")

    monkeypatch.setattr(benchmark, "similarity_matrix", search)
    caplog.set_level("INFO")
    second = ArtifactSet(vocab, corpus, cache=str(cache))
    warm = sweep(second)
    assert caplog.text.count("cache hit: similarity matrix") == 3 and sorted(cache.iterdir()) == stores
    for kind, lam in (("g1", 1.0), ("dic", 1.0), ("dic", 2.0)):  # from each set's memo: nothing searches
        assert second.matrix(kind, lam).block.tobytes() == first.matrix(kind, lam).block.tobytes()
    np.testing.assert_equal(warm, cold)
    np.testing.assert_equal(uncached, cold)


def test_artifact_set_scorer_uses_the_config_eps(synth_world):
    vocab, corpus, _ = synth_world
    artifacts = ArtifactSet(vocab, corpus)
    config = MethodConfig("soft", graph="g1", lam=1.0, eps=0.3)
    assert artifacts.scorer(config).matrix.eps == 0.3
    assert artifacts.matrix("g1", 1.0).eps == artifacts.eps == 1e-4


# --- output formats -----------------------------------------------------------


def test_results_csv_format(synth_world, filtered_synth):
    _, corpus, _ = synth_world
    scorer = Scorer(config=MethodConfig("salton", vector="binary", w=3))
    result = run_benchmark(
        corpus, filtered_synth, scorer, iterations=1, sample_size=5, seed=0
    )
    buf = io.StringIO()
    write_results_csv([result], buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == (
        "method,vector,graph,w,lambda,slim,delta,phi,"
        "mean_same,mean_sep,skew_same,skew_sep,n_errors"
    )
    cells = lines[1].split(",")
    assert cells[0] == "salton"
    assert cells[1] == "binary"
    assert cells[2] == "."  # no graph for salton
    assert cells[3] == "3"
    assert cells[4] == "."  # no lambda for salton
    assert cells[12] == "0"


def test_results_csv_marks_qualifiers():
    result_cfg = MethodConfig("salton", vector="ic", qualifiers=True, w=2)
    from vocabrel.benchmark import BenchResult

    buf = io.StringIO()
    write_results_csv([BenchResult(config=result_cfg)], buf)
    row = buf.getvalue().splitlines()[1].split(",")
    assert row[1] == "ic+q"
    assert row[6] == "nan"  # unpopulated cell reads as nan, not fake zero


def test_write_distributions_format():
    buf = io.StringIO()
    write_distributions([0.5], [0.125, 0.25], buf, header_tag="demo")
    lines = buf.getvalue().splitlines()
    assert lines[0] == "#distributions demo"
    assert lines[1] == "same\t0.5"
    assert lines[2] == "separate\t0.125"
    assert len(lines) == 4
