import io
import json

import pytest

from vocabrel.benchmark import ingest_judgements
from vocabrel.errors import ParseError
from vocabrel.infocontent import load_ic_table
from vocabrel.mesh import parse_mesh_records
from vocabrel.model import (
    Annotation,
    Corpus,
    Document,
    Term,
    Vocabulary,
    leaves_first,
    parse_corpus,
    parse_vocabulary,
    read_pairs,
    serialize_corpus,
    serialize_vocabulary,
    validate,
)

from vocabrel.relatedness import read_scores

from util import make_corpus, make_doc, make_vocab


def test_vocabulary_rejects_unknown_parent():
    with pytest.raises(ParseError):
        make_vocab({"a": {"missing"}})


def test_vocabulary_rejects_self_parent():
    with pytest.raises(ValueError):
        Vocabulary({"a": Term(id="a", label="a", parents=frozenset({"a"}))})


def test_vocabulary_children_inverse_of_parents():
    vocab = make_vocab({"r": set(), "a": {"r"}, "b": {"r"}, "g": {"a", "b"}})
    assert vocab.children_of("r") == ("a", "b")
    assert vocab.children_of("a") == ("g",)
    assert vocab.children_of("g") == ()
    assert vocab.edge_count() == 4


def test_parse_vocabulary_terms_qualifiers_and_header():
    lines = [
        json.dumps({"header": {"source": "unit test"}}),
        json.dumps({"id": "r", "label": "root", "parents": []}),
        json.dumps({"id": "c", "label": "child", "parents": ["r"]}),
        json.dumps({"id": "Q1", "label": "qual", "kind": "qualifier"}),
    ]
    vocab = parse_vocabulary(lines)
    assert set(vocab.terms) == {"r", "c"}
    assert vocab.parents_of("c") == frozenset({"r"})
    assert vocab.qualifiers == frozenset({"Q1"})


def test_parse_vocabulary_reports_line_numbers():
    lines = [json.dumps({"id": "r", "label": "", "parents": []}), "{broken"]
    with pytest.raises(ParseError) as err:
        parse_vocabulary(lines)
    assert err.value.line == 2


def test_parse_vocabulary_duplicate_id():
    rec = json.dumps({"id": "r", "label": "", "parents": []})
    with pytest.raises(ParseError):
        parse_vocabulary([rec, rec])


def test_vocabulary_round_trip():
    vocab = make_vocab(
        {"r": set(), "a": {"r"}, "b": {"r", "a"}}, qualifiers={"Q1", "Q2"}
    )
    buf = io.StringIO()
    serialize_vocabulary(vocab, buf, header={"note": "round trip"})
    again = parse_vocabulary(io.StringIO(buf.getvalue()))
    assert set(again.terms) == set(vocab.terms)
    for tid in vocab.terms:
        assert again.parents_of(tid) == vocab.parents_of(tid)
    assert again.qualifiers == vocab.qualifiers


@pytest.fixture
def small_vocab():
    return make_vocab(
        {"t1": set(), "t2": set(), "t3": set()}, qualifiers={"Q1", "Q2"}
    )


def test_parse_corpus_merges_duplicate_annotations(small_vocab):
    lines = [
        json.dumps(
            {
                "id": "d1",
                "terms": [
                    {"term": "t1", "major": False, "qualifiers": ["Q1"]},
                    {"term": "t1", "major": True, "qualifiers": ["Q2"]},
                ],
            }
        )
    ]
    corpus = parse_corpus(lines, small_vocab)
    (ann,) = corpus.documents["d1"].annotations
    assert ann.is_major is True
    assert ann.qualifiers == frozenset({"Q1", "Q2"})


def test_parse_corpus_merges_duplicate_document_records(small_vocab):
    lines = [
        json.dumps({"id": "d1", "terms": [{"term": "t1", "major": False}]}),
        json.dumps({"id": "d1", "terms": [{"term": "t2", "major": True}]}),
    ]
    corpus = parse_corpus(lines, small_vocab)
    assert corpus.documents["d1"].term_ids() == ("t1", "t2")


def test_parse_corpus_strict_vs_lenient(small_vocab):
    lines = [json.dumps({"id": "d1", "terms": [{"term": "nope", "major": False}]})]
    with pytest.raises(ParseError):
        parse_corpus(lines, small_vocab, strict=True)
    stats: dict = {}
    corpus = parse_corpus(lines, small_vocab, strict=False, stats=stats)
    assert corpus.documents["d1"].is_empty
    assert stats["skipped_terms"] == 1


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"term": "t1", "major": "false"}, "'major' must be true or false"),
        ({"term": "t1", "major": 1}, "'major' must be true or false"),
        ({"term": ["t1"], "major": True}, "term entry lacks a string 'term'"),
        ({"term": "t1", "qualifiers": [["Q1"]]}, "'qualifiers' must list strings"),
    ],
    ids=["major-string", "major-int", "term-list", "qualifier-list"],
)
@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
def test_parse_corpus_rejects_mistyped_entries(tmp_path, small_vocab, entry, message, strict):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        json.dumps({"id": "d1", "terms": [{"term": "t2", "major": True}]}) + "\n"
        + json.dumps({"id": "d2", "terms": [entry]}) + "\n"
    )
    with pytest.raises(ParseError) as err:
        parse_corpus(path, small_vocab, strict=strict)
    assert str(err.value) == f"{path}:2: document 'd2': {message}"


def test_corpus_round_trip(small_vocab):
    corpus = make_corpus(
        make_doc("d1", ["t1", "t2"], majors=["t2"], qualifiers={"t1": ["Q1"]}),
        make_doc("d2", ["t3"]),
        Document(id="empty", annotations=()),
    )
    buf = io.StringIO()
    serialize_corpus(corpus, buf)
    again = parse_corpus(io.StringIO(buf.getvalue()), small_vocab)
    assert set(again.documents) == {"d1", "d2", "empty"}
    assert again.documents["d1"].annotations == corpus.documents["d1"].annotations
    assert again.empty_document_ids() == ["empty"]


def test_corpus_term_ids_union():
    corpus = make_corpus(make_doc("d1", ["t1", "t2"]), make_doc("d2", ["t2", "t3"]))
    assert corpus.term_ids() == {"t1", "t2", "t3"}


def test_validate_flags_cycles():
    # construct the cycle directly; the Vocabulary constructor allows it so
    # that validate() can report it
    terms = {
        "a": Term(id="a", label="a", parents=frozenset({"b"})),
        "b": Term(id="b", label="b", parents=frozenset({"a"})),
        "c": Term(id="c", label="c", parents=frozenset()),
    }
    report = validate(Vocabulary(terms))
    assert not report.ok
    assert sorted(report.cycles[0]) == ["a", "b"]


def test_leaves_first_puts_children_before_parents(diamond_vocab):
    order, cycle = leaves_first(diamond_vocab)
    assert cycle == []
    assert sorted(order) == sorted(diamond_vocab.terms)
    position = {tid: i for i, tid in enumerate(order)}
    for term in diamond_vocab.terms.values():
        for parent in term.parents:
            assert position[term.id] < position[parent]


def test_leaves_first_names_one_cycle_in_order():
    # k is a parent of m, which starts the cycle m > n > o > m; d hangs below n
    vocab = make_vocab({"k": set(), "m": {"k", "o"}, "n": {"m"}, "o": {"n"}, "d": {"n"}})
    order, cycle = leaves_first(vocab)
    assert order == ["d"]  # k lies above the cycle, so it cannot be ordered either
    assert cycle == ["m", "n", "o"]
    assert validate(vocab).cycles == [["m", "n", "o"]]


def test_validate_clean_dag(diamond_vocab):
    report = validate(diamond_vocab)
    assert report.ok
    assert report.n_terms == 4
    assert report.n_edges == 4


def test_read_pairs():
    lines = ["# comment", "d1\td2", "", "d3\td4"]
    assert read_pairs(lines) == [("d1", "d2"), ("d3", "d4")]
    with pytest.raises(ParseError):
        read_pairs(["d1"])


def test_document_major_term_ids():
    doc = make_doc("d", ["t1", "t2", "t3"], majors=["t2"])
    assert doc.term_ids() == ("t1", "t2", "t3")
    assert doc.major_term_ids() == ("t2",)


@pytest.mark.parametrize(
    "loader, text",
    [
        (ingest_judgements, "#topic doc level\nq1\td1\t2\nq1\td2\n"),
        (read_scores, "#method salton\nd1\td2\t0.5\nd1\td2\n"),
        (read_scores, "#method salton\nd1\td2\t0.5\n#method soft\nd1\td3\t0.1\n"),
        (read_scores, "#method salton\nd1\td2\t0.5\nd2\td1\t0.9\n"),
        (read_scores, "#method salton\nd1\td2\t0.0\nd1\td2\t-0.0\n"),
        (parse_mesh_records, "*NEWRECORD\nMH = Heart\nnot a field\n"),
        (parse_vocabulary, '{"id":"r"}\n{"id":"b","parents":["r"]}\n{"id":"a","parents":["zz"]}\n{"id":"c"}\n'),
    ],
    ids=["judgements", "scores", "scores-second-header", "scores-contradicting-pair", "scores-signed-zero",
         "mesh", "vocabulary-dangling-parent"],
)
def test_loaders_report_the_path_of_a_pathlib_source(tmp_path, loader, text):
    path = tmp_path / "bad.tsv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        loader(path)
    assert str(err.value).startswith(f"{path}:3: ")


@pytest.mark.parametrize(
    "loader", [parse_vocabulary, read_pairs, ingest_judgements, read_scores, parse_mesh_records, load_ic_table],
)
def test_loaders_reject_a_file_that_is_not_utf8_naming_it(tmp_path, loader):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"#header\nabc\t\xff\n")
    with pytest.raises(ParseError) as err:
        loader(path)
    assert str(err.value).startswith(f"{path}: ") and "not UTF-8" in str(err.value)
