import functools
import io
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from vocabrel.errors import ParseError
from vocabrel.infocontent import load_frequencies, load_ic_table, save_ic_table
from vocabrel.model import read_pairs
from vocabrel.termgraph import (
    UNREACHABLE,
    SimMatrix,
    _arrays_sha256,
    build_ic_weighted_graph,
    build_unweighted_graph,
    save_graph,
    similarity_matrix,
    single_source_distances,
)

import oracles
from util import ic_for, make_vocab, rewrite_store


def _dense_adj(graph):
    return {node: dict(nbrs) for node, nbrs in graph.adj.items()}


def test_unit_graph_distances(chain_vocab):
    graph = build_unweighted_graph(chain_vocab)
    assert graph.kind == "g1"
    assert single_source_distances(graph, "r") == {"r": 0.0, "c": 1.0, "g": 2.0}
    matrix = similarity_matrix(graph, lam=4.0, eps=0.0)
    assert matrix.sim("r", "g") == pytest.approx(math.exp(-0.5), abs=1e-15)


def test_unreachable_distance_and_similarity():
    vocab = make_vocab({"a": set(), "b": set()})
    graph = build_unweighted_graph(vocab)
    assert single_source_distances(graph, "a").get("b", UNREACHABLE) == UNREACHABLE
    assert similarity_matrix(graph, lam=1.0, eps=0.0).sim("a", "b") == 0.0


def test_similarity_matrix_rejects_bad_args(chain_vocab):
    graph = build_unweighted_graph(chain_vocab)
    for lam, eps in ((0.0, 1e-4), (-1.0, 1e-4), (1.0, -0.1), (1.0, 1.0)):
        with pytest.raises(ValueError):
            similarity_matrix(graph, lam=lam, eps=eps)


def test_ic_weighted_edge_weights(ic_fixture):
    vocab, table = ic_fixture
    graph = build_ic_weighted_graph(vocab, table)
    weights = dict(graph.adj["r"])
    assert weights["c1"] == pytest.approx(abs(table.ic["r"] - table.ic["c1"]), abs=1e-15)
    assert weights["c1"] == pytest.approx(math.log(3), abs=1e-12)
    assert graph.kind == "dic"


def test_zero_weight_edges_are_legal():
    # equal aggregates on both ends give a zero-cost edge
    vocab = make_vocab({"r": set(), "c1": {"r"}})
    table = ic_for(vocab, {"r": 0, "c1": 5})
    graph = build_ic_weighted_graph(vocab, table)
    assert single_source_distances(graph, "r")["c1"] == 0.0
    matrix = similarity_matrix(graph, lam=1.0)
    assert matrix.sim("r", "c1") == 1.0


def test_single_source_pruning_is_cost_antitone(chain_vocab):
    graph = build_unweighted_graph(chain_vocab)
    dist = single_source_distances(graph, "r", keep=lambda d: d <= 1.0)
    assert dist == {"r": 0.0, "c": 1.0}


def test_single_source_unknown_source():
    graph = build_unweighted_graph(make_vocab({"a": set()}))
    with pytest.raises(KeyError):
        single_source_distances(graph, "zzz")


def test_simmatrix_chain_entry(chain_vocab):
    graph = build_unweighted_graph(chain_vocab)
    matrix = similarity_matrix(graph, lam=1.0, eps=0.01)
    assert matrix.sim("r", "g") == pytest.approx(math.exp(-2.0), abs=1e-15)
    assert matrix.sim("g", "r") == matrix.sim("r", "g")
    assert matrix.sim("r", "r") == 1.0
    assert len(matrix) == 3  # (c,r), (c,g), (g,r)


def test_simmatrix_high_eps_keeps_only_diagonal(chain_vocab):
    graph = build_unweighted_graph(chain_vocab)
    matrix = similarity_matrix(graph, lam=1.0, eps=0.9)
    assert len(matrix) == 0
    assert matrix.sim("r", "c") == 0.0
    assert matrix.sim("r", "r") == 1.0


def test_simmatrix_restrict_limits_rows(chain_vocab):
    graph = build_unweighted_graph(chain_vocab)
    matrix = similarity_matrix(graph, lam=1.0, eps=0.01, restrict={"r"})
    assert set(matrix.entries) == {("c", "r"), ("g", "r")}
    assert matrix.sim("c", "g") == 0.0  # not materialized: no restricted source
    with pytest.raises(KeyError):
        similarity_matrix(graph, lam=1.0, restrict={"zzz"})


def _store_bytes(matrix: SimMatrix) -> bytes:
    buf = io.BytesIO()
    matrix.save(buf)
    return buf.getvalue()


def _diamond_store(diamond_vocab) -> bytes:
    return _store_bytes(similarity_matrix(build_unweighted_graph(diamond_vocab), lam=1.0, eps=0.01))


def test_simmatrix_round_trip(chain_vocab, tmp_path):
    stores = [
        similarity_matrix(build_unweighted_graph(chain_vocab), lam=0.7, eps=1e-4),
        SimMatrix(kind="dic", lam=2.0, eps=0.1, n=4, entries={("ß", "é"): 1 / 3, ("a", "日本"): 0.1 + 0.2}),
        SimMatrix(kind="g1", lam=1.0, eps=0.5, n=3, entries={}),
    ]
    path = tmp_path / "store.npz"
    for matrix in stores:
        data = _store_bytes(matrix)
        path.write_bytes(data)
        for source in (io.BytesIO(data), path):
            again = SimMatrix.load(source)
            assert again == matrix  # bit-exact entries, lambda and eps included
            assert _store_bytes(again) == data  # and the same file again


def test_simmatrix_save_rejects_an_id_numpy_would_change():
    matrix = SimMatrix(kind="g1", lam=1.0, eps=0.5, n=2, entries={("a", "b\0"): 0.6})
    with pytest.raises(ValueError, match="NUL"):
        matrix.save(io.BytesIO())  # a numpy str array drops trailing NULs


def test_simmatrix_load_rejects_missing_header(diamond_vocab):
    with np.load(io.BytesIO(_diamond_store(diamond_vocab)), allow_pickle=False) as npz:
        arrays = {name: npz[name] for name in npz.files if name != "header"}
    headless = io.BytesIO()
    np.savez(headless, **arrays)
    for not_a_store in (headless.getvalue(), b"a\tb\t0.5\n", b""):
        with pytest.raises(ParseError):
            SimMatrix.load(io.BytesIO(not_a_store))


def test_simmatrix_cut_anywhere_fails_to_load(diamond_vocab):
    data = _diamond_store(diamond_vocab)
    for cut in range(len(data)):
        with pytest.raises(ParseError):
            SimMatrix.load(io.BytesIO(data[:cut]))


def test_simmatrix_edited_anywhere_fails_to_load_or_loads_unchanged(diamond_vocab):
    data = _diamond_store(diamond_vocab)
    matrix = SimMatrix.load(io.BytesIO(data))
    for at in range(len(data)):
        edited = bytearray(data)
        edited[at] ^= 0x55
        try:
            again = SimMatrix.load(io.BytesIO(bytes(edited)))
        except ParseError:
            continue
        assert again == matrix  # only bytes that no reader uses, such as zip timestamps


@pytest.mark.parametrize("field", ["entries", "sha256"])
@pytest.mark.parametrize("as_file", [False, True], ids=["stream", "file"])
def test_simmatrix_without_an_integrity_field_fails_to_load(diamond_vocab, tmp_path, field, as_file):
    data = rewrite_store(_diamond_store(diamond_vocab), lambda header, arrays: header.pop(field))
    source = io.BytesIO(data)
    if as_file:
        source = tmp_path / "store.npz"
        source.write_bytes(data)
    with pytest.raises(ParseError, match=f"bad header field: '{field}'"):
        SimMatrix.load(source)


def _edit_similarity(header, arrays):
    arrays["sim"] = arrays["sim"].copy()
    arrays["sim"][0] /= 2


def _edit_count(header, arrays):
    header["entries"] += 1


def _drop_member(header, arrays):
    del arrays["b"]


def _wrong_dtype(header, arrays):
    arrays["sim"] = arrays["sim"].astype(str)


def _drop_graph(header, arrays):
    del header["graph"]


def _swap_terms(header, arrays):
    arrays["terms"] = arrays["terms"][[1, 0, *range(2, len(arrays["terms"]))]]
    header["sha256"] = _arrays_sha256(arrays)  # a store written out of order, not a damaged one


@pytest.mark.parametrize(
    "edit, message",
    [
        (_edit_similarity, "arrays do not match the header's sha256"),
        (_edit_count, "array 'a' is not 7 entries"),
        (_drop_member, "unreadable store: "),
        (_wrong_dtype, "array 'sim' is not 6 entries of kind 'f'"),
        (_drop_graph, "bad header field: 'graph'"),
        (_swap_terms, "term ids are not strictly increasing"),
    ],
    ids=["similarity", "entry-count", "member", "dtype", "header-field", "terms-order"],
)
def test_simmatrix_edited_store_fails_to_load(diamond_vocab, tmp_path, edit, message):
    path = tmp_path / "store.npz"
    path.write_bytes(rewrite_store(_diamond_store(diamond_vocab), edit))
    with pytest.raises(ParseError) as err:
        SimMatrix.load(path)
    assert str(err.value).startswith(f"{path}: {message}")


def test_simmatrix_export_is_sorted_text(diamond_vocab):
    matrix = similarity_matrix(build_unweighted_graph(diamond_vocab), lam=1.0, eps=0.01)
    buf = io.StringIO()
    matrix.export(buf)
    header, *lines = buf.getvalue().splitlines()
    assert header == f"#simmatrix graph=g1 lambda=1 entries={len(matrix)} eps=0.01 n={matrix.n}"
    rows = [line.split("\t") for line in lines]
    assert [(a, b) for a, b, _ in rows] == sorted(matrix.entries)
    assert {(a, b): float(s) for a, b, s in rows} == matrix.entries  # %.17g: bit-exact


def test_ic_table_cut_anywhere_fails_to_load_or_loads_unchanged(ic_fixture):
    _, table = ic_fixture
    buf = io.StringIO()
    save_ic_table(table, buf)
    text = buf.getvalue()
    for cut in range(len(text)):
        try:
            again = load_ic_table(io.StringIO(text[:cut]))
        except ParseError:
            continue
        assert (again.ic, again.aggregate) == (table.ic, table.aggregate)


@pytest.mark.parametrize(
    "loader, text, line",
    [
        (load_ic_table, "#ictable n=1 denominator=3\nt1\t3.5\t0.0\n", 2),
        (
            functools.partial(load_frequencies, vocab=make_vocab({"t1": set()})),
            "# term count\nt1\t3\nt1\tmany\n",
            3,
        ),
        (
            functools.partial(load_frequencies, vocab=make_vocab({"t1": set(), "t2": set()})),
            "t1\t3\nt2\t5\nt1\t7\n",
            3,
        ),
        (read_pairs, "d1\td2\nd1 d3\n", 2),
    ],
    ids=[
        "ic-aggregate", "freq-count", "freq-duplicate", "pairs-columns",
    ],
)
def test_loaders_report_path_and_line(tmp_path, loader, text, line):
    path = tmp_path / "artifact.tsv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        loader(path)
    assert str(err.value).startswith(f"{path}:{line}: ")


def test_save_graph_text(ic_fixture):
    vocab, table = ic_fixture
    for graph in (build_unweighted_graph(vocab), build_ic_weighted_graph(vocab, table)):
        buf = io.StringIO()
        save_graph(graph, buf)
        header, *lines = buf.getvalue().splitlines()
        assert header == f"#termgraph kind={graph.kind} n={len(graph)}"
        nodes = [line.split("\t")[1] for line in lines if line.startswith("n\t")]
        assert nodes == sorted(graph.adj)
        edges = {}
        for line in lines[len(nodes) :]:
            tag, a, b, weight = line.split("\t")
            assert tag == "e" and a < b and (a, b) not in edges
            edges[(a, b)] = float(weight)  # %.17g: bit-exact
        expected = {
            (min(a, b), max(a, b)): w for a, nbrs in graph.adj.items() for b, w in nbrs
        }
        assert edges == expected and len(edges) == graph.edge_count()


def _random_graphs(seed):
    rng = random.Random(seed)
    parents = oracles.random_dag_parents(rng, max_nodes=9)
    vocab = make_vocab(parents)
    counts = {t: rng.randint(0, 4) for t in parents}
    counts[next(iter(counts))] += 1
    table = ic_for(vocab, counts)
    return build_unweighted_graph(vocab), build_ic_weighted_graph(vocab, table)


@given(st.integers(0, 10_000))
def test_distances_match_floyd_warshall(seed):
    for graph in _random_graphs(seed):
        adj = _dense_adj(graph)
        expected = oracles.floyd_warshall(sorted(adj), adj)
        for src in sorted(adj):
            dist = single_source_distances(graph, src)
            for node in adj:
                assert dist.get(node, UNREACHABLE) == pytest.approx(
                    expected[src][node], abs=1e-12
                )


@given(st.integers(0, 10_000))
def test_triangle_inequality(seed):
    for graph in _random_graphs(seed):
        nodes = sorted(graph.adj)
        dist = {a: single_source_distances(graph, a) for a in nodes}
        for a in nodes:
            for b in nodes:
                for c in nodes:
                    dab = dist[a].get(b, UNREACHABLE)
                    dbc = dist[b].get(c, UNREACHABLE)
                    dac = dist[a].get(c, UNREACHABLE)
                    if dab < UNREACHABLE and dbc < UNREACHABLE:
                        assert dac <= dab + dbc + 1e-9


@given(st.integers(0, 10_000), st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.1, 0.01]))
# dic graphs whose path sums between two terms differ by one ulp in the two directions,
# one of them just above eps and the other at or below it
@example(9825, 1.0, 0.01)
@example(490, 2.0, 0.1)
def test_pruned_matrix_equals_unpruned(seed, lam, eps):
    for graph in _random_graphs(seed):
        pruned = similarity_matrix(graph, lam=lam, eps=eps)
        full = similarity_matrix(graph, lam=lam, eps=0.0)
        surviving = {k: s for k, s in full.entries.items() if s > eps}
        assert dict(pruned.entries) == surviving  # bitwise: same dist, same exp


@given(st.integers(0, 10_000), st.sampled_from([0.5, 1.0, 2.0]), st.sampled_from([0.0, 0.01, 0.1]),
       st.one_of(st.none(), st.integers(0, 2**32)))
# the dic graphs of test_pruned_matrix_equals_unpruned's examples
@example(9825, 1.0, 0.01, None)
@example(490, 2.0, 0.1, None)
def test_store_equals_the_scalar_searches_bit_for_bit(seed, lam, eps, subset):
    # about a third of the dic graphs hold zero-weight edges
    for graph in _random_graphs(seed):
        restrict = None
        if subset is not None:  # a random set of sources, possibly empty
            rng = random.Random(subset)
            restrict = rng.sample(sorted(graph.adj), rng.randint(0, len(graph.adj)))
        store = similarity_matrix(graph, lam=lam, eps=eps, restrict=restrict)
        expected = oracles.scalar_store(graph.adj, graph.kind == "g1", lam, eps, restrict)
        assert {key: s.hex() for key, s in store.entries.items()} == {key: s.hex() for key, s in expected.items()}
        search = oracles.bfs_distances if graph.kind == "g1" else oracles.dijkstra_distances
        keep = (lambda d: math.exp(-d / lam) > eps) if eps > 0 else None
        for src in graph.adj:
            got = single_source_distances(graph, src, keep=keep)
            assert {t: d.hex() for t, d in got.items()} == {t: d.hex() for t, d in search(graph.adj, src, keep).items()}


def test_similarity_monotonicity():
    # antitone in distance, isotone in lambda: t0 - t1 - ... - t5 is a chain
    parents = {f"t{i}": {f"t{i - 1}"} if i else set() for i in range(6)}
    chain = build_unweighted_graph(make_vocab(parents))
    matrices = {lam: similarity_matrix(chain, lam=lam, eps=0.0) for lam in (0.25, 1.0, 2.0, 8.0)}
    for matrix in matrices.values():
        sims = [matrix.sim("t0", f"t{i}") for i in range(6)]
        assert sims == sorted(sims, reverse=True)
        assert sims[0] == 1.0
    for i in (1, 2, 5):
        sims = [matrices[lam].sim("t0", f"t{i}") for lam in sorted(matrices)]
        assert sims == sorted(sims)
