import io
import math
import random

import pytest
from hypothesis import given, strategies as st

from vocabrel.errors import ParseError
from vocabrel.infocontent import load_ic_table, save_ic_table
from vocabrel.termgraph import (
    UNREACHABLE,
    SimMatrix,
    build_ic_weighted_graph,
    build_unweighted_graph,
    distance_to_similarity,
    load_graph,
    save_graph,
    shortest_distance,
    similarity_matrix,
    single_source_distances,
)

import oracles
from util import ic_for, make_vocab


def _dense_adj(graph):
    return {node: dict(nbrs) for node, nbrs in graph.adj.items()}


def test_unit_graph_distances(chain_vocab):
    graph = build_unweighted_graph(chain_vocab)
    assert graph.unit_weights
    assert shortest_distance(graph, "r", "g") == 2.0
    assert shortest_distance(graph, "r", "r") == 0.0
    assert distance_to_similarity(2.0, lam=4.0) == pytest.approx(
        math.exp(-0.5), abs=1e-15
    )


def test_unreachable_distance_and_similarity():
    vocab = make_vocab({"a": set(), "b": set()})
    graph = build_unweighted_graph(vocab)
    assert shortest_distance(graph, "a", "b") == UNREACHABLE
    assert distance_to_similarity(UNREACHABLE, lam=1.0) == 0.0


def test_distance_to_similarity_rejects_bad_args():
    with pytest.raises(ValueError):
        distance_to_similarity(1.0, lam=0.0)
    with pytest.raises(ValueError):
        distance_to_similarity(-0.5, lam=1.0)


def test_ic_weighted_edge_weights(ic_fixture):
    vocab, table = ic_fixture
    graph = build_ic_weighted_graph(vocab, table)
    weights = dict(graph.adj["r"])
    assert weights["c1"] == pytest.approx(abs(table.ic["r"] - table.ic["c1"]), abs=1e-15)
    assert weights["c1"] == pytest.approx(math.log(3), abs=1e-12)
    assert not graph.unit_weights


def test_zero_weight_edges_are_legal():
    # equal aggregates on both ends give a zero-cost edge
    vocab = make_vocab({"r": set(), "c1": {"r"}})
    table = ic_for(vocab, {"r": 0, "c1": 5})
    graph = build_ic_weighted_graph(vocab, table)
    assert shortest_distance(graph, "r", "c1") == 0.0
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


def test_simmatrix_round_trip(chain_vocab):
    graph = build_unweighted_graph(chain_vocab)
    matrix = similarity_matrix(graph, lam=0.7, eps=1e-4)
    buf = io.StringIO()
    matrix.save(buf)
    again = SimMatrix.load(io.StringIO(buf.getvalue()))
    assert again == matrix  # bit-exact entries, lambda and eps included


def test_simmatrix_load_rejects_missing_header():
    with pytest.raises(ParseError):
        SimMatrix.load(["a\tb\t0.5"])


def test_simmatrix_cut_anywhere_fails_to_load(diamond_vocab):
    buf = io.StringIO()
    similarity_matrix(build_unweighted_graph(diamond_vocab), lam=1.0, eps=0.01).save(buf)
    text = buf.getvalue()
    for cut in range(len(text)):
        with pytest.raises(ParseError):
            SimMatrix.load(io.StringIO(text[:cut]))


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
        (SimMatrix.load, "#simmatrix graph=g1 lambda=1 eps=0.1 n=2\na\tb\tx\n", 2),
        (SimMatrix.load, "#simmatrix graph=g1 lambda\n", 1),
        (load_ic_table, "#ictable n=1 denominator=3\nt1\t3.5\t0.0\n", 2),
        (load_graph, "#termgraph kind=dic n=2\nn\ta\nn\tb\ne\ta\tb\theavy\n", 4),
    ],
    ids=["simmatrix-similarity", "simmatrix-header-field", "ic-aggregate", "graph-weight"],
)
def test_loaders_report_path_and_line(tmp_path, loader, text, line):
    path = tmp_path / "artifact.tsv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        loader(path)
    assert str(err.value).startswith(f"{path}:{line}: ")


def test_graph_round_trip(ic_fixture):
    vocab, table = ic_fixture
    for graph in (build_unweighted_graph(vocab), build_ic_weighted_graph(vocab, table)):
        buf = io.StringIO()
        save_graph(graph, buf)
        again = load_graph(io.StringIO(buf.getvalue()))
        assert again.kind == graph.kind
        assert again.unit_weights == graph.unit_weights
        assert _dense_adj(again) == _dense_adj(graph)


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
def test_pruned_matrix_equals_unpruned(seed, lam, eps):
    for graph in _random_graphs(seed):
        pruned = similarity_matrix(graph, lam=lam, eps=eps)
        full = similarity_matrix(graph, lam=lam, eps=0.0)
        surviving = {k: s for k, s in full.entries.items() if s > eps}
        assert dict(pruned.entries) == surviving  # bitwise: same dist, same exp


def test_similarity_monotonicity():
    # antitone in distance, isotone in lambda
    for lam in (0.5, 1.0, 3.0):
        sims = [distance_to_similarity(d, lam) for d in (0.0, 0.5, 1.0, 2.0, 10.0)]
        assert sims == sorted(sims, reverse=True)
        assert sims[0] == 1.0
    for d in (0.5, 1.0, 7.0):
        sims = [distance_to_similarity(d, lam) for lam in (0.25, 1.0, 2.0, 8.0)]
        assert sims == sorted(sims)
