"""TaskGraph orders against a networkx oracle.

:class:`~repro.taskgraph.graph.TaskGraph` keeps its own adjacency maps
and sorts with Kahn's algorithm so that the package imports without
networkx; every order it returns must still be the one a
``networkx.DiGraph`` built from the same nodes and edges gives, since
the simulator breaks ties by these orders.
"""

import ast
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TaskGraphError
from repro.taskgraph.graph import TaskGraph, TaskNode

nx = pytest.importorskip("networkx")


def random_edges(rng, names, p):
    """A shuffled DAG edge list over ``names`` with some duplicates."""
    rank = {n: i for i, n in enumerate(rng.sample(names, len(names)))}
    edges = [
        (u, v)
        for u in names
        for v in names
        if rank[u] < rank[v] and rng.random() < p
    ]
    edges += [rng.choice(edges) for _ in range(len(edges) // 3)]
    rng.shuffle(edges)
    return edges


def build(seed, n, p):
    rng = random.Random(seed)
    names = [f"t{i}" for i in rng.sample(range(n), n)]
    edges = random_edges(rng, names, p)
    nodes = [TaskNode(name, 1.0 + i) for i, name in enumerate(names)]
    oracle = nx.DiGraph()
    oracle.add_nodes_from(names)
    oracle.add_edges_from(edges)
    return TaskGraph("g", nodes, edges), oracle, nodes, edges


dags = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 24),
    p=st.floats(min_value=0.0, max_value=0.6),
)


@given(**dags)
@settings(max_examples=200, deadline=None)
def test_orders_match_networkx(seed, n, p):
    g, oracle, _, _ = build(seed, n, p)
    assert g.topological_order() == tuple(nx.topological_sort(oracle))
    assert g.edges() == tuple(oracle.edges())
    for name in oracle:
        assert g.predecessors(name) == tuple(oracle.predecessors(name))
        assert g.successors(name) == tuple(oracle.successors(name))
    topo = g.topological_order()
    assert g.sources() == tuple(
        v for v in topo if oracle.in_degree(v) == 0
    )
    assert g.sinks() == tuple(v for v in topo if oracle.out_degree(v) == 0)


@given(**dags)
@settings(max_examples=50, deadline=None)
def test_as_networkx_keeps_node_and_edge_order(seed, n, p):
    g, oracle, nodes, _ = build(seed, n, p)
    h = g.as_networkx()
    assert list(h.nodes) == list(oracle.nodes)
    assert list(h.edges) == list(oracle.edges)
    assert [h.nodes[v.name]["wcet"] for v in nodes] == [
        v.wcet for v in nodes
    ]


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24))
@settings(max_examples=100, deadline=None)
def test_a_cyclic_edge_list_names_one_cycle(seed, n):
    _, _, nodes, edges = build(seed, n, 0.4)
    rng = random.Random(seed)
    if not edges:
        edges = [(nodes[0].name, nodes[1].name)]
    u, v = rng.choice(edges)
    cyclic = edges + [(v, u)]
    with pytest.raises(TaskGraphError, match="cycle") as info:
        TaskGraph("g", nodes, cyclic)
    cycle = ast.literal_eval(str(info.value).split("cycle ", 1)[1])
    assert cycle and set(cycle) <= set(cyclic)
    # Consecutive edges chain, and the last closes back to the first.
    heads = [b for _, b in cycle]
    tails = [a for a, _ in cycle[1:] + cycle[:1]]
    assert heads == tails


def test_networkx_missing_names_the_install(monkeypatch):
    g = TaskGraph("g", [TaskNode("a", 1.0)])
    monkeypatch.setitem(sys.modules, "networkx", None)
    with pytest.raises(ImportError, match="pip install networkx"):
        g.as_networkx()
