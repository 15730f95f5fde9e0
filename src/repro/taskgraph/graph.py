"""Directed-acyclic task-graph model.

A :class:`TaskGraph` is the paper's unit of work: a DAG whose nodes are
tasks with worst-case computation requirements (in cycles) and whose
edges are precedence constraints.  All tasks in a graph share the
graph's deadline; the graph is released periodically (see
:mod:`repro.taskgraph.periodic`).

The model is deliberately minimal and immutable after construction:
runtime bookkeeping (remaining cycles, completion state) lives in the
simulator, not here, so one graph object can back many concurrent
simulations.

The structure is two insertion-ordered adjacency maps (successors and
predecessors) on the standard library alone; the fixed topological
order is Kahn's sort by generations.  Every order a query returns
(topological, edges, predecessors, successors) is the one a
``networkx.DiGraph`` built from the same nodes and edges gives, so
networkx is needed only by :meth:`TaskGraph.as_networkx`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Sequence,
    Set,
    Tuple,
)

from ..errors import TaskGraphError

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["TaskNode", "TaskGraph"]


@dataclass(frozen=True)
class TaskNode:
    """One task (node) of a task graph.

    Parameters
    ----------
    name:
        Unique (within the graph) identifier.
    wcet:
        Worst-case computation in *cycles* at the maximum frequency.
        Must be strictly positive.
    """

    name: str
    wcet: float

    def __post_init__(self) -> None:
        if not self.name:
            raise TaskGraphError("task node needs a non-empty name")
        if not (self.wcet > 0):
            raise TaskGraphError(
                f"task {self.name!r}: wcet must be > 0, got {self.wcet!r}"
            )


class TaskGraph:
    """Immutable DAG of :class:`TaskNode` objects with precedence edges.

    Parameters
    ----------
    name:
        Identifier used in traces and error messages.
    nodes:
        The tasks.  Names must be unique.
    edges:
        ``(pred, succ)`` pairs of node *names*; ``pred`` must complete
        before ``succ`` may start.

    Raises
    ------
    TaskGraphError
        If names collide, an edge references an unknown node, or the
        edges contain a cycle.
    """

    def __init__(
        self,
        name: str,
        nodes: Sequence[TaskNode],
        edges: Iterable[Tuple[str, str]] = (),
    ) -> None:
        if not name:
            raise TaskGraphError("task graph needs a non-empty name")
        self._name = name
        self._nodes: Dict[str, TaskNode] = {}
        for node in nodes:
            if node.name in self._nodes:
                raise TaskGraphError(
                    f"graph {name!r}: duplicate task name {node.name!r}"
                )
            self._nodes[node.name] = node
        if not self._nodes:
            raise TaskGraphError(f"graph {name!r}: needs at least one task")

        # Insertion-ordered adjacency: node order, then first-seen edge
        # order, which fixes the order of every query below.
        self._succ: Dict[str, Dict[str, None]] = {n: {} for n in self._nodes}
        self._pred: Dict[str, Dict[str, None]] = {n: {} for n in self._nodes}
        for pred, succ in edges:
            for endpoint in (pred, succ):
                if endpoint not in self._nodes:
                    raise TaskGraphError(
                        f"graph {name!r}: edge references unknown task "
                        f"{endpoint!r}"
                    )
            if pred == succ:
                raise TaskGraphError(
                    f"graph {name!r}: self-loop on task {pred!r}"
                )
            self._succ[pred][succ] = None
            self._pred[succ][pred] = None
        self._topo_order: Tuple[str, ...] = self._generations_order()
        # repro: noqa[DET004] -- _nodes preserves construction order
        # (validated topologically); WCET sum order is fixed
        self._total_wcet = float(
            sum(n.wcet for n in self._nodes.values())
        )

    def _generations_order(self) -> Tuple[str, ...]:
        """Kahn's sort by generations, or a cycle error.

        Each generation is the tasks whose last predecessor was in the
        one before, in the order those predecessors release them; the
        first is the sources in node order.  This is the order
        ``networkx.topological_sort`` gives for the same graph.
        """
        indegree = {n: len(p) for n, p in self._pred.items() if p}
        generation = [n for n, p in self._pred.items() if not p]
        order: List[str] = []
        while generation:
            order.extend(generation)
            released: List[str] = []
            for node in generation:
                for child in self._succ[node]:
                    indegree[child] -= 1
                    if not indegree[child]:
                        released.append(child)
                        del indegree[child]
            generation = released
        if indegree:
            raise TaskGraphError(
                f"graph {self._name!r}: precedence edges contain a cycle "
                f"{self._cycle_among(indegree)}"
            )
        return tuple(order)

    def _cycle_among(self, blocked: Dict[str, int]) -> List[Tuple[str, str]]:
        """The edges of one cycle through the tasks Kahn's sort left.

        Every task left has a predecessor that was also left, so
        walking first predecessors from any of them must revisit one.
        """
        node = next(iter(blocked))
        seen: Dict[str, int] = {}
        path: List[str] = []
        while node not in seen:
            seen[node] = len(path)
            path.append(node)
            node = next(p for p in self._pred[node] if p in blocked)
        ring = path[seen[node]:][::-1]
        return [(u, ring[(i + 1) % len(ring)]) for i, u in enumerate(ring)]

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def total_wcet(self) -> float:
        """Sum of worst-case cycles over all tasks (the paper's ``WCi``)."""
        return self._total_wcet

    @property
    def node_names(self) -> Tuple[str, ...]:
        return self._topo_order

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[TaskNode]:
        for name in self._topo_order:
            yield self._nodes[name]

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def node(self, name: str) -> TaskNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise TaskGraphError(
                f"graph {self._name!r}: no task named {name!r}"
            ) from None

    def wcet(self, name: str) -> float:
        return self.node(name).wcet

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def predecessors(self, name: str) -> Tuple[str, ...]:
        self.node(name)
        return tuple(self._pred[name])

    def successors(self, name: str) -> Tuple[str, ...]:
        self.node(name)
        return tuple(self._succ[name])

    def edges(self) -> Tuple[Tuple[str, str], ...]:
        return tuple((u, v) for u, vs in self._succ.items() for v in vs)

    def sources(self) -> Tuple[str, ...]:
        """Tasks with no predecessors (initially ready)."""
        return tuple(n for n in self._topo_order if not self._pred[n])

    def sinks(self) -> Tuple[str, ...]:
        return tuple(n for n in self._topo_order if not self._succ[n])

    def topological_order(self) -> Tuple[str, ...]:
        """One fixed topological order of the task names."""
        return self._topo_order

    def ready_after(self, completed: Set[str]) -> Tuple[str, ...]:
        """Names of tasks whose predecessors are all in ``completed``.

        Tasks already in ``completed`` are excluded.  This is the pure
        (stateless) ready-set computation used by the simulator and by
        the exhaustive search.
        """
        out: List[str] = []
        for name in self._topo_order:
            if name in completed:
                continue
            if all(p in completed for p in self._pred[name]):
                out.append(name)
        return tuple(out)

    def is_linear_extension(self, order: Sequence[str]) -> bool:
        """``True`` iff ``order`` is a full schedule respecting precedence."""
        if sorted(order) != sorted(self._nodes):
            return False
        position = {name: i for i, name in enumerate(order)}
        return all(position[u] < position[v] for u, v in self.edges())

    def critical_path_wcet(self) -> float:
        """WCET sum along the longest (cycle-weighted) path."""
        dist: Dict[str, float] = {}
        for name in self._topo_order:
            preds = self.predecessors(name)
            base = max((dist[p] for p in preds), default=0.0)
            dist[name] = base + self._nodes[name].wcet
        return max(dist.values())

    def as_networkx(self) -> "nx.DiGraph":
        """A new ``networkx.DiGraph`` of this graph (node attr ``wcet``)."""
        try:
            import networkx as nx
        except ImportError as exc:
            raise ImportError(
                "TaskGraph.as_networkx() needs networkx, which the package "
                "does not install: pip install networkx"
            ) from exc
        g = nx.DiGraph()
        for name, node in self._nodes.items():
            g.add_node(name, wcet=node.wcet)
        g.add_edges_from(self.edges())
        return g

    # ------------------------------------------------------------------
    def relabeled(self, name: str) -> "TaskGraph":
        """A copy of this graph under a new name (shares node objects)."""
        return TaskGraph(name, list(self._nodes.values()), self.edges())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskGraph({self._name!r}, tasks={len(self)}, "
            f"edges={len(self.edges())}, "
            f"total_wcet={self._total_wcet:.6g})"
        )
