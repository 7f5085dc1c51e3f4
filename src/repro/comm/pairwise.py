"""AD-PSGD's bipartite symmetric-exchange topology.

AD-PSGD (Lian et al., ICML'18) averages parameters pairwise and
*symmetrically*: the active worker blocks until the passive worker
replies. With arbitrary topologies that deadlocks (A waits on B waits
on C waits on A); the fix — adopted by the paper (§IV-C) — is to
split workers into an active and a passive set and only allow
active→passive exchange edges, making the wait-for graph bipartite and
therefore acyclic in the direction of blocking.

:func:`verify_deadlock_free` states that argument as a checkable
property with :mod:`networkx`: orienting every possible wait edge from
active to passive yields a DAG (in fact a 2-layer DAG). No run builds
the graph — AD-PSGD splits its live set positionally — so networkx is
imported inside the two graph helpers and stays off every production
import path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

__all__ = [
    "bipartite_split",
    "build_exchange_graph",
    "verify_deadlock_free",
    "choose_passive_peer",
]


def bipartite_split(world: int) -> tuple[list[int], list[int]]:
    """Split ranks into (active, passive) sets — evens active, odds
    passive, matching the paper's description.

    For ``world == 1`` the single worker is active with no peers (it
    degenerates to sequential SGD).
    """
    if world <= 0:
        raise ValueError("world must be positive")
    active = [r for r in range(world) if r % 2 == 0]
    passive = [r for r in range(world) if r % 2 == 1]
    return active, passive


def build_exchange_graph(world: int) -> nx.Graph:
    """Complete bipartite exchange graph between active and passive sets."""
    import networkx as nx

    active, passive = bipartite_split(world)
    graph = nx.Graph()
    graph.add_nodes_from(active, role="active")
    graph.add_nodes_from(passive, role="passive")
    graph.add_edges_from((a, p) for a in active for p in passive)
    return graph


def verify_deadlock_free(graph: nx.Graph) -> bool:
    """True iff the blocking-direction orientation of ``graph`` is acyclic.

    Every exchange blocks the active side on the passive side; orienting
    all edges active→passive must give a DAG. Graphs with an edge inside
    one role class (or mislabeled nodes) fail.
    """
    import networkx as nx

    directed = nx.DiGraph()
    directed.add_nodes_from(graph.nodes)
    for u, v in graph.edges:
        role_u = graph.nodes[u].get("role")
        role_v = graph.nodes[v].get("role")
        if role_u == role_v:
            return False  # an intra-class edge could block peer-on-peer
        if role_u == "active":
            directed.add_edge(u, v)
        else:
            directed.add_edge(v, u)
    return nx.is_directed_acyclic_graph(directed)


def choose_passive_peer(
    rank: int, graph: nx.Graph, rng: np.random.Generator
) -> int | None:
    """Uniformly choose a passive neighbour of active worker ``rank``.

    Returns ``None`` when the worker has no neighbours (world of 1).
    """
    neighbors = sorted(graph.neighbors(rank))
    if not neighbors:
        return None
    return int(neighbors[rng.integers(0, len(neighbors))])
