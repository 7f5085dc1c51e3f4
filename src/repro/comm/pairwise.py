"""AD-PSGD's bipartite symmetric-exchange topology.

AD-PSGD (Lian et al., ICML'18) averages parameters pairwise and
*symmetrically*: the active worker blocks until the passive worker
replies. With arbitrary topologies that deadlocks (A waits on B waits
on C waits on A); the fix — adopted by the paper (§IV-C) — is to
split workers into an active and a passive set and only allow
active→passive exchange edges, making the wait-for graph bipartite and
therefore acyclic in the direction of blocking.

:func:`verify_deadlock_free` states that argument as a checkable
property: when every exchange edge joins the two classes, orienting it
active→passive (the direction of blocking) gives a 2-layer DAG — no
node has both an incoming and an outgoing edge, so no cycle exists. No
run builds the graph; AD-PSGD splits its live set positionally.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["bipartite_split", "build_exchange_graph", "verify_deadlock_free"]

Edge = tuple[int, int]


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


def build_exchange_graph(world: int) -> tuple[list[int], list[int], list[Edge]]:
    """``(active, passive, edges)`` of the complete bipartite exchange
    graph between the active and passive sets."""
    active, passive = bipartite_split(world)
    return active, passive, [(a, p) for a in active for p in passive]


def verify_deadlock_free(
    active: Iterable[int], passive: Iterable[int], edges: Iterable[Edge]
) -> bool:
    """True iff the blocking-direction orientation of ``edges`` is acyclic.

    Every exchange blocks the active side on the passive side. If each
    edge joins an active to a passive node, every wait points from the
    first class into the second and nothing waits on an active node: a
    2-layer DAG. An edge inside one class (or touching a node in neither,
    or a node in both) could block peer on peer and fails the check.
    """
    active, passive = set(active), set(passive)
    if active & passive:
        return False
    return all(
        (u in active and v in passive) or (u in passive and v in active)
        for u, v in edges
    )
