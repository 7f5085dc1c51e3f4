"""Communication substrate on top of the simulator.

Mirrors the paper's MPICH/TF-PS wire layer:

* :mod:`repro.comm.messages` / :mod:`repro.comm.endpoints` — typed
  messages between :class:`~repro.comm.endpoints.Node` endpoints, with
  per-kind FIFO mailboxes (in-order delivery per sender pair, as TCP
  and MPI both guarantee);
* :mod:`repro.comm.ps` — parameter-server shard processes, the basis
  of BSP/ASP/SSP/EASGD;
* :mod:`repro.comm.collectives` — AllReduce as reduce-scatter +
  allgather (ring schedule), the MPICH algorithm the paper uses for
  AR-SGD;
* :mod:`repro.comm.hierarchical` — rack-scale collective schedules:
  ring-of-rings and k-ary reduce/broadcast trees over machine leaders,
  plus the PS-tree grouping geometry;
* :mod:`repro.comm.gossip` — GoSGD's weighted asymmetric push-gossip
  exchange rule;
* :mod:`repro.comm.pairwise` — AD-PSGD's bipartite active/passive
  symmetric exchange with the deadlock-freedom argument stated as a
  checkable property.
"""

from repro.comm.messages import Message
from repro.comm.endpoints import CommContext, Node
from repro.comm.collectives import ring_allreduce_plan, ring_neighbors
from repro.comm.hierarchical import (
    machine_groups,
    tree_children,
    tree_parent,
)
from repro.comm.gossip import GossipState, gossip_merge, gossip_send_share
from repro.comm.pairwise import bipartite_split, build_exchange_graph, verify_deadlock_free

__all__ = [
    "Message",
    "Node",
    "CommContext",
    "ring_allreduce_plan",
    "ring_neighbors",
    "machine_groups",
    "tree_parent",
    "tree_children",
    "GossipState",
    "gossip_merge",
    "gossip_send_share",
    "bipartite_split",
    "build_exchange_graph",
    "verify_deadlock_free",
]
