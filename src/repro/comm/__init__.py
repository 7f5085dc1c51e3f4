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
  exchange rule.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "messages": ("Message",),
        "endpoints": ("Node", "CommContext"),
        "collectives": ("ring_allreduce_plan", "ring_neighbors"),
        "hierarchical": ("machine_groups", "tree_parent", "tree_children"),
        "gossip": ("GossipState", "gossip_merge", "gossip_send_share"),
    },
)
