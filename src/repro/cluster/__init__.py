"""Cluster-scale orchestration (§5.4).

* :mod:`model` — nodes, placements and workload mixes for the 10x10 testbed.
* :mod:`btrplace` — a BtrPlace-style reconfiguration planner: offline-group
  constraints produce migration plans.
* :mod:`plan` — plan data structures (actions, ordering).
* :mod:`serialize` — framed plan blobs for export and import.

Plans are executed and timed by :class:`repro.fleet.FleetController`; the
Fig. 13 campaign is its sequential-groups configuration with no admission
cap and no verify stage (:func:`repro.bench.runner.cluster_fraction_cell`).
"""

from repro.cluster.model import Cluster, ClusterNode, ClusterVM, WorkloadKind
from repro.cluster.btrplace import BtrPlacePlanner
from repro.cluster.plan import MigrationAction, InPlaceAction, ReconfigurationPlan
from repro.cluster.serialize import (
    decode_plan,
    encode_plan,
    export_plan,
    import_plan,
    summarize_plan,
)

__all__ = [
    "export_plan",
    "import_plan",
    "encode_plan",
    "decode_plan",
    "summarize_plan",
    "Cluster",
    "ClusterNode",
    "ClusterVM",
    "WorkloadKind",
    "BtrPlacePlanner",
    "MigrationAction",
    "InPlaceAction",
    "ReconfigurationPlan",
]
