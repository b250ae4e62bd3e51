"""Distributed execution of online set packing across server nodes.

The coordinator does *not* participate in decisions — it only models the
physical placement of elements onto servers, routes each arrival to its
server, and afterwards aggregates the purely local decisions to determine
which sets (compound tasks) completed.  The central claim of the paper's
distributed remark — that hash-derived priorities make the distributed
outcome identical to the centralized randPr run with the same hash — is a
property the tests verify via :func:`repro.core.simulation.simulate` on
:class:`~repro.algorithms.hashed.HashedRandPrAlgorithm`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional

from repro.core.instance import OnlineInstance
from repro.core.seeding import stable_seed
from repro.core.set_system import ElementId, SetId
from repro.distributed.hashing import UniversalHashFamily
from repro.distributed.node import NodeDecision, ServerNode
from repro.exceptions import OspError

__all__ = ["DistributedOutcome", "DistributedCoordinator", "round_robin_placement"]

PlacementFunction = Callable[[ElementId], str]


def round_robin_placement(node_ids: List[str]) -> PlacementFunction:
    """A placement that spreads elements over nodes by a stable hash of their id.

    The hash is :func:`~repro.core.seeding.stable_seed`, not the
    built-in ``hash()``: string hashing is randomized per interpreter run
    (``PYTHONHASHSEED``), so a ``hash()``-based placement would scatter the
    same element onto different nodes in different processes — fatal for a
    placement that several cooperating processes must agree on.  The
    ``stable_seed`` routing is identical on every platform, interpreter and
    hash seed (``tests/test_hashed_and_distributed.py`` checks this across
    ``PYTHONHASHSEED`` values in subprocesses).
    """
    if not node_ids:
        raise OspError("round-robin placement needs at least one node")
    ordered = list(node_ids)

    def place(element_id: ElementId) -> str:
        return ordered[stable_seed("placement", repr(element_id)) % len(ordered)]

    return place


@dataclass
class DistributedOutcome:
    """The aggregated result of a distributed run."""

    completed_sets: FrozenSet[SetId]
    benefit: float
    decisions: List[NodeDecision]
    per_node_counts: Dict[str, int]

    @property
    def num_completed(self) -> int:
        """The number of compound tasks (sets) completed across all servers."""
        return len(self.completed_sets)


class DistributedCoordinator:
    """Runs an online instance across a fleet of :class:`ServerNode` objects.

    Parameters
    ----------
    node_ids:
        The servers participating in the system.
    salt:
        The shared hash seed distributed to every server out of band.
    placement:
        Maps each element to the server where it is physically served.
        Defaults to hash-based spreading; the multi-hop scenario uses the
        hop coordinate instead.
    hash_family:
        Optional shared universal hash family distributed to the nodes.
    """

    def __init__(
        self,
        node_ids: List[str],
        salt: str,
        placement: Optional[PlacementFunction] = None,
        hash_family: Optional[UniversalHashFamily] = None,
    ) -> None:
        if not node_ids:
            raise OspError("a distributed deployment needs at least one server node")
        if len(node_ids) != len(set(node_ids)):
            raise OspError("server node identifiers must be unique")
        self._salt = salt
        self._hash_family = hash_family
        self._placement = placement or round_robin_placement(list(node_ids))
        self._nodes: Dict[str, ServerNode] = {
            node_id: ServerNode(node_id=node_id, salt=salt, hash_family=hash_family)
            for node_id in node_ids
        }

    @property
    def nodes(self) -> Mapping[str, ServerNode]:
        """The server nodes, keyed by identifier."""
        return self._nodes

    def run(self, instance: OnlineInstance) -> DistributedOutcome:
        """Execute the instance: route every arrival to its server and aggregate.

        Set weights are broadcast to every node up front (they are part of the
        up-front public information in the OSP model).
        """
        system = instance.system
        weights = {set_id: system.weight(set_id) for set_id in system.set_ids}
        for node in self._nodes.values():
            node.reset()
            node.weights = dict(weights)

        decisions: List[NodeDecision] = []
        assigned_counts: Dict[SetId, int] = {set_id: 0 for set_id in system.set_ids}
        alive: Dict[SetId, bool] = {set_id: True for set_id in system.set_ids}

        for arrival in instance.arrivals():
            node_id = self._placement(arrival.element_id)
            if node_id not in self._nodes:
                raise OspError(
                    f"placement routed element {arrival.element_id!r} to unknown node "
                    f"{node_id!r}"
                )
            decision = self._nodes[node_id].handle(arrival)
            decisions.append(decision)
            for set_id in arrival.parents:
                if set_id in decision.assigned:
                    assigned_counts[set_id] += 1
                else:
                    alive[set_id] = False

        completed = frozenset(
            set_id
            for set_id in system.set_ids
            if alive[set_id] and assigned_counts[set_id] == system.size(set_id)
        )
        benefit = sum(system.weight(set_id) for set_id in completed)
        per_node = {node_id: node.num_handled for node_id, node in self._nodes.items()}
        return DistributedOutcome(
            completed_sets=completed,
            benefit=benefit,
            decisions=decisions,
            per_node_counts=per_node,
        )
