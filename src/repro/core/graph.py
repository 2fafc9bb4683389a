"""Forwarding-graph construction (Algorithm 1, §4.3.4).

The source arranges ``L * d'`` relays (the destination hidden among them)
into ``L`` stages of ``d'`` nodes, preceded by a *source stage* (stage 0)
holding the source and its pseudo-sources.  Every node of stage ``l-1`` is
connected to every node of stage ``l``.

Each relay ``x`` in stage ``l`` must receive its ``d'`` information slices
along vertex-disjoint paths.  We assign slice ``k`` of the ``j``-th node of
stage ``l`` to carrier position ``(m*j + k + rho_l) mod d'`` in every earlier
stage ``m``.  This satisfies Algorithm 1's constraints and additionally
balances load so that the edge between stage ``m`` and ``m+1`` carries exactly
one slice per downstream stage — which is what lets every packet contain a
constant ``L`` slices (Fig. 3, Fig. 4).

The graph object knows, for every edge, the ordered list of slices that
traverse it; the slice-map compiler (:mod:`repro.core.slice_map`) turns that
knowledge into the per-node instructions the protocol ships around.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GraphConstructionError

#: Type alias: a slice is identified by (owner address, slice index).
SliceId = tuple[str, int]


@dataclass
class ForwardingGraph:
    """A compiled forwarding graph.

    Attributes
    ----------
    stages:
        ``stages[0]`` is the source stage (source + pseudo-sources);
        ``stages[1..L]`` are relay stages, each of size ``d_prime``.
    destination:
        Address of the intended receiver (always somewhere in stages 1..L).
    d / d_prime:
        Split factor and number of slices actually sent (``d_prime >= d``).
    stage_offsets:
        Per-stage random offsets used by the carrier-assignment formula.
    """

    stages: list[list[str]]
    destination: str
    d: int
    d_prime: int
    stage_offsets: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._stage_of: dict[str, int] = {}
        self._position_of: dict[str, int] = {}
        for stage_index, members in enumerate(self.stages):
            for position, address in enumerate(members):
                if address in self._stage_of:
                    raise GraphConstructionError(
                        f"node {address} appears twice in the forwarding graph"
                    )
                self._stage_of[address] = stage_index
                self._position_of[address] = position
        if self.destination not in self._stage_of:
            raise GraphConstructionError("destination is not on the forwarding graph")
        if self._stage_of[self.destination] == 0:
            raise GraphConstructionError("destination cannot be in the source stage")
        if not self.stage_offsets:
            self.stage_offsets = [0] * len(self.stages)

    # -- basic accessors -----------------------------------------------------------

    @property
    def num_stages(self) -> int:
        """Number of relay stages L (source stage excluded)."""
        return len(self.stages) - 1

    @property
    def source_stage(self) -> list[str]:
        return self.stages[0]

    @property
    def relay_stages(self) -> list[list[str]]:
        return self.stages[1:]

    @property
    def relays(self) -> list[str]:
        """All relay addresses in stage order."""
        return [node for stage in self.relay_stages for node in stage]

    @property
    def destination_stage(self) -> int:
        return self._stage_of[self.destination]

    def stage_of(self, address: str) -> int:
        try:
            return self._stage_of[address]
        except KeyError as exc:
            raise GraphConstructionError(f"{address} is not on the graph") from exc

    def position_of(self, address: str) -> int:
        try:
            return self._position_of[address]
        except KeyError as exc:
            raise GraphConstructionError(f"{address} is not on the graph") from exc

    def parents(self, address: str) -> list[str]:
        """All nodes in the stage preceding ``address`` (its parents)."""
        stage = self.stage_of(address)
        if stage == 0:
            return []
        return list(self.stages[stage - 1])

    def children(self, address: str) -> list[str]:
        """All nodes in the stage following ``address`` (its children)."""
        stage = self.stage_of(address)
        if stage >= self.num_stages:
            return []
        return list(self.stages[stage + 1])

    def edges(self) -> list[tuple[str, str]]:
        """Every directed edge (parent, child) of the graph."""
        result = []
        for stage_index in range(len(self.stages) - 1):
            for parent in self.stages[stage_index]:
                for child in self.stages[stage_index + 1]:
                    result.append((parent, child))
        return result

    # -- slice carrier assignment ----------------------------------------------------

    @cached_property
    def _tables(self) -> tuple[dict[SliceId, tuple[str, ...]], dict[tuple[str, str], list[SliceId]]]:
        """Every slice's carrier path and every edge's ordered slice list.

        Built once per graph, in one pass over ``(owner, k)`` in stage /
        position / slice-index order, from the carrier formula of the module
        docstring.  A path lists the carrier at each stage before the owner's
        and ends at the owner.  Because owners come in stage order, each
        edge's list starts with the child's own slice, followed by the
        downstream slices in (stage, position, slice index) order.
        """
        d_prime = self.d_prime
        paths: dict[SliceId, tuple[str, ...]] = {}
        edges: dict[tuple[str, str], list[SliceId]] = {}
        for owner_stage, members in enumerate(self.stages):
            offset = self.stage_offsets[owner_stage]
            for j, owner in enumerate(members):
                for k in range(d_prime):
                    path = (
                        *(self.stages[m][(m * j + k + offset) % d_prime]
                          for m in range(owner_stage)),
                        owner,
                    )
                    paths[(owner, k)] = path
                    for hop in zip(path, path[1:]):
                        edges.setdefault(hop, []).append((owner, k))
        return paths, edges

    def _path(self, owner: str, slice_index: int) -> tuple[str, ...]:
        path = self._tables[0].get((owner, slice_index))
        if path is None:
            self.stage_of(owner)  # an unknown owner is the error to report
            raise GraphConstructionError(
                f"slice index {slice_index} out of range for d'={self.d_prime}"
            )
        return path

    def carrier(self, owner: str, slice_index: int, stage: int) -> str:
        """The node at ``stage`` that carries slice ``slice_index`` of ``owner``.

        Defined for ``0 <= stage < stage_of(owner)``; at the owner's own stage
        the owner itself holds all its slices.
        """
        path = self._path(owner, slice_index)
        return path[stage] if stage < len(path) else owner

    def slice_path(self, owner: str, slice_index: int) -> list[str]:
        """The full vertex path taken by one slice, ending at its owner."""
        return list(self._path(owner, slice_index))

    def edge_slices(self, parent: str, child: str) -> list[SliceId]:
        """Ordered list of slices traversing the edge ``parent -> child``.

        The child's own slice always comes first, followed by downstream
        slices ordered by (stage, position, slice index).  This ordering is
        the shared convention between the slice-map compiler and the source's
        initial packet construction.
        """
        parent_stage = self.stage_of(parent)
        child_stage = self.stage_of(child)
        if child_stage != parent_stage + 1:
            raise GraphConstructionError(
                f"{parent} (stage {parent_stage}) and {child} (stage {child_stage}) "
                "are not adjacent"
            )
        result = list(self._tables[1].get((parent, child), ()))
        own = sum(1 for owner, _k in result if owner == child)
        if own != 1:
            raise GraphConstructionError(
                f"expected exactly one slice of {child} at parent {parent}, "
                f"found {own}"
            )
        return result

    def max_slices_per_edge(self) -> int:
        """The packet slot count needed so no edge overflows (equals L here)."""
        best = 0
        for stage_index in range(len(self.stages) - 1):
            parent = self.stages[stage_index][0]
            child = self.stages[stage_index + 1][0]
            best = max(best, len(self.edge_slices(parent, child)))
        return best

    # -- validation -----------------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants required by the protocol.

        * every relay's slices travel vertex-disjoint paths,
        * every stage of every owner carries each slice exactly once,
        * every edge carries exactly one slice of the child node.

        Raises :class:`GraphConstructionError` on any violation.
        """
        for stage in self.relay_stages:
            if len(stage) != self.d_prime:
                raise GraphConstructionError(
                    f"relay stage has {len(stage)} nodes, expected d'={self.d_prime}"
                )
        if len(self.source_stage) != self.d_prime:
            raise GraphConstructionError(
                f"source stage has {len(self.source_stage)} nodes, expected "
                f"d'={self.d_prime}"
            )
        d_prime = self.d_prime
        paths = self._tables[0]
        for owner in self.relays:
            # Each of the owner's cached paths holds its carrier at every
            # earlier stage, then the owner: zip reads them a stage at a time.
            stages = zip(*[paths[owner, k] for k in range(d_prime)])
            for m, carriers in zip(range(self._stage_of[owner]), stages):
                if len(set(carriers)) != d_prime:
                    raise GraphConstructionError(
                        f"slices of {owner} are not vertex-disjoint at stage {m}"
                    )


def build_forwarding_graph(
    source_addresses: list[str],
    relay_addresses: list[str],
    destination: str,
    path_length: int,
    d: int,
    d_prime: int | None = None,
    rng: np.random.Generator | None = None,
) -> ForwardingGraph:
    """Build a forwarding graph per Algorithm 1.

    Parameters
    ----------
    source_addresses:
        The source and its pseudo-sources; exactly ``d_prime`` of them are
        required (the paper's stage 0).
    relay_addresses:
        Candidate relay addresses; ``path_length * d_prime`` are used.  The
        destination is inserted at a random position if it is not already in
        the list, exactly as §4.2.1 prescribes ("the destination node is
        randomly assigned to one of the stages").
    destination:
        The intended receiver.
    path_length / d / d_prime:
        The paper's ``L``, ``d`` and ``d'``.
    rng:
        Randomness source (defaults to a fresh default generator).
    """
    rng = np.random.default_rng() if rng is None else rng
    d_prime = d if d_prime is None else d_prime
    if d < 1 or d_prime < d:
        raise GraphConstructionError(f"invalid split factors d={d}, d'={d_prime}")
    if path_length < 1:
        raise GraphConstructionError(f"path length must be >= 1, got {path_length}")
    if len(source_addresses) != d_prime:
        raise GraphConstructionError(
            f"need exactly d'={d_prime} source-stage addresses "
            f"(source + pseudo-sources), got {len(source_addresses)}"
        )

    pool = [addr for addr in relay_addresses if addr != destination]
    needed = path_length * d_prime - 1
    if len(pool) < needed:
        raise GraphConstructionError(
            f"need at least {needed} distinct relays plus the destination, "
            f"got {len(pool)}"
        )
    if len(set(pool)) != len(pool):
        raise GraphConstructionError("relay addresses contain duplicates")
    overlap = set(pool) & set(source_addresses)
    if overlap or destination in source_addresses:
        raise GraphConstructionError(
            f"source-stage addresses overlap relay pool / destination: {overlap}"
        )

    chosen = list(rng.choice(pool, size=needed, replace=False))
    insert_at = int(rng.integers(0, needed + 1))
    chosen.insert(insert_at, destination)

    stages: list[list[str]] = [list(source_addresses)]
    for stage_index in range(path_length):
        start = stage_index * d_prime
        stages.append([str(a) for a in chosen[start : start + d_prime]])

    offsets = [int(rng.integers(0, d_prime)) for _ in range(path_length + 1)]
    graph = ForwardingGraph(
        stages=stages,
        destination=destination,
        d=d,
        d_prime=d_prime,
        stage_offsets=offsets,
    )
    return graph
