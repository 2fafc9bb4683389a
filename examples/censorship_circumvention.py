"""Censorship circumvention through a national firewall (§9.3 + §9.1).

A sender behind a snooping firewall wants to reach an outside destination.
She picks relays spread across many autonomous systems (so no single network
— including her own country's — hosts enough of the graph to reconstruct it),
splits every message, and tunnels one slice through a pseudo-source outside
the firewall.  The firewall sees traffic but never holds enough slices of any
one node's information to decode it.

Run with:  python examples/censorship_circumvention.py
"""

import numpy as np

from repro.core import SliceCoder
from repro.overlay import (
    NodeResources,
    SimulatedOverlayNetwork,
    SlicingProtocolRuntime,
    uniform_network,
)
from repro.overlay.address import assign_overlay_addresses, generate_as_database
from repro.overlay.selection import as_diverse_selection


def main() -> None:
    rng = np.random.default_rng(11)

    # A synthetic AS-level view of the overlay (stand-in for RouteViews data).
    database = generate_as_database(num_ases=40, rng=rng)
    overlay_addresses = assign_overlay_addresses(database, 300, rng)

    # Pick relays spread over distinct ASes / countries (§9.1).
    selection = as_diverse_selection(overlay_addresses, 60, database, rng)
    print(
        f"Selected {len(selection.relays)} relays across "
        f"{selection.distinct_ases} ASes and {selection.distinct_countries} countries"
    )

    # The sender's pseudo-source is an account outside the firewall; traffic
    # to it goes over a pre-existing secure channel (§3c).
    sender = ["sender-inside.example", "friend-outside.example"]
    network = uniform_network(
        [*sender, *selection.relays, "free-press.example"], 0.001, NodeResources()
    )
    overlay = SimulatedOverlayNetwork(network, connection_bps=1e9)
    transfer = SlicingProtocolRuntime(overlay, sender, d=2, path_length=4, rng=rng)
    transfer.establish(selection.relays, "free-press.example")
    overlay.sim.run()
    transfer.send_messages([b"report: the dam is failing, publish at 09:00"])
    overlay.sim.run()
    print(f"Destination decoded: {transfer.delivered_plaintexts()[0].decode()!r}")

    # What does the firewall see?  Model it as an eavesdropper on the
    # sender's own uplink: every slice that left the sender itself, i.e.
    # what the first-stage relays stored on the sender's lane.
    flow = transfer.flow
    lane = sender.index("sender-inside.example")
    relays = transfer.runtime.relays
    stored = [
        relays[relay].flows[flow.plan.flow_ids[relay]].data.blocks(0)
        for relay in flow.graph.stages[1]
    ]
    data_slices = [block for blocks in stored for block in blocks if block.index == lane]
    coder = SliceCoder(flow.d)
    print(
        "Firewall captured "
        f"{len(data_slices)} data slice(s) from the sender's own uplink; "
        f"can it decode the message? {coder.can_decode(data_slices)}"
    )
    print(
        "The second slice of every message travelled through the outside "
        "pseudo-source, which the firewall cannot read."
    )


if __name__ == "__main__":
    main()
