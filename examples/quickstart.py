"""Quickstart: send a confidential, anonymous message without any keys.

Alice wants to tell Bob "Let's meet at 5pm" without exposing the message, or
the fact that she is talking to Bob, to any relay.  She has two IP addresses
(home and work), knows a handful of overlay nodes, and Bob runs the overlay
software.  No public keys anywhere — this is the paper's opening scenario.

Run with:  python examples/quickstart.py
"""

import numpy as np

from repro.overlay import (
    NodeResources,
    SimulatedOverlayNetwork,
    SlicingProtocolRuntime,
    uniform_network,
)


def main() -> None:
    rng = np.random.default_rng(7)

    # Alice controls two addresses: her home connection (the real source) and
    # her work machine (a pseudo-source).  The overlay she knows about is
    # ordinary peer-to-peer nodes plus Bob, simulated with 1 ms links; every
    # node runs the real relay engine.
    alice = ["alice-home.example", "alice-work.example"]
    relay_addresses = [f"peer-{i}.p2p.example" for i in range(30)]
    network = uniform_network([*alice, *relay_addresses, "bob.example"], 0.001, NodeResources())
    overlay = SimulatedOverlayNetwork(network, connection_bps=1e9)

    # She splits every message into d=2 slices and routes them over L=3
    # stages of relays: establish the forwarding graph, then send two
    # messages through it.
    transfer = SlicingProtocolRuntime(overlay, alice, d=2, path_length=3, rng=rng)
    transfer.establish(relay_addresses, "bob.example")
    overlay.sim.run()
    transfer.send_messages([b"Let's meet at 5pm", b"Bring the blueprints"])
    overlay.sim.run()
    flow = transfer.flow

    print("Forwarding graph (stage -> relays):")
    for index, stage in enumerate(flow.graph.stages):
        marker = "  <- source stage" if index == 0 else ""
        print(f"  stage {index}: {stage}{marker}")
    print(f"Bob is hidden in stage {flow.graph.destination_stage}")
    print()
    print("Messages decoded by Bob:")
    for seq, message in sorted(transfer.delivered_plaintexts().items()):
        print(f"  #{seq}: {message.decode()}")

    # No relay other than Bob decoded anything.
    relays = transfer.runtime.relays
    spies = [
        relay
        for relay in flow.graph.relays
        if relay != "bob.example"
        and any(relays[relay].delivered_messages(flow_id) for flow_id in relays[relay].flows)
    ]
    print()
    print(f"Relays that learned the message besides Bob: {spies or 'none'}")


if __name__ == "__main__":
    main()
