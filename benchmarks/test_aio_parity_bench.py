"""Backend parity bench: fig11 over the asyncio socket overlay.

Regenerates the fig11 series on the ``aio`` backend (real localhost TCP
connections, frames parsed as they arrive) and asserts its structural fields —
delivered plaintexts and relay/network counters — match the discrete-event
simulator's under the same seed, which is the property CI's ``aio-parity``
job gates via the ``fig11.parity.json`` artifacts.  The benchmark time is
the aio run: what a real-socket pass over the figure costs.
"""

from repro.experiments import format_table
from repro.experiments.runner import run_experiment


def test_fig11_aio_backend_parity(benchmark, scale):
    sim = run_experiment("fig11", scale=scale)
    aio = benchmark.pedantic(
        run_experiment,
        kwargs={"name": "fig11", "scale": scale, "backend": "aio"},
        iterations=1,
        rounds=1,
    )
    assert [row["parity"] for row in aio.rows] == [row["parity"] for row in sim.rows]
    # The aio run really delivered everything the simulator did.
    for row in aio.rows:
        assert row["slicing_delivered"] == row["onion_delivered"] > 0
    print()
    print(format_table([{k: v for k, v in row.items() if k != "parity"} for row in aio.rows]))
