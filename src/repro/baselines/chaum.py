"""Chaum-mix anonymity baseline (the comparison curves of Fig. 7).

The paper compares information slicing's anonymity against classic Chaum
mixes / onion routing: a single chain of ``L`` mix nodes chosen from the same
overlay, a fraction ``f`` of which is malicious and colluding.  A malicious
mix knows its predecessor and successor; because layered encryption hides
everything else, colluding mixes can stitch their observations together only
when they are adjacent on the chain.

The model mirrors the information-slicing attacker analysis with ``d = 1``:

* if the first mix is malicious the source is exposed (it is the previous
  hop of a compromised node and there is nothing upstream of it);
* if the last mix is malicious the destination is exposed;
* otherwise the attacker's suspicion concentrates on the neighbours of its
  longest compromised run, and the entropy metric quantifies what remains.

:func:`exact_chaum_anonymity` computes the expectation of that model over
every chain with a dynamic programme over hops.  The chain-walk Monte-Carlo
it replaced is its test oracle (``tests/oracles/chaum.py``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from ..anonymity.metrics import two_level_anonymity


@dataclass(frozen=True)
class ChaumAnonymityResult:
    """Expected anonymity of the Chaum-mix baseline at one parameter point."""

    source_anonymity: float
    destination_anonymity: float


def _chain_anonymity_from_run(
    length: int, num_nodes: int, clean_nodes: int, path_length: int
) -> float:
    """Anonymity of the chain's hidden endpoint given the longest run ``length``.

    Source and destination use the same assignment (the chain is symmetric):
    the node immediately upstream (downstream) of the run is the prime
    suspect; it is the true endpoint only if the run touches the chain's end.
    """
    if length == 0:
        return two_level_anonymity(0, 0.0, clean_nodes, 1.0 / clean_nodes, num_nodes)
    p_suspect = 1.0 / max(path_length - length, 1)
    others = max(clean_nodes - 1, 1)
    p_other = (1.0 - p_suspect) / others
    return two_level_anonymity(1, p_suspect, others, p_other, num_nodes)


def exact_chaum_anonymity(
    num_nodes: int, path_length: int, fraction_malicious: float
) -> ChaumAnonymityResult:
    """Expected source and destination anonymity of an ``L``-mix chain.

    Each mix is malicious independently with probability ``f``.  The scan
    over hops carries ``(current run, longest run, first hop malicious)``;
    the last hop is malicious exactly when the final run is non-empty.

    >>> exact_chaum_anonymity(100, 4, 1.0)
    ChaumAnonymityResult(source_anonymity=0.0, destination_anonymity=0.0)
    """
    if path_length < 1 or not 0.0 <= fraction_malicious <= 1.0:
        raise ValueError(
            f"need L >= 1 and 0 <= f <= 1, got L={path_length}, f={fraction_malicious}"
        )
    f = fraction_malicious
    states = {(0, 0, False): 1.0}
    for hop in range(path_length):
        following: defaultdict[tuple[int, int, bool], float] = defaultdict(float)
        for (run, longest, first), mass in states.items():
            if f < 1.0:
                following[0, longest, first] += mass * (1.0 - f)
            if f > 0.0:
                following[run + 1, max(longest, run + 1), first or hop == 0] += mass * f
        states = following
    clean_nodes = max(int(num_nodes * (1.0 - f)), 1)
    source = destination = 0.0
    for (run, longest, first), mass in states.items():
        value = mass * _chain_anonymity_from_run(longest, num_nodes, clean_nodes, path_length)
        if not first:
            source += value
        if run == 0:
            destination += value
    return ChaumAnonymityResult(source, destination)
