"""Relay selection policies (§9.1).

The naive policy picks relays uniformly at random, which an adversary owning
a large address block can exploit.  The AS-diverse policy consults the
(synthetic) AS database and picks relays spread across distinct autonomous
systems — ideally distinct countries — so that controlling many relays
requires presence in many networks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import SelectionError
from .address import ASDatabase


@dataclass(frozen=True)
class SelectionReport:
    """Diagnostics about a relay selection."""

    relays: list[str]
    distinct_ases: int
    distinct_countries: int


def uniform_selection(
    candidates: list[str], count: int, rng: np.random.Generator
) -> list[str]:
    """Pick ``count`` relays uniformly at random (the vulnerable baseline)."""
    if count > len(candidates):
        raise SelectionError(
            f"cannot pick {count} relays from {len(candidates)} candidates"
        )
    return [str(a) for a in rng.choice(candidates, size=count, replace=False)]


def as_diverse_selection(
    candidates: list[str],
    count: int,
    database: ASDatabase,
    rng: np.random.Generator,
) -> SelectionReport:
    """Pick relays spread across ASes, at most one per AS.

    Falls back to relaxing the per-AS cap (doubling it) when the candidate
    pool does not span enough ASes, rather than failing — a sender would do
    the same.
    """
    if count > len(candidates):
        raise SelectionError(
            f"cannot pick {count} relays from {len(candidates)} candidates"
        )
    shuffled = [str(a) for a in rng.permutation(candidates)]
    cap = 1
    while True:
        chosen: list[str] = []
        used: dict[int, int] = {}
        for address in shuffled:
            asn = database.asn_of(address)
            if used.get(asn, 0) >= cap:
                continue
            chosen.append(address)
            used[asn] = used.get(asn, 0) + 1
            if len(chosen) == count:
                countries = {database.country_of(a) for a in chosen}
                return SelectionReport(
                    relays=chosen,
                    distinct_ases=len(used),
                    distinct_countries=len(countries),
                )
        cap *= 2
        if cap > len(candidates):
            raise SelectionError(
                "candidate pool cannot satisfy the requested relay count"
            )


def adversary_capture_probability(
    relays: list[str], adversary_ases: set[int], database: ASDatabase
) -> float:
    """Fraction of the selected relays that fall inside adversary-owned ASes."""
    if not relays:
        return 0.0
    captured = sum(1 for address in relays if database.asn_of(address) in adversary_ases)
    return captured / len(relays)
