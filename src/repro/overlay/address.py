"""Synthetic IP / AS address space (§9.1 substrate).

The paper defends against an adversary who owns a large, contiguous chunk of
IP space by selecting relays from *different autonomous systems*, using
publicly available inter-domain routing tables.  We do not have RouteViews
data offline, so this module synthesises an AS-level view of an overlay:

* a configurable number of ASes with a skewed (Zipf-like) prefix allocation —
  a few large carriers own many prefixes, a long tail owns one or two;
* overlay nodes assigned addresses inside those prefixes.

The selection policy in :mod:`repro.overlay.selection` only needs the mapping
"address → AS", so this synthetic allocation exercises the same code path the
real routing tables would.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

import numpy as np

from ..core.errors import SelectionError


@dataclass(frozen=True)
class Prefix:
    """One advertised IPv4 prefix belonging to an AS."""

    network: ipaddress.IPv4Network
    asn: int


@dataclass
class ASDatabase:
    """A miniature inter-domain view: prefixes, their owning ASes, and countries."""

    prefixes: list[Prefix] = field(default_factory=list)
    as_countries: dict[int, str] = field(default_factory=dict)

    def asn_of(self, address: str) -> int:
        """The AS number owning ``address`` (longest-prefix match)."""
        candidate: Prefix | None = None
        ip = ipaddress.IPv4Address(address)
        for prefix in self.prefixes:
            if ip in prefix.network:
                if candidate is None or prefix.network.prefixlen > candidate.network.prefixlen:
                    candidate = prefix
        if candidate is None:
            raise SelectionError(f"{address} is not covered by any known prefix")
        return candidate.asn

    def country_of(self, address: str) -> str:
        return self.as_countries.get(self.asn_of(address), "unknown")


_COUNTRIES = ["us", "de", "cn", "ir", "br", "jp", "in", "ru", "fr", "za", "kr", "gb"]


def generate_as_database(
    num_ases: int,
    rng: np.random.Generator,
) -> ASDatabase:
    """Create a synthetic AS database with a Zipf-skewed prefix allocation.

    AS ``i`` (1-based) receives roughly ``1/i``-proportional prefix counts,
    mirroring the concentration of real address space in a few large carriers
    — the property the attacker of §9.1 exploits.
    """
    if num_ases < 1:
        raise SelectionError("need at least one AS")
    prefixes: list[Prefix] = []
    as_countries: dict[int, str] = {}
    weights = 1.0 / np.arange(1, num_ases + 1)
    allocations = np.maximum(1, np.round(weights / weights.sum() * num_ases * 4)).astype(int)
    second_octet = 0
    for index in range(num_ases):
        asn = 64500 + index
        as_countries[asn] = _COUNTRIES[index % len(_COUNTRIES)]
        for _ in range(int(allocations[index])):
            network = ipaddress.IPv4Network(
                f"10.{second_octet % 256}.{(second_octet // 256) % 256}.0/24"
            )
            prefixes.append(Prefix(network=network, asn=asn))
            second_octet += 1
    return ASDatabase(prefixes=prefixes, as_countries=as_countries)


def assign_overlay_addresses(
    database: ASDatabase,
    count: int,
    rng: np.random.Generator,
    concentrated_fraction: float = 0.0,
) -> list[str]:
    """Assign ``count`` overlay node addresses inside the database's prefixes.

    ``concentrated_fraction`` places that share of the nodes inside the single
    largest AS — modelling an adversary who fills the overlay with nodes from
    address space it controls (§9.1's attack scenario).
    """
    if not database.prefixes:
        raise SelectionError("AS database has no prefixes")
    by_asn: dict[int, list[Prefix]] = {}
    for prefix in database.prefixes:
        by_asn.setdefault(prefix.asn, []).append(prefix)
    largest_asn = max(by_asn, key=lambda asn: len(by_asn[asn]))
    addresses: list[str] = []
    seen: set[str] = set()
    while len(addresses) < count:
        if rng.random() < concentrated_fraction:
            prefix = by_asn[largest_asn][int(rng.integers(0, len(by_asn[largest_asn])))]
        else:
            prefix = database.prefixes[int(rng.integers(0, len(database.prefixes)))]
        host = int(rng.integers(1, 255))
        address = str(prefix.network.network_address + host)
        if address in seen:
            continue
        seen.add(address)
        addresses.append(address)
    return addresses
