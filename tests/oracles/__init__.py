"""Reference implementations the shipped engines are checked against.

Each module holds the plain, one-item-at-a-time version of one engine, written
to read like the paper: the per-packet data plane (``dataplane``), the
per-trial anonymity Monte-Carlo (``anonymity``), its Chaum-chain twin
(``chaum``) and the per-cell Sphinx layering (``sphinx``).  No run of the
program selects them; the property tests hold the batched engines in ``src/``
to the same bytes.  They subclass or call the production classes and need no
hook in ``src/``.
"""
