"""Reference implementations the shipped engines are checked against.

Each module holds the plain, one-item-at-a-time version of one engine, written
to read like the paper: the per-packet data plane (``dataplane``), the
per-cell onion and Sphinx layering (``onion``, ``sphinx``), and the one-matrix
GF(2^8) inversion and one-call-at-a-time ``uint8`` draws (``gf``), which the
property tests hold the batched
engines in ``src/`` to the same bytes; the
anonymity Monte-Carlo (``anonymity``) with its Chaum-chain twin (``chaum``),
the samplers the exact DPs of Figs. 7-10 are checked against; and the churn
Monte-Carlo with the packet-level failure replay (``resilience``), which the
closed forms of Figs. 16-17 and the stage premise of Eq. 7 are checked
against.  The passive link tap (``wiretap``) records what an observer sees of
a transfer, the wire substrate (``wire``) round-trips every burst through the
codec, and the two-event landing (``landing``) is the event order keyed items
had before they joined their inbox when sent.  No run of the program selects
them.  They subclass or call the production classes and need no hook in
``src/`` beyond the overlay substrate's own ``_send`` / ``_receive``.
"""
