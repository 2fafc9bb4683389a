"""Property tests for the distributed coordinator's wire protocol.

Mirrors ``tests/test_wire_format.py`` for the coordinator/worker plane: the
protocol ships length-prefixed canonical-JSON frames over TCP (the same
framing discipline as the asyncio overlay backend), so these tests drive the
encode→decode round trip of lease and result messages with hypothesis, check
that truncated and oversized frames are rejected rather than mis-parsed, and
exercise the lease ledger's idempotence guarantees (duplicate results, stale
leases, expiry re-dispatch).
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import PacketFormatError
from repro.experiments import Job, UsageError, experiment_names
from repro.experiments.distributed import (
    Lease,
    TrialLedger,
    decode_message,
    encode_message,
    job_frame,
    job_from_frame,
    message_payload,
    trials_digest,
)
from repro.net import FRAME_HEADER, MAX_FRAME_BYTES, decode_frames

from strategies import json_scalars, lease_messages, result_messages


@given(message=st.one_of(lease_messages(), result_messages()))
@settings(max_examples=150, deadline=None)
def test_lease_and_result_frames_round_trip(message):
    frame = encode_message(message)
    (payload,) = decode_frames(frame)
    assert decode_message(payload) == message


@given(message=result_messages())
@settings(max_examples=50, deadline=None)
def test_row_key_order_survives_the_wire(message):
    # The artifact serialisation preserves row insertion order, so the
    # envelope must not re-order what it carries.
    frame = encode_message(message)
    (payload,) = decode_frames(frame)
    decoded = decode_message(payload)
    for original, parsed in zip(message["results"], decoded["results"]):
        assert list(original[1]) == list(parsed[1])


@given(
    messages=st.lists(
        st.one_of(lease_messages(), result_messages()), min_size=1, max_size=4
    )
)
@settings(max_examples=50, deadline=None)
def test_concatenated_message_frames_decode_in_order(messages):
    wire = b"".join(encode_message(m) for m in messages)
    payloads = decode_frames(wire)
    assert [decode_message(p) for p in payloads] == messages


@given(message=st.one_of(lease_messages(), result_messages()), data=st.data())
@settings(max_examples=100, deadline=None)
def test_truncated_message_frames_are_rejected(message, data):
    frame = encode_message(message)
    cut = data.draw(st.integers(1, len(frame) - 1), label="cut")
    with pytest.raises(PacketFormatError):
        decode_frames(frame[:cut])


def test_oversized_message_is_rejected_on_encode():
    huge = {"type": "result", "blob": "x" * (MAX_FRAME_BYTES + 1)}
    with pytest.raises(PacketFormatError):
        encode_message(huge)


def test_oversized_frame_is_rejected_on_decode():
    wire = FRAME_HEADER.pack(MAX_FRAME_BYTES + 1) + b"x"
    with pytest.raises(PacketFormatError):
        decode_frames(wire)


def test_non_message_payloads_are_rejected():
    with pytest.raises(PacketFormatError):
        decode_message(b"\xff\xfe not json")
    with pytest.raises(PacketFormatError):
        decode_message(json.dumps([1, 2, 3]).encode())  # not a dict
    with pytest.raises(PacketFormatError):
        decode_message(json.dumps({"no_type": 1}).encode())  # no "type"
    with pytest.raises(PacketFormatError):
        encode_message({"type": 7})  # non-string type
    with pytest.raises(PacketFormatError):
        encode_message(["type"])  # not a dict


@given(
    trials=st.lists(
        st.dictionaries(st.text(min_size=1, max_size=8), json_scalars, max_size=4),
        max_size=6,
    )
)
@settings(max_examples=50, deadline=None)
def test_trials_digest_is_deterministic_and_order_sensitive(trials):
    assert trials_digest(trials) == trials_digest(json.loads(json.dumps(trials)))
    if len(trials) >= 2 and trials[0] != trials[1]:
        swapped = [trials[1], trials[0], *trials[2:]]
        assert trials_digest(swapped) != trials_digest(trials)


# -- Job <-> job frame ---------------------------------------------------------------


def test_every_job_round_trips_through_its_frame():
    # Enumerated, not sampled: every registered experiment on each backend
    # it supports, unrestricted and under each scheme it supports.
    count = 0
    for name in experiment_names():
        experiment = Job(name).experiment
        for backend in experiment.backends:
            for scheme in (None, *experiment.schemes):
                job = Job(name, 0.05, 7, backend, scheme)
                on_the_wire = decode_message(message_payload(job_frame(job)))
                assert job_from_frame(on_the_wire) == job
                count += 1
    # 12 sim-only experiments + figs. 11-15 at 2 backends x (none + 4 schemes).
    assert count >= 12 + 5 * 10


def test_job_frame_that_disagrees_with_the_local_code_is_version_skew():
    frame = job_frame(Job("fig11", 0.05))
    for skewed in (
        {**frame, "trial_count": frame["trial_count"] + 1},
        {**frame, "trials_digest": "0" * 64},
    ):
        with pytest.raises(UsageError, match="version skew"):
            job_from_frame(skewed)
    # The worker re-runs the coordinator's own checks on its own host.
    with pytest.raises(KeyError, match="unknown experiment 'fig99'"):
        job_from_frame({**frame, "experiment": "fig99"})
    with pytest.raises(UsageError, match="scale must be positive and finite"):
        job_from_frame({**frame, "scale": float("nan")})


def test_frames_of_coordinators_that_still_sent_a_kernel_parse_to_the_same_job():
    # Up to PR 19 the job frame carried the user's GF(2^8) kernel choice.
    # This worker ignores the key; an older worker reads its absence as null.
    job = Job("fig11", 0.05)
    for kernel in (None, "numpy", "compiled"):
        assert job_from_frame({**job_frame(job), "kernel": kernel}) == job


def test_job_frame_bytes_and_trial_digests_match_the_recorded_vectors():
    # Digests recorded from commit 89fa07c, the last one before Job existed:
    # cache keys and artifact ``trials`` stay put.  The frame bytes were
    # re-recorded in PR 20, which dropped the ``"kernel":null`` pair that sat
    # between scheme and trial_count; everything else is as at 89fa07c.
    assert message_payload(job_frame(Job("fig11", 0.05))) == (
        b'{"type":"job","protocol":1,"experiment":"fig11","scale":0.05,'
        b'"seed":20070411,"backend":"sim","scheme":null,'
        b'"trial_count":4,"trials_digest":'
        b'"aaca206295b3677431b6cf7d7510d0ec9cb4b77e0d1e53931143fad7217d9e2a"}'
    )
    for kwargs, digest in (
        ({}, "aaca206295b3677431b6cf7d7510d0ec9cb4b77e0d1e53931143fad7217d9e2a"),
        ({"backend": "aio"}, "adef7e79e6e75b3509d950198ea90e372167c2da161f54ed6701549d7c29ba93"),
        ({"scheme": "sphinx"}, "26b3e75fe0b0e191878840f9e450542bfcf285cdf7f44db4f518436870e6e62e"),
    ):
        assert trials_digest(Job("fig11", 0.05, **kwargs).trials) == digest


# -- lease ledger properties --------------------------------------------------------


@given(
    total=st.integers(0, 40),
    chunk=st.integers(1, 7),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_ledger_completes_every_index_exactly_once(total, chunk, data):
    ledger = TrialLedger(total, chunk_size=chunk, lease_seconds=10.0)
    now = 0.0
    while not ledger.done:
        lease = ledger.lease("w", now)
        assert lease is not None  # work must always remain leasable until done
        deliver_twice = data.draw(st.booleans(), label="deliver_twice")
        results = {index: {"index": index} for index in lease.indices}
        newly = ledger.complete(lease.lease_id, results)
        assert newly == len(lease.indices)
        if deliver_twice:
            # Duplicate delivery of the same lease changes nothing.
            assert ledger.complete(lease.lease_id, results) == 0
    assert ledger.lease("w", now) is None
    rows = ledger.results_in_order()
    assert [row["index"] for row in rows] == list(range(total))


@given(total=st.integers(1, 30), chunk=st.integers(1, 5), data=st.data())
@settings(max_examples=100, deadline=None)
def test_ledger_redispatch_preserves_exactly_once_results(total, chunk, data):
    """Leases lost to death or expiry are re-enqueued; first result wins."""
    ledger = TrialLedger(total, chunk_size=chunk, lease_seconds=1.0)
    now = 0.0
    stale: list[Lease] = []
    while not ledger.done:
        worker = data.draw(st.sampled_from(["a", "b"]), label="worker")
        lease = ledger.lease(worker, now)
        if lease is None:
            break
        fate = data.draw(st.sampled_from(["complete", "die", "expire"]), label="fate")
        if fate == "complete":
            ledger.complete(
                lease.lease_id, {i: {"by": worker, "index": i} for i in lease.indices}
            )
        elif fate == "die":
            stale.append(lease)
            released = ledger.release_worker(worker)
            assert lease in released  # its indices went back in the queue
        else:
            stale.append(lease)
            now += 2.0  # past the 1-second lease lifetime
            assert lease in ledger.expire(now)
    # Finish whatever is left, then replay every stale lease as a duplicate.
    while not ledger.done:
        lease = ledger.lease("c", now)
        assert lease is not None
        ledger.complete(
            lease.lease_id, {i: {"by": "c", "index": i} for i in lease.indices}
        )
    before = ledger.results_in_order()
    for lease in stale:
        ledger.complete(
            lease.lease_id, {i: {"by": "late", "index": i} for i in lease.indices}
        )
    assert ledger.results_in_order() == before  # stale deliveries are no-ops
    assert [row["index"] for row in before] == list(range(total))


def test_ledger_rejects_out_of_range_results_without_losing_the_lease():
    ledger = TrialLedger(3, chunk_size=2, lease_seconds=5.0)
    lease = ledger.lease("w", 0.0)
    with pytest.raises(PacketFormatError):
        ledger.complete(lease.lease_id, {0: {}, 99: {}})
    # Validation happens before any state change: nothing was recorded, and
    # the lease is still outstanding, so expiry/death re-dispatch can
    # reclaim its indices — no index is ever stranded.
    assert ledger.completed == 0
    assert lease in ledger.outstanding()
    assert lease in ledger.expire(10.0)
    while not ledger.done:
        grant = ledger.lease("w2", 10.0)
        ledger.complete(grant.lease_id, {i: {"index": i} for i in grant.indices})
    assert [row["index"] for row in ledger.results_in_order()] == [0, 1, 2]


def test_ledger_requeues_indices_a_partial_result_frame_left_uncovered():
    ledger = TrialLedger(4, chunk_size=4, lease_seconds=5.0)
    lease = ledger.lease("w", 0.0)
    assert lease.indices == (0, 1, 2, 3)
    # The frame covers only half the lease; the other half must go back in
    # the queue rather than being stranded with the lease retired.
    assert ledger.complete(lease.lease_id, {0: {"index": 0}, 2: {"index": 2}}) == 2
    assert not ledger.outstanding()
    regrant = ledger.lease("w", 0.0)
    assert regrant is not None and set(regrant.indices) == {1, 3}
    ledger.complete(regrant.lease_id, {i: {"index": i} for i in regrant.indices})
    assert ledger.done


def test_ledger_validates_construction():
    with pytest.raises(ValueError):
        TrialLedger(-1)
    with pytest.raises(ValueError):
        TrialLedger(4, chunk_size=0)
    with pytest.raises(ValueError):
        TrialLedger(4, lease_seconds=0.0)
