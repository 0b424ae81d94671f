"""Relayed copies take their wire size from the copy they were made from.

``Node._trace_send`` reads ``msg.wire_size()`` for every frame.  The
relay helpers -- ``Message.forwarded``, ``AREQ.append_hop``,
``RREQ.append_entry`` and ``DataPacket.advance`` -- give a copy its
parent's size plus the bytes they append, so relaying never runs the
encoder.  The encoder stays the one definition of the layout: every
size below is checked against ``len(encode_message(msg))``.
"""

import dataclasses

import pytest

from repro.core.node import Node
from repro.crypto.backend import get_backend
from repro.crypto.keys import PublicKey
from repro.ipv6.address import IPv6Address
from repro.messages.base import Message
from repro.messages.bootstrap import AREQ
from repro.messages.codec import MESSAGE_TYPES, encode_call_count, encode_message
from repro.messages.data import DataPacket
from repro.messages.routing import RREQ, SRREntry
from repro.routing.dsr import NULL_KEY
from repro.scenarios import ScenarioBuilder
from repro.scenarios.attacks import add_forger, add_replayer, add_rerr_spammer
from repro.scenarios.workloads import CBRTraffic
from conftest import chain_scenario
from test_messages_codec import A1, A2, A3, KEY, sample_messages

RSA_KEY = get_backend("rsa").generate_keypair(b"relay-sizes").public


def type_name(msg):
    return type(msg).__name__


# -- (a) the encoder as size oracle over whole runs ---------------------------

def newest_entry_unsigned(msg):
    """Is ``msg`` an RREQ whose newest SRR entry has not been signed yet?"""
    return isinstance(msg, RREQ) and bool(msg.srr) and hasattr(msg.srr[-1], "_signer")


@pytest.fixture
def frames(monkeypatch):
    """``(sent, mismatched, deferred)``: every frame's message; the
    summary of each one whose ``wire_size()`` differs from its encoded
    length or whose sizing signed its newest SRR entry; and the relayed
    RREQs sized with that entry still unsigned."""
    sent = []
    mismatched = []
    deferred = []
    trace_send = Node._trace_send

    def checked(node, msg, next_hop=None):
        unsigned = newest_entry_unsigned(msg)
        size = trace_send(node, msg, next_hop)
        if unsigned:
            if newest_entry_unsigned(msg):
                deferred.append(msg)
            else:
                mismatched.append("signed by sizing: " + msg.summary())
        if size != len(encode_message(msg)):
            mismatched.append(msg.summary())
        sent.append(msg)
        return size

    monkeypatch.setattr(Node, "_trace_send", checked)
    return sent, mismatched, deferred


def sent_names(sent):
    return {type(m).META.name for m in sent}


def test_sizes_match_encoder_on_rsa_chain_with_data_crep_rerr_and_replays(frames):
    sent, mismatched, deferred = frames
    sc = chain_scenario(n=5, seed=7, crypto_backend="rsa").build()
    replayer = add_replayer(sc, (500.0, 120.0)).component("replayer")
    sc.bootstrap_all()
    s_prime, s, d = sc.hosts[0], sc.hosts[1], sc.hosts[4]
    s.router.send_data(d.ip, b"warm-up")
    sc.run(duration=5.0)
    s_prime.router.send_data(d.ip, b"via-cache")  # answered from s's cache
    sc.run(duration=10.0)
    sc.medium.set_position(sc.hosts[3].link_id, (99999.0, 99999.0))
    s_prime.router.send_data(d.ip, b"doomed")  # the broken link is reported
    sc.run(duration=20.0)
    assert replayer.replay_everything() > 0  # recorded RREPs and RERRs
    sc.run(duration=5.0)
    assert sc.metrics.crypto_ops["rsa.sign"] > 0
    assert {"AREQ", "RREQ", "RREP", "CREP", "DATA", "ACK", "RERR"} <= sent_names(sent)
    assert mismatched == []
    assert deferred


def grid_bootstrap():
    """A 25-host simsig grid in which every host registers a name."""
    sc = ScenarioBuilder(seed=3).grid(25, spacing=180.0).with_dns((360.0, 360.0)).build()
    sc.bootstrap_all(names={h.name: f"{h.name}.manet" for h in sc.hosts})
    return sc


def test_sizes_match_encoder_on_simsig_grid_bootstrap_with_names(frames):
    sent, mismatched, deferred = frames
    sc = grid_bootstrap()
    assert sc.configured_count() == len(sc.hosts)
    assert "AREQ" in sent_names(sent)
    assert mismatched == []


def test_sizes_match_encoder_on_mobile_run_with_faults_and_adversaries(frames):
    """Corrupted copies (a plain ``replace``), re-DAD after a crash and a
    partition heal, spoofed SRR entries, false RERRs and replays."""
    sent, mismatched, deferred = frames
    sc = (ScenarioBuilder(seed=11).grid(16, spacing=180.0)
          .with_dns((270.0, 270.0))
          .random_waypoint(speed=(1.0, 5.0), pause=2.0)
          .faults({"events": [
              {"kind": "corrupt", "at": 1.0, "duration": 4.0, "rate": 0.2},
              {"kind": "crash", "at": 2.0, "node": 5, "recover_after": 4.0},
              {"kind": "partition", "at": 8.0, "duration": 3.0, "groups": 2},
          ]})
          .build())
    forger = add_forger(sc, (270.0, 90.0), spoof_hop_ip=IPv6Address("fec0::bad"),
                        forge_acks=True)
    spammer = add_rerr_spammer(sc, (270.0, 450.0))
    replayer = add_replayer(sc, (90.0, 270.0)).component("replayer")
    sc.bootstrap_all()
    for i, j in ((0, 15), (3, 12), (12, 1), (15, 4)):
        CBRTraffic(sc.hosts[i], sc.hosts[j].ip, interval=0.5, count=24)
    sc.run(duration=16.0)
    stats = sc.faults.stats()
    assert stats["frames_corrupted"] > 0 and stats["fault_crashes"] == 1
    assert stats["re_dad_count"] > 0
    assert forger.router.hops_spoofed > 0
    assert spammer.router.rerrs_spammed > 0
    assert replayer.replays_fired > 0
    assert {"AREQ", "RREQ", "RREP", "DATA", "ACK", "RERR"} <= sent_names(sent)
    assert mismatched == []
    assert deferred


# -- (b) Message.replace builds what dataclasses.replace builds ---------------

def other_value(value):
    """A different value of the same type."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 0.25
    if isinstance(value, str):
        return value + ".x"
    if isinstance(value, bytes):
        return value + b"\x01"
    if isinstance(value, IPv6Address):
        return IPv6Address(value.value ^ 1)
    if isinstance(value, PublicKey):
        return KEY if value == RSA_KEY else RSA_KEY
    if isinstance(value, tuple):
        return value[1:] if value else (A1,)
    raise AssertionError(f"no other value for {value!r}")


@pytest.mark.parametrize("msg", sample_messages(), ids=type_name)
def test_replace_matches_dataclasses_replace(msg):
    msg.wire_size()  # the original holds its bytes and size
    for f in dataclasses.fields(msg):
        value = other_value(getattr(msg, f.name))
        ours = msg.replace(**{f.name: value})
        ref = dataclasses.replace(msg, **{f.name: value})
        assert type(ours) is type(ref)
        assert ours == ref and hash(ours) == hash(ref)
        # the field dict and nothing else: no bytes or size carried over
        assert vars(ours) == vars(ref)
        assert ours.wire_size() == len(encode_message(ref))
    assert msg.replace() == msg and msg.replace() is not msg


@pytest.mark.parametrize("msg", sample_messages(), ids=type_name)
def test_replace_refuses_a_name_that_is_not_a_field(msg):
    with pytest.raises(TypeError, match="no_such_field"):
        msg.replace(no_such_field=1)
    with pytest.raises(TypeError):
        msg.replace(META=None)


def test_no_message_type_needs_its_init():
    """``replace`` copies the field dict instead of running ``__init__``;
    a ``__post_init__`` or an ``init=False`` field would be skipped."""
    for cls in MESSAGE_TYPES.values():
        assert "__post_init__" not in dir(cls), cls.__name__
        assert all(f.init for f in dataclasses.fields(cls)), cls.__name__


# -- (c) each relay helper sizes its copy as the encoder does -----------------

ENTRIES = (
    SRREntry(ip=A2, signature=b"\x01" * 16, public_key=KEY, rn=42),
    SRREntry(ip=A3, signature=b"\x02" * 64, public_key=RSA_KEY, rn=7),
    SRREntry(ip=A1, signature=b"", public_key=NULL_KEY, rn=0),  # plain DSR
)

#: helper name -> (a fresh parent, the helper applied as relay hop i)
HELPERS = {
    "append_hop": (
        lambda: AREQ(sip=A1, seq=9, domain_name="host.manet", ch=777),
        lambda msg, i: msg.append_hop((A2, A3, A1)[i]),
    ),
    "append_entry": (
        lambda: RREQ(sip=A1, dip=A3, seq=5, srr=(), source_signature=b"\x07" * 64,
                     source_public_key=RSA_KEY, source_rn=1),
        lambda msg, i: msg.append_entry(ENTRIES[i]),
    ),
    "advance": (
        lambda: DataPacket(sip=A1, dip=A3, seq=11, route=(A2, A3, A1),
                           payload=b"hello", sent_at=1.5),
        lambda msg, i: msg.advance(),
    ),
    "forwarded": (
        lambda: AREQ(sip=A1, seq=9, domain_name="host.manet", ch=777,
                     route_record=(A2, A3)),
        lambda msg, i: msg.forwarded(),
    ),
}


@pytest.mark.parametrize("helper", sorted(HELPERS))
def test_relay_helper_sizes_its_copy_as_the_encoder_does(helper):
    make, relay = HELPERS[helper]
    # a parent whose size was never computed
    msg = make()
    assert "_wire_size" not in vars(msg)
    for hop in range(3):
        msg = relay(msg, hop)
        assert msg.wire_size() == len(encode_message(msg))

    # a sized parent: its relayed copies take their sizes without encoding
    msg = make()
    msg.wire_size()
    base = encode_call_count()
    copies = []
    for hop in range(3):
        msg = relay(msg, hop)
        copies.append((msg, msg.wire_size()))
    assert encode_call_count() == base
    for copy, size in copies:
        assert size == len(encode_message(copy))


@pytest.mark.parametrize("msg", sample_messages() + sample_messages(RSA_KEY),
                         ids=type_name)
def test_forwarded_copy_keeps_the_size_for_every_type(msg):
    fwd = msg.forwarded()
    assert fwd.hop_limit == msg.hop_limit - 1
    assert fwd.wire_size() == len(encode_message(fwd)) == msg.wire_size()


# -- (d) the encoder runs per originated message, not per frame ---------------

def test_grid_bootstrap_encodes_once_per_message_no_relay_made(monkeypatch):
    relay_made = []  # kept alive, so the ids below stay unique
    relayed = Message._relayed

    def tracked(msg, grown, **changes):
        copy = relayed(msg, grown, **changes)
        relay_made.append(copy)
        return copy

    sent = []
    trace_send = Node._trace_send

    def counted(node, msg, next_hop=None):
        sent.append(msg)
        return trace_send(node, msg, next_hop)

    monkeypatch.setattr(Message, "_relayed", tracked)
    monkeypatch.setattr(Node, "_trace_send", counted)
    base = encode_call_count()
    grid_bootstrap()
    encodes = encode_call_count() - base
    made_by_relay = {id(m) for m in relay_made}
    originated = {id(m) for m in sent} - made_by_relay
    assert relay_made and originated
    assert encodes == len(originated)
    assert len(sent) > 10 * encodes
