"""A relay's SRR entry is signed on first read (Section 3.3).

An honest relay charges its hop's sign when it relays -- the ``sign``
crypto op, and the backend's simulated debt -- but the backend computes
the signature only when something first reads ``entry.signature``: D's
SRR check, an encode, ``==``/``hash`` or a trace summary.  In the
paper's setting only D reads it.  These tests pin when the bytes are
computed, that they are the eager entry's bytes, and that no copy of a
message carries the signer or the relay's private key.
"""

import copy
import dataclasses
import functools
import io
import pickle
from collections import Counter

import pytest

from repro.crypto.backend import create_backend
from repro.crypto.keys import PrivateKey
from repro.crypto.rsa import RSABackend
from repro.ipv6.address import IPv6Address
from repro.messages import signing
from repro.messages.codec import decode_message, encode_message
from repro.messages.routing import RREQ, SRREntry
from repro.routing.secure_dsr import SecureDSRRouter
from conftest import chain_scenario

PHANTOM = IPv6Address("fec0::dead:beef")


def unsigned(entry):
    """The entry still holds its signer: nothing has read its signature."""
    return hasattr(entry, "_signer")


def rsa_chain(n=5):
    sc = chain_scenario(n=n, seed=7, crypto_backend="rsa").build()
    sc.bootstrap_all()
    sc.trace.enabled = True  # keeps every sent copy; formats nothing
    return sc


def relayed_copies(sc):
    return [e.payload for e in sc.trace.sends("RREQ") if e.payload.srr]


class NoPrivateKeys(pickle.Pickler):
    """A pickler that fails on any ``PrivateKey`` it reaches."""

    def persistent_id(self, obj):
        if isinstance(obj, PrivateKey):
            raise pickle.PicklingError("reached a PrivateKey")
        return None


def pickle_refusing_keys(obj) -> bytes:
    buf = io.BytesIO()
    NoPrivateKeys(buf).dump(obj)
    return buf.getvalue()


# -- when the bytes are computed -----------------------------------------------

def test_a_relay_entry_is_signed_once_when_d_reads_it(monkeypatch):
    sc = rsa_chain()
    a, d = sc.hosts[0], sc.hosts[-1]
    backend = a.backend
    in_d_check = []
    signed = []  # (payload, whether D's SRR check was running)
    sign = RSABackend.sign
    verify_as_d = SecureDSRRouter._verify_rreq_as_destination

    def recording_sign(self, private, message):
        signed.append((message, bool(in_d_check)))
        return sign(self, private, message)

    def d_check(self, msg):
        in_d_check.append(msg)
        try:
            return verify_as_d(self, msg)
        finally:
            in_d_check.pop()

    monkeypatch.setattr(RSABackend, "sign", recording_sign)
    monkeypatch.setattr(SecureDSRRouter, "_verify_rreq_as_destination", d_check)
    signs_before = backend.signs
    a.router.discover(d.ip)
    sc.run(duration=5.0)
    assert sc.metrics.verdicts["rreq.accepted"] >= 1
    assert backend.signs - signs_before == len(signed)

    copies = relayed_copies(sc)
    assert {(m.sip, m.dip) for m in copies} == {(a.ip, d.ip)}
    (seq,) = {m.seq for m in copies}
    entries = {id(e): e for m in copies for e in m.srr}
    carried = Counter(id(e) for m in copies for e in m.srr)
    entry_of = {signing.srr_entry_payload(e.ip, seq): key for key, e in entries.items()}
    hop_signs = [(payload, inside) for payload, inside in signed if payload in entry_of]
    read = Counter(entry_of[payload] for payload, _ in hop_signs)
    # Every hop signature was computed inside D's check, each once --
    # also for entries that several copies carry.
    assert hop_signs and all(inside for _, inside in hop_signs)
    assert set(read.values()) == {1}
    assert max(carried[key] for key in read) > 1
    # The entries D never read were never signed.
    assert all(unsigned(e) for key, e in entries.items() if key not in read)
    assert not any(unsigned(entries[key]) for key in read)


def test_no_relay_signature_is_computed_toward_an_unreachable_address():
    sc = rsa_chain()
    a = sc.hosts[0]
    backend = a.backend
    signs_before = backend.signs
    charged_before = sc.metrics.crypto_total("sign")
    a.router.discover(PHANTOM)
    sc.run(duration=10.0)  # the first flood and every retry
    assert sc.metrics.discoveries_succeeded == 0
    copies = relayed_copies(sc)
    assert copies and {m.dip for m in copies} == {PHANTOM}
    assert all(unsigned(e) for m in copies for e in m.srr)
    # Every relay's sign is charged; the backend computed none of them.
    charged = sc.metrics.crypto_total("sign") - charged_before
    computed = backend.signs - signs_before
    assert charged - computed == len(copies)


# -- the bytes are the eager entry's ------------------------------------------

@pytest.mark.parametrize("backend_name", ["rsa", "simsig"])
def test_a_deferred_entry_matches_its_eager_twin(backend_name):
    backend = create_backend(backend_name)
    keys = backend.generate_keypair(b"deferred-twin")
    ip = IPv6Address("fec0::1:2:3:4")
    payload = signing.srr_entry_payload(ip, 77)
    eager = SRREntry(ip=ip, signature=backend.sign(keys.private, payload),
                     public_key=keys.public, rn=5)

    def deferred():
        entry = SRREntry.deferred(
            ip=ip, public_key=keys.public, rn=5,
            signer=functools.partial(backend.sign, keys.private, payload),
            signature_size=backend.signature_size(),
        )
        assert unsigned(entry)
        return entry

    def relayed(entry):
        return RREQ(sip=IPv6Address("fec0::1"), dip=IPv6Address("fec0::2"), seq=77,
                    srr=(), source_signature=eager.signature,
                    source_public_key=keys.public, source_rn=1).append_entry(entry)

    assert deferred() == eager and eager == deferred()
    assert hash(deferred()) == hash(eager)
    assert repr(deferred()) == repr(eager)
    assert relayed(deferred()).summary() == relayed(eager).summary()

    msg, twin = relayed(deferred()), relayed(eager)
    assert msg.wire_size() == twin.wire_size() == len(encode_message(twin))
    assert unsigned(msg.srr[-1])  # sized, not signed
    assert encode_message(msg) == encode_message(twin)
    assert decode_message(encode_message(msg)) == twin

    signs = backend.signs
    entry = deferred()
    assert entry.signature == eager.signature == entry.signature
    assert backend.signs == signs + 1
    assert not unsigned(entry)  # the signer is dropped once it has run
    with pytest.raises(dataclasses.FrozenInstanceError):
        entry.signature = b""


def test_a_signer_of_the_wrong_size_fails_loudly():
    backend = create_backend("simsig")
    keys = backend.generate_keypair(b"wrong-size")
    entry = SRREntry.deferred(
        ip=IPv6Address("fec0::1"), public_key=keys.public, rn=0,
        signer=functools.partial(backend.sign, keys.private, b"payload"),
        signature_size=backend.signature_size() + 1,
    )
    with pytest.raises(ValueError, match="sized as"):
        entry.signature


# -- no message or copy exposes the signer or the private key ------------------

def test_no_public_attribute_or_repr_of_an_entry_exposes_the_signer():
    sc = rsa_chain(n=4)
    relay = sc.hosts[1]
    relay.router._relay_rreq(RREQ(
        sip=sc.hosts[0].ip, dip=PHANTOM, seq=9, srr=(), source_signature=b"",
        source_public_key=sc.hosts[0].public_key, source_rn=0,
    ))
    sc.run(duration=0.5)
    entry = relayed_copies(sc)[0].srr[0]
    assert unsigned(entry)
    public = sorted(name for name in dir(entry) if not name.startswith("_"))
    assert public == ["decode", "deferred", "encode", "ip", "public_key", "rn",
                      "signature", "wire_size"]
    text = repr(entry)  # the first read: signs
    assert "PrivateKey" not in text and "partial" not in text
    assert not unsigned(entry)
    values = [getattr(entry, name) for name in public]
    assert not any(isinstance(v, PrivateKey) for v in values)
    assert not any(isinstance(v, functools.partial) for v in values)


def through_pickle(msg):
    return pickle.loads(pickle_refusing_keys(msg))


@pytest.mark.parametrize("duplicate", [copy.copy, copy.deepcopy, through_pickle],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_of_a_relayed_rreq_carry_bytes_and_no_signer(duplicate):
    sc = rsa_chain(n=4)
    backend = sc.hosts[0].backend
    sc.hosts[0].router.discover(PHANTOM)
    sc.run(duration=0.5)  # before the first retry
    msg = max(relayed_copies(sc), key=lambda m: len(m.srr))
    assert len(msg.srr) > 1 and all(unsigned(e) for e in msg.srr)
    # The signer holds the relay's key: the refusing pickler sees it.
    with pytest.raises(pickle.PicklingError):
        pickle_refusing_keys(msg.srr[0]._signer)

    dup = duplicate(msg)
    assert not any(unsigned(e) for e in dup.srr)
    pickle_refusing_keys(dup)
    assert dup == msg
    for entry in dup.srr:
        payload = signing.srr_entry_payload(entry.ip, msg.seq)
        assert backend.verify(entry.public_key, payload, entry.signature)
