"""Scenario-wide shared cache of signature-verification verdicts.

PR 2 gave every node a private LRU memo of ``(public_key, payload,
signature)`` -> verdict, which collapses the *same node* re-checking the
same flooded copy.  A flooded, signed control message is however
verified at *many* nodes -- every relay under ``verify_at_intermediate``,
every destination copy -- and each node used to pay the backend
computation once even though the verdict is a pure function of the
triple.  :class:`SharedVerifyCache` is the per-scenario promotion of
that memo: one instance hangs off :class:`~repro.core.context.NetContext`
and a signature verified once at *any* node is a hit everywhere.

Byte-identity contract: a shared hit replays the **exact observable
sequence of a real verify** -- the per-node LRU is consulted first and
left untouched in semantics, the ``verify`` metric op is counted, the
backend's simulated ``op_cost`` is charged as crypto debt -- and only
the backend's *host-time* computation is skipped.  Hit/miss/eviction
counters therefore live on this object (surfaced via
``Scenario.enable_crypto_stats`` and the telemetry sidecar), never in
``MetricsCollector.summary()``: a summary field that moved with the
flag would break the A/B byte-compare.

Key design: ``(backend_name, public_key, payload, signature)``.  The
:class:`~repro.crypto.keys.PublicKey` hashes through its canonical byte
encoding, so the key is effectively ``(backend, pubkey_bytes, message
bytes, signature bytes)``; hashing the raw bytes costs a siphash pass,
which is far cheaper than hashing them *again* through SHA-256 to build
a digest key would be (simsig's whole verify is one SHA-256 -- a digest
key would cost as much as the work it saves).  Negative verdicts are
cached too, and safely: a verdict is a deterministic pure function of
the exact triple, so a cached ``False`` can only ever answer the same
forged triple again -- it can never mask a *different* signature, which
hashes to a different key (regression-tested against the adversary
scenarios in ``tests/test_crypto_equivalence.py``).
"""

from __future__ import annotations

from collections import OrderedDict


class SharedVerifyCache:
    """Bounded LRU of verification verdicts, shared by a scenario's nodes.

    Execution-only observability: :attr:`hits`, :attr:`misses`,
    :attr:`evictions` and the per-node :attr:`hits_by_node` breakdown
    measure host work saved and never feed simulation-visible state.
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("SharedVerifyCache capacity must be >= 1")
        self.capacity = int(capacity)
        self._entries: OrderedDict[tuple, bool] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: node name -> shared hits observed there (the per-node
        #: ``verify_shared_hit`` counter; execution-only by design).
        self.hits_by_node: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: tuple, node_name: str = "") -> bool | None:
        """The cached verdict for ``key``, or ``None`` on a miss.

        Counts the hit/miss and refreshes LRU recency; ``node_name``
        attributes the hit in :attr:`hits_by_node`.
        """
        verdict = self._entries.get(key)
        if verdict is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        if node_name:
            self.hits_by_node[node_name] = self.hits_by_node.get(node_name, 0) + 1
        return verdict

    def peek(self, key: tuple) -> bool | None:
        """Non-mutating :meth:`lookup`: no counters, no recency update.

        Used by the batch-verify pre-pass to decide which triples need a
        real computation without perturbing the hit statistics that the
        sequential replay will record.
        """
        return self._entries.get(key)

    def store(self, key: tuple, verdict: bool) -> None:
        """Memoize ``verdict`` (True *and* False; see module docstring)."""
        self._entries[key] = verdict
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.hits_by_node.clear()

    def stats(self) -> dict:
        """JSON-clean execution counters (for crypto_stats / telemetry)."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "nodes_hitting": len(self.hits_by_node),
        }

    def __repr__(self) -> str:
        return (
            f"SharedVerifyCache(size={len(self._entries)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
