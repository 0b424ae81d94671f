"""Every protocol knob in one dataclass.

Defaults follow the paper where it gives guidance ("a predefined period
of time" for DAD, low initial credit, "a very large amount" of penalty)
and sensible 2003-era 802.11 values elsewhere.  Experiments override
selectively; ablation benchmarks sweep the fields called out in
DESIGN.md Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class NodeConfig:
    """Configuration for one protocol node (usually shared network-wide)."""

    # -- identity / crypto -------------------------------------------------
    #: Crypto backend name: "simsig" (fast) or "rsa" (real algebra).
    crypto_backend: str = "simsig"
    #: Add each sign/verify's simulated cost to the node's next transmission.
    charge_crypto_delay: bool = True
    #: Per-node LRU memoization of signature checks, keyed on
    #: (public_key, payload, signature).  Flooded RREQs arrive as many
    #: identical copies; re-checking the same triple is pure waste, so a
    #: hit costs no crypto debt and counts as "verify_cached" in the
    #: metrics.  0 disables the cache.
    verify_cache_size: int = 128
    #: Crypto fast path, layer 1: consult the scenario-wide
    #: SharedVerifyCache on a per-node-LRU miss, so a signature verified
    #: at *any* node costs one real backend computation network-wide.
    #: Byte-identical contract: a shared hit still counts the "verify"
    #: metric and charges crypto debt -- only the host-time computation
    #: is skipped.
    crypto_shared_cache: bool = True
    #: Capacity of the scenario-wide shared verify cache (entries).
    #: 0 disables it even when crypto_shared_cache is True.
    shared_verify_cache_size: int = 4096
    #: Crypto fast path, layer 2: verify simultaneously-presented
    #: signatures (a RREQ's source-route entries) in one backend bulk
    #: pass, then replay metrics/debt/LRU effects sequentially so the
    #: observable stream is identical to one-at-a-time verification.
    crypto_batch_verify: bool = True
    #: Crypto fast path, layer 3: derive node keypairs through the
    #: process-wide (backend, seed) KeypairPool so a reused campaign
    #: worker never regenerates a pair it has already derived.
    #: Deterministic keygen makes the pooled pair bit-identical to a
    #: fresh derivation.
    crypto_keypair_pool: bool = True

    # -- generic -------------------------------------------------------------
    #: IPv6 hop limit for flooded/forwarded control messages.
    hop_limit: int = 64
    #: Max jitter (s) before rebroadcasting a flood (collision avoidance).
    rebroadcast_jitter: float = 0.01

    # -- bootstrap (Section 3.1) ----------------------------------------------
    #: "Predefined period of time" S waits for AREP/DREP before claiming
    #: the address.  Must exceed a network diameter round trip.
    dad_timeout: float = 2.0
    #: Give up (mis)configuring after this many DAD rounds.
    dad_max_retries: int = 8
    #: How long the DNS keeps the challenge of a pending registration
    #: ("the DNS should keep a copy of the ch ... for a while").
    dns_challenge_ttl: float = 10.0
    #: The DNS waits this long after an AREQ before registering (DN, SIP),
    #: giving duplicate-holders' warning AREPs time to arrive.
    dns_registration_delay: float = 2.0
    #: Re-flood a registration AREQ this long after configuring.  Early
    #: joiners probe before any neighbour can relay, so the DNS may never
    #: hear their original AREQ; the refresh closes that gap (hosts may
    #: re-run DAD at any time, and 6DNAR registration rides on it).
    registration_refresh_delay: float = 3.0
    enable_registration_refresh: bool = True

    # -- routing (Sections 3.3-3.4) ---------------------------------------------
    #: Wait for RREP before retrying discovery.
    rreq_timeout: float = 2.0
    rreq_max_retries: int = 3
    #: Per-retry multiplier on rreq_timeout: retry n waits
    #: rreq_timeout * rreq_backoff**n, spreading rediscovery storms out
    #: after a crash or partition.  The default 1.0 is a float-exact
    #: no-op (x * 1.0**n == x), preserving pre-existing timings.
    rreq_backoff: float = 1.0
    #: A destination answers up to this many copies of one RREQ (each
    #: copy arrives over a different path, so each reply offers the
    #: source a distinct candidate route -- DSR behaviour, bounded).
    max_route_replies: int = 3
    #: After the first valid reply completes a discovery, hold queued
    #: packets briefly so replies over alternate paths arrive and the
    #: credit-aware policy has actual choices (first-reply-wins would
    #: hand every fresh discovery to the shortest -- often adversarial --
    #: path).  Costs this much extra latency on cold-cache sends only.
    rrep_collection_window: float = 0.05
    #: Paper: only D verifies the SRR.  True = intermediates also verify
    #: the source signature before rebroadcast (paranoid variant).
    verify_at_intermediate: bool = False
    #: Answer RREQs from route cache with CREP (Section 3.3).
    enable_crep: bool = True
    route_cache_capacity: int = 64
    #: Entries expire after this long (stale MANET routes are poison).
    route_cache_ttl: float = 60.0

    # -- DNS client ----------------------------------------------------------------
    #: Re-send a timed-out DNS query this many times before reporting
    #: failure to the caller.  0 (the default) keeps the historical
    #: single-shot behaviour byte-for-byte.
    dns_query_retries: int = 0
    #: Per-retry multiplier on the query timeout (retry n waits
    #: timeout * dns_query_backoff**n).
    dns_query_backoff: float = 2.0

    # -- data plane ----------------------------------------------------------------
    #: End-to-end ACK wait before the source declares the packet lost.
    ack_timeout: float = 1.0
    #: Send retries per packet (each may trigger a rediscovery).
    data_max_retries: int = 2

    # -- black-hole probing (Section 3.4: "traverse the route and test
    # -- the integrality of each host") ---------------------------------------------
    enable_probing: bool = True
    #: Silent (un-ACKed, un-RERRed) failures on one route before probing it.
    probe_trigger_failures: int = 2
    probe_timeout: float = 1.0

    # -- credit management (Section 3.4) -----------------------------------------------
    #: "A new node should be given a low credit."
    credit_initial: float = 1.0
    #: "The credit of each host in the route is increased by one."
    credit_reward: float = 1.0
    #: "Its credits are decreased by a very large amount."
    credit_penalty: float = 50.0
    #: Route scoring: "min" (bottleneck credit) or "mean".
    credit_route_metric: str = "min"
    #: In a "highly hostile environment", S strictly prefers high-credit
    #: routes; otherwise credit only breaks ties against shorter routes.
    hostile_mode: bool = False
    #: RERRs from one reporter within rerr_window before it is suspected.
    rerr_suspicion_threshold: int = 3
    rerr_window: float = 30.0

    def with_overrides(self, **changes) -> "NodeConfig":
        """A copy with the given fields replaced (frozen dataclass)."""
        return replace(self, **changes)
