"""The mutant table: each security check and the tests that kill it.

Each row disables one check the paper names with an exact patch: its
``old`` text occurs exactly once in ``file`` (a path under ``src/``),
``new`` replaces it, and every test that ``tests`` selects must then
fail.  ``tests/test_mutants.py`` checks on every tier-1 run that each
``old`` still occurs once and each test id collects; running this file
applies each row to a temporary copy of ``src/``, runs only that row's
tests against it, and exits 1 if any of them still passes::

    python tests/mutants.py            # every row
    python tests/mutants.py new_cga    # rows whose name contains new_cga

pytest does not collect this file: its name does not start with
``test_``.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MUTANTS = [
    {
        "name": "identity_cga",
        "site": "verify_identity's CGA step (low64(IP) == H(PK, rn))",
        "file": "repro/bootstrap/verifier.py",
        "old": "if not verify_cga(ip, params):",
        "new": "if False:",
        "tests": ["tests/test_verifier.py::test_wrong_key_fails_cga",
                  "tests/test_attacks_impersonation.py::"
                  "test_address_takeover_fails_identity_checks"],
    },
    {
        "name": "identity_signature",
        "site": "verify_identity's signature step",
        "file": "repro/bootstrap/verifier.py",
        "old": "if not check(public_key, payload, signature):",
        "new": "if False:",
        "tests": ["tests/test_verifier.py::test_valid_cga_but_bad_signature_fails",
                  "tests/test_routing_discovery.py::"
                  "test_source_rejects_tampered_rrep_route"],
    },
    {
        "name": "site_local",
        "site": "the site-local rule of the CGA check (verify_cga)",
        "file": "repro/ipv6/cga.py",
        "old": "if not is_site_local(addr):",
        "new": "if False:",
        "tests": ["tests/test_ipv6_cga.py::test_verify_rejects_non_site_local"],
    },
    {
        "name": "srr_hops",
        "site": "D's per-hop SRR check "
                "(SecureDSRRouter._verify_rreq_as_destination)",
        "file": "repro/routing/secure_dsr.py",
        "old": "if self.VERIFY_HOPS:",
        "new": "if False:",
        "tests": ["tests/test_routing_discovery.py::test_destination_rejects_tampered_hop",
                  "tests/test_routing_discovery.py::"
                  "test_destination_rejects_tampered_deferred_hop",
                  "tests/test_attacks_replay_forge.py::"
                  "test_spoofed_hop_rejected_by_full_protocol"],
    },
    {
        "name": "rreq_source_signature",
        "site": "D's check of the RREQ source signature "
                "(SecureDSRRouter._verify_rreq_as_destination)",
        "file": "repro/routing/secure_dsr.py",
        "old": "if not check:\n"
               "                self.node.verdict(f\"rreq.rejected.source_"
               "{check.reason}\")",
        "new": "if False:\n"
               "                self.node.verdict(f\"rreq.rejected.source_"
               "{check.reason}\")",
        "tests": ["tests/test_routing_discovery.py::"
                  "test_destination_rejects_a_source_signature_that_does_not_verify"],
    },
    {
        "name": "crep_fresh_leg",
        "site": "the CREP fresh leg's signature (SecureDSRRouter._consume_crep)",
        "file": "repro/routing/secure_dsr.py",
        "old": "if not fresh_check:",
        "new": "if False:",
        "tests": ["tests/test_routing_crep.py::"
                  "test_crep_with_a_fresh_leg_that_does_not_verify_is_rejected"],
    },
    {
        "name": "drep_to_joiner",
        "site": "the DNS signature on a DREP to a joiner "
                "(BootstrapManager._consume_drep)",
        "file": "repro/bootstrap/autoconf.py",
        "old": "or not self.node.verify(\n"
               "            dns_pk, payload, msg.signature\n"
               "        ):",
        "new": "or False:",
        "tests": ["tests/test_bootstrap.py::"
                  "test_forged_drep_does_not_take_a_joiners_name"],
    },
    {
        "name": "drep_after_configuration",
        "site": "the DNS signature on a refresh DREP "
                "(BootstrapManager._consume_refresh_drep)",
        "file": "repro/bootstrap/autoconf.py",
        "old": "if not self.node.verify(dns_pk, payload, msg.signature):",
        "new": "if False:",
        "tests": ["tests/test_bootstrap.py::"
                  "test_forged_refresh_drep_does_not_take_a_configured_name"],
    },
    {
        "name": "update_new_cga",
        "site": "the DNS update's new-address CGA check "
                "(DNSServer._validate_update)",
        "file": "repro/dns/server.py",
        "old": "if not verify_cga(req.new_ip, "
               "CGAParams(req.public_key, req.new_rn)):",
        "new": "if False:",
        "tests": ["tests/test_dns_service.py::"
                  "test_ip_change_to_an_address_not_a_cga_of_the_key_rejected"],
    },
    {
        "name": "update_signature",
        "site": "the DNS update's signature check (DNSServer._validate_update)",
        "file": "repro/dns/server.py",
        "old": "if not self.node.verify(req.public_key, payload, req.signature):",
        "new": "if False:",
        "tests": ["tests/test_dns_service.py::"
                  "test_ip_change_with_a_signature_that_does_not_verify_rejected"],
    },
    {
        "name": "update_reply",
        "site": "the client's check of the update reply "
                "(DNSClient._on_update_reply)",
        "file": "repro/dns/client.py",
        "old": "if dns_pk is None or not self.node.verify("
               "dns_pk, payload, msg.signature):",
        "new": "if dns_pk is None:",
        "tests": ["tests/test_dns_service.py::"
                  "test_forged_update_reply_is_rejected_by_the_client"],
    },
    {
        "name": "rrep_stale_seq",
        "site": "the RREP stale-seq check (SecureDSRRouter._consume_rrep)",
        "file": "repro/routing/secure_dsr.py",
        "old": "if expected_seq is None or msg.seq != expected_seq:",
        "new": "if False:",
        "tests": ["tests/test_attacks_replay_forge.py::"
                  "test_replayed_rreps_never_accepted"],
    },
    {
        "name": "rrep_identity",
        "site": "the RREP identity check (SecureDSRRouter._consume_rrep)",
        "file": "repro/routing/secure_dsr.py",
        "old": "if not check:\n"
               "                self.node.verdict(f\"rrep.rejected.{check.reason}\")",
        "new": "if False:\n"
               "                self.node.verdict(f\"rrep.rejected.{check.reason}\")",
        "tests": ["tests/test_routing_discovery.py::"
                  "test_source_rejects_tampered_rrep_route",
                  "tests/test_attacks_blackhole.py::"
                  "test_forged_rrep_blackhole_rejected_by_secure_protocol"],
    },
    {
        "name": "crep_cached_leg",
        "site": "the CREP cached leg's identity (SecureDSRRouter._consume_crep)",
        "file": "repro/routing/secure_dsr.py",
        "old": "if not cached_check:",
        "new": "if False:",
        "tests": ["tests/test_routing_crep.py::test_forged_crep_cached_leg_rejected"],
    },
    {
        "name": "ack_identity",
        "site": "the ACK identity check (SecureDSRRouter._consume_ack)",
        "file": "repro/routing/secure_dsr.py",
        "old": "if not check:\n"
               "                self.node.verdict(f\"ack.rejected.{check.reason}\")",
        "new": "if False:\n"
               "                self.node.verdict(f\"ack.rejected.{check.reason}\")",
        "tests": ["tests/test_routing_data.py::test_forged_ack_rejected_and_no_credit",
                  "tests/test_attacks_replay_forge.py::"
                  "test_forger_gains_no_credit_from_forged_acks"],
    },
    {
        "name": "rerr_identity",
        "site": "the RERR identity check (SecureDSRRouter._consume_rerr)",
        "file": "repro/routing/secure_dsr.py",
        "old": "if not check:\n"
               "                self.node.verdict(f\"rerr.rejected.{check.reason}\")",
        "new": "if False:\n"
               "                self.node.verdict(f\"rerr.rejected.{check.reason}\")",
        "tests": ["tests/test_routing_rerr.py::test_rerr_with_forged_identity_rejected"],
    },
    {
        "name": "rerr_on_route",
        "site": "RERR's on-route rule (SecureDSRRouter._consume_rerr)",
        "file": "repro/routing/secure_dsr.py",
        "old": "if not self._reporter_on_active_route(msg.reporter_ip, "
               "msg.broken_next_hop):",
        "new": "if False:",
        "tests": ["tests/test_routing_rerr.py::test_offpath_forged_rerr_rejected",
                  "tests/test_attacks_rerr.py::"
                  "test_offpath_forged_rerr_rejected_by_on_route_check"],
    },
    {
        "name": "probe_penalty",
        "site": "the penalty a probe charges its suspects "
                "(SecureDSRRouter._evaluate_probe)",
        "file": "repro/routing/secure_dsr.py",
        "old": "self.credits.penalize(s)\n",
        "new": "pass\n",
        "tests": ["tests/test_attacks_blackhole.py::"
                  "test_secure_protocol_detects_and_routes_around_blackhole"],
    },
    {
        "name": "ack_reward",
        "site": "the credit an ACK pays the route (SecureDSRRouter._consume_ack)",
        "file": "repro/routing/secure_dsr.py",
        "old": "self.credits.reward_route(pending.route)",
        "new": "pass",
        "tests": ["tests/test_routing_data.py::test_credit_rewarded_on_ack"],
    },
    {
        "name": "joiner_arep",
        "site": "the joiner's AREP check (BootstrapManager._consume_arep)",
        "file": "repro/bootstrap/autoconf.py",
        "old": "if not check:\n"
               "            self.node.verdict(f\"arep.rejected.{check.reason}\")",
        "new": "if False:\n"
               "            self.node.verdict(f\"arep.rejected.{check.reason}\")",
        "tests": ["tests/test_bootstrap.py::test_forged_arep_does_not_stop_dad",
                  "tests/test_bootstrap.py::test_replayed_arep_rejected_by_challenge"],
    },
    {
        "name": "lookup_answer",
        "site": "the DNS client's check of a lookup answer "
                "(DNSClient._on_response)",
        "file": "repro/dns/client.py",
        "old": "            or not self.node.verify(dns_pk, payload, msg.signature)\n"
               "        ):",
        "new": "        ):",
        "tests": ["benchmarks/test_attack_dns_impersonation.py::"
                  "test_dns_impersonation_never_poisons"],
    },
    {
        "name": "anycast_signature",
        "site": "the DNS-key signature check for an anycast identity "
                "(SecureDSRRouter._check_identity)",
        "file": "repro/routing/secure_dsr.py",
        "old": "if not self.node.verify(dns_pk, payload, sig):",
        "new": "if False:",
        "tests": ["tests/test_attacks_impersonation.py::"
                  "test_host_aliasing_the_dns_anycast_cannot_answer_for_it"],
    },
    {
        "name": "warning_arep",
        "site": "the DNS server's check of a warning AREP (DNSServer._on_arep)",
        "file": "repro/dns/server.py",
        "old": "if not check:\n"
               "            self.node.verdict(f\"dns.warning_arep.rejected."
               "{check.reason}\")",
        "new": "if False:\n"
               "            self.node.verdict(f\"dns.warning_arep.rejected."
               "{check.reason}\")",
        "tests": ["tests/test_dns_service.py::"
                  "test_forged_warning_arep_does_not_cancel_a_registration"],
    },
    {
        "name": "warning_relay",
        "site": "a relay's dedup of the flooded DNS warning on its content "
                "(BootstrapManager._relay_dns_warning)",
        "file": "repro/bootstrap/autoconf.py",
        "old": "key = msg.content()",
        "new": "key = (msg.sip, msg.ch)",
        "tests": ["tests/test_dns_service.py::"
                  "test_a_relay_forwards_the_holders_warning_after_a_forged_one"],
    },
]


def apply(row: dict, src: str) -> None:
    """Patch ``row`` into the source tree ``src``; its ``old`` must occur once."""
    path = os.path.join(src, row["file"])
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    count = text.count(row["old"])
    if count != 1:
        raise ValueError(f"{row['name']}: 'old' occurs {count} times in "
                         f"{row['file']}, expected once")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(row["old"], row["new"]))


def run_row(row: dict) -> tuple[bool, str]:
    """Run ``row``'s tests against a mutated copy of ``src/``.

    Returns ``(killed, summary)``: killed when the tests ran and none
    of them passed.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(ROOT, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        apply(row, src)
        env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             *row["tests"]],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    killed = proc.returncode == 1 and not re.search(r"\d+ passed", summary)
    return killed, summary


def main(argv: list[str]) -> int:
    rows = [row for row in MUTANTS
            if not argv or any(arg in row["name"] for arg in argv)]
    survivors = []
    for row in rows:
        killed, summary = run_row(row)
        print(f"{'killed ' if killed else 'SURVIVED'} {row['name']}: "
              f"{row['site']} -- {summary}", flush=True)
        if not killed:
            survivors.append(row["name"])
    if survivors:
        print(f"{len(survivors)} of {len(rows)} mutants survived: "
              f"{', '.join(survivors)}", file=sys.stderr)
        return 1
    print(f"all {len(rows)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
