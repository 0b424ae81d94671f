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
