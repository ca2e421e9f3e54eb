"""Print the SHA-256 of the certificates of three standing input sets.

Each set hashes one line per input, in input order: the certificate JSON
(``certificate_to_json``), or ``null`` when the input is not a complete
intersection.  The inputs come from ``perfbench/workloads.make_inputs``:

* ``sweep``: the sweep list at seed 1729, full size (29,491 sequences);
* ``deep_shift``: every shift of every deep_shift window at seed 7, full
  size, decided by ``ci_at``;
* ``criterion_08``: the sweep list grown to criterion 08's size, every
  gcd-1 sequence of length 3 or 4 on 1..40 plus 200 seeded length-5
  sequences at seed 1729 (94,381 sequences).

A change that keeps every certificate byte-identical prints the same three
digests before and after.  Takes about ten seconds on one core.

Usage: python3 tools/cert_digests.py   (from the root of a source checkout)
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from cishift import certificates, delorme, seqcore, shiftscan  # noqa: E402

FULL = workloads.SIZES["full"]
CRITERION_08 = replace(FULL, sweep_top=40)


def _digest(certs) -> str:
    digest = hashlib.sha256()
    for cert in certs:
        text = "null" if cert is None else certificates.certificate_to_json(cert)
        digest.update(text.encode() + b"\n")
    return digest.hexdigest()


def _decided(seed: int, size: workloads.Size):
    for seq in workloads.make_inputs("sweep", seed, size)["seqs"]:
        yield delorme.is_complete_intersection(seq)


def _shifts(seed: int):
    for base, _, lo, hi in workloads.make_inputs("deep_shift", seed, FULL)["windows"]:
        family = seqcore.BaseSequence(base)
        for j in range(lo, hi + 1):
            yield shiftscan.ci_at(family, j)


def main() -> int:
    print(f"sweep         seed 1729  {_digest(_decided(1729, FULL))}")
    print(f"deep_shift    seed 7     {_digest(_shifts(7))}")
    print(f"criterion_08  seed 1729  {_digest(_decided(1729, CRITERION_08))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
