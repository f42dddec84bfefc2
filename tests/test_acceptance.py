"""Acceptance suite: every criterion runs at its stated tolerance (all are
exact) and prints one pass/fail line.  The same battery backs the CLI
``selftest`` subcommand.

Each criterion must pass within its wall-clock budget in ``BUDGETS`` (an
asserted gate, in seconds), and its whole result must hash to the digest
in ``DIGESTS``, so a refactor cannot change any reported figure silently.
"""

import hashlib
import json
import time

import pytest

from cliffdegen import acceptance, cli

BUDGETS = {
    "form-reconstruction-round-trip": 30,
    "structure-constant-oracle-agreement": 60,
    "even-algebra-matrix-identification": 10,
    "even-to-odd-spin-restriction": 60,
    "lipschitz-monoid-axioms": 60,
    "matrix-algebra-degeneration": 30,
    "plethysm-g2": 10,
    "plethysm-f4-c3": 120,
    "local-models": 30,
    "weyl-dimension-self-consistency": 60,
}

# sha256 of json.dumps(cli._jsonable(result), sort_keys=True) for each
# criterion at its default arguments
DIGESTS = {
    "form-reconstruction-round-trip": "049153f82765887be09a40e0e4ee48a6c87b4600cc9b06344fc9d61ea1d90a39",
    "structure-constant-oracle-agreement": "e6da53b0dc0f55ea9cc172f3c45b12864ec75059b88b339370605f2b7b6eac56",
    "even-algebra-matrix-identification": "f8c08feeef0d933035aaa27fcaea3a36d4269c82526ab8f60e4e1fc097f93428",
    "even-to-odd-spin-restriction": "30c39c7d3412ee582c6d802b00d4d4f19c22635ec37849a058a7c1b7f50a75fa",
    "lipschitz-monoid-axioms": "de9819291b329c13b00cc9f7e9763544c9c6ad4f18aca92bc61bdf8d688763c0",
    "matrix-algebra-degeneration": "bea494daf47a13eab52491e9b1502cd9f81ab54ebf40bcb200a630f4f1bf5073",
    "plethysm-g2": "119549ae3747ff0e9a0a4a6695afbcffe6928899e63e69d50b941623409ddb63",
    "plethysm-f4-c3": "a2cebcb2e70fea0b2520d4eb9eefd0b3a5f85f8df6a51d201af26d070cd23a56",
    "local-models": "20b6e5617ff9a1501455a29a1326f58d710524dfacc5cf999a183ad8dcf350af",
    "weyl-dimension-self-consistency": "702cb1aa760dc1ee163ac472b3163d1a1625568183cabf0f541e7c0a6dc9bf2d",
}


@pytest.mark.parametrize(
    "criterion", acceptance.ALL_CRITERIA, ids=lambda fn: fn.__name__
)
def test_criterion(criterion):
    t0 = time.time()
    result = criterion()
    elapsed = time.time() - t0
    status = "PASS" if result["ok"] else "FAIL"
    print(f"[acceptance] {status} {result['name']} ({elapsed:.1f}s)")
    assert result["ok"], result["details"]
    budget = BUDGETS[result["name"]]
    assert elapsed < budget, f"{result['name']} exceeded {budget}s: {elapsed:.1f}s"
    encoded = json.dumps(cli._jsonable(result), sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest() == DIGESTS[result["name"]]
