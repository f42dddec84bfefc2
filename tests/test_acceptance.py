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
    "matrix-algebra-degeneration": 5,
    "plethysm-g2": 2,
    "plethysm-f4-c3": 2,
    "local-models": 30,
    "weyl-dimension-self-consistency": 2,
}

# sha256 of json.dumps(result, sort_keys=True) for each criterion run as
# `selftest --seed 7` runs it: each equals the sha256 of that criterion's
# entry in the selftest document
DIGESTS = {
    "form-reconstruction-round-trip": "049153f82765887be09a40e0e4ee48a6c87b4600cc9b06344fc9d61ea1d90a39",
    "structure-constant-oracle-agreement": "50b7bff38af65af563a2dcd047c388aa949be36804abb38fe4180398df0fc085",
    "even-algebra-matrix-identification": "f8c08feeef0d933035aaa27fcaea3a36d4269c82526ab8f60e4e1fc097f93428",
    "even-to-odd-spin-restriction": "30c39c7d3412ee582c6d802b00d4d4f19c22635ec37849a058a7c1b7f50a75fa",
    "lipschitz-monoid-axioms": "ddb40c6ff342c3ed4cb3ed5f4671ef65de7289f57604fb464b2b67f14e05ca61",
    "matrix-algebra-degeneration": "bea494daf47a13eab52491e9b1502cd9f81ab54ebf40bcb200a630f4f1bf5073",
    "plethysm-g2": "119549ae3747ff0e9a0a4a6695afbcffe6928899e63e69d50b941623409ddb63",
    "plethysm-f4-c3": "a2cebcb2e70fea0b2520d4eb9eefd0b3a5f85f8df6a51d201af26d070cd23a56",
    "local-models": "958d7a7ed85e2e52165274bfd1f0849208e4904a2e99147dac65ff305f73c77d",
    "weyl-dimension-self-consistency": "702cb1aa760dc1ee163ac472b3163d1a1625568183cabf0f541e7c0a6dc9bf2d",
}


# sha256 of the whole stdout of `cliffdegen selftest --seed 7`
SELFTEST_SEED7_SHA256 = "67554d1bdbb5d8f2f6a0c40783eb5e1ac9c1ec78193001184d5c96e7697278e6"


@pytest.fixture(scope="module")
def seed7_results():
    """criterion -> its result at seed 7, filled by test_criterion."""
    return {}


@pytest.mark.parametrize(
    "criterion", acceptance.ALL_CRITERIA, ids=lambda fn: fn.__name__
)
def test_criterion(criterion, seed7_results):
    t0 = time.time()
    result = acceptance.run_criterion(criterion, 7)
    seed7_results[criterion] = result
    elapsed = time.time() - t0
    status = "PASS" if result["ok"] else "FAIL"
    print(f"[acceptance] {status} {result['name']} ({elapsed:.1f}s)")
    assert result["ok"], result["details"]
    budget = BUDGETS[result["name"]]
    assert elapsed < budget, f"{result['name']} exceeded {budget}s: {elapsed:.1f}s"
    encoded = json.dumps(result, sort_keys=True).encode()
    assert hashlib.sha256(encoded).hexdigest() == DIGESTS[result["name"]]


def test_selftest_seed7_stdout_is_pinned(capsys, monkeypatch, seed7_results):
    """The selftest document, byte for byte.  Each criterion reuses the
    result test_criterion computed with the same call; one that did not
    run there (a -k selection) runs here."""
    run_criterion = acceptance.run_criterion

    def reuse(fn, seed):
        return seed7_results[fn] if fn in seed7_results else run_criterion(fn, seed)

    monkeypatch.setattr(acceptance, "run_criterion", reuse)
    assert cli.main(["selftest", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_SEED7_SHA256
