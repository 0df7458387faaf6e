"""Golden `--machine` output of the paper pipeline on the fixtures.

Each digest is the sha256 of the full `--machine` report, recorded before
the heap-based division engine replaced the merge-based loops (the
`verify-cremona` and `selftest` digests before the modular coprimality
certificate came in front of the subresultant gcd).  Any
change to a basis, a normal form, a verdict or the report format shows
up here, whichever kernel backend is loaded.
"""

import contextlib
import hashlib
import io

import pytest

from jonq.cli import main
from jonq.fixtures import fixture_path

GOLDEN = {
    ("identity", ("implicitize", "--oracle")): "4b318ca4c414b4973a5ac72b7aebff084507bc4cb1a403fed2342d1e682d4d24",
    ("identity", ("analyze",)): "5827cb2bc42bf10f4fc89b800b182fe9db4e7ce1a295fb344b1345546745b6f3",
    ("identity", ("rees",)): "510a98516d6128347cd74b00f756c54c1032c424838ef5ddad2a51165af6b031",
    ("plane", ("implicitize", "--oracle")): "c0fd0c52a593c610a7e04b44eac556529ba116f6e6b52b70e0e726afe4323061",
    ("plane", ("analyze",)): "6cb8d3bc6d1120867b5b2e8f67f306546d9f73e77db66b084aac620db5eea099",
    ("plane", ("rees",)): "0f1b946e4e1bb31d5214c21e3cf65403d07812937bd0cc8d0eea28c2c9b04f3d",
    ("space", ("implicitize", "--oracle")): "c1bb6ff2a1692de400c2966d242502b4292a77c7e2121628d9432312af717532",
    ("space", ("analyze",)): "97c2d6920483c1780f3d21fa9a9c55b223133165a4e6aabe06ea66d5724eb537",
    ("space", ("rees",)): "8e7eaebc6ef4c7f9e6fcf3fd8b172d8e4159459af0e5757499e271db7250e8c6",
    ("nzd", ("implicitize", "--oracle")): "4a48787babb7f34a9cf539b0ed4554c486b470134ce9342ba4f15feca56f2d8d",
    ("nzd", ("analyze",)): "ac9199ca903eba690f3cdb47351c3d360b663d8cf84296843b260b6deeab33cd",
    ("nzd", ("rees",)): "b3ada257be6a6c1d9dd3ec0b1927a402282126b53db81b7cf6b45aed80701fc5",
}

CREMONA_GOLDEN = {
    "identity": "3436b18bacf83f47d2d605c9fb44cdd14d6381457d1722b3277313bde4292f22",
    "plane": "ee1cd5c8315362630c740439d5de72d8e454e83713bfd5d933ea5b124186a3a7",
    "space": "67ab523c4d1c3911fd64af5ca3c3ffb49fef8e1a736e36331aae782eb09d1024",
    "nzd": "ee1cd5c8315362630c740439d5de72d8e454e83713bfd5d933ea5b124186a3a7",
}

# `selftest` draws its own instances and reaches the coprimality tests in
# `jonq.cli` that no fixture command does.
SELFTEST_GOLDEN = "8a67c7c3c37be96a5ce36c499f4e00eeffd3348d38964a287ff766f9e201e187"

# `analyze --deg-bound 9` runs the syzygy-span and kernel computations on
# larger evaluation matrices than the default bound does; recorded before
# the fraction-free integer elimination replaced the `Fraction` loops.
ANALYZE_DEG9_GOLDEN = {
    "identity": "2942ea5c7b010bcfe4ec439b4e059c451930dd5eb6712a227e2d4078b15bacb3",
    "plane": "83ccdb8d1eb25d9955717c85ddc152da68b8c0b830c76b60a819f85510daf0b8",
    "space": "0104bfe7cb29db09d9256408de59e821eca3968cefa60c80f3fafc7eb50cc19c",
    "nzd": "b637502f6574a79737375f16e866d989c1f5b595f2450b016863c14a077e9cd1",
}


def _digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--machine"])
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name, command", sorted(GOLDEN))
def test_machine_output_unchanged(name, command):
    assert _digest([command[0], fixture_path(name), *command[1:]]) == GOLDEN[name, command]


@pytest.mark.parametrize("name", sorted(CREMONA_GOLDEN))
def test_verify_cremona_output_unchanged(name):
    assert _digest(["verify-cremona", fixture_path(name)]) == CREMONA_GOLDEN[name]


def test_selftest_output_unchanged():
    assert _digest(["selftest", "--count", "4", "--seed", "2"]) == SELFTEST_GOLDEN


@pytest.mark.parametrize("name", sorted(ANALYZE_DEG9_GOLDEN))
def test_analyze_deg_bound_9_output_unchanged(name):
    digest = _digest(["analyze", fixture_path(name), "--deg-bound", "9"])
    assert digest == ANALYZE_DEG9_GOLDEN[name]
