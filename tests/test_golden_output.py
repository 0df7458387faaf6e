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
import importlib.util
import io
import os

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


# `analyze --deg-bound 16` builds evaluation matrices of a few hundred
# columns; recorded while `jonq.linalg` still kept dense rows in reduced
# echelon form.
ANALYZE_DEG16_GOLDEN = {
    "plane": "0dd2ae4c8c4341b29f38977afed75eae7ff9266e930c72d8674e3ad74afbeb5d",
    "space": "beb286500534db58f8c796490eb296865154c8dacf521d7c7ed6042a7cf51220",
}


# `analyze --deg-bound B` for B = 0..8.  B is the last degree the span
# check covers; recorded while B also bounded the twists of `syzygy_basis`,
# which then took a kernel basis of the evaluation map in every degree up
# to that bound.
ANALYZE_DEG_BOUND_GOLDEN = {
    ("identity", 0): "fe9b06b414f8d61e4821fcba98a336deca67984353812c574a84a711e20f5c92",
    ("identity", 1): "3cbafcae3565b719518b057b1f50c855874810a15a5f1b6ce352075665dc2578",
    ("identity", 2): "a194eb2e1e1d0bc31c8439b6e908f3b676effbb3e6f932b97b9fb9facd99c59f",
    ("identity", 3): "d6fff1db7ae4b24489f973c595dd37e003e4f708d4436f833b67c1742ebe202a",
    ("identity", 4): "f17d468905819989a3f2a6f8927c61b63784ebbc00c96c1841fee8cd8ff0d1ba",
    ("identity", 5): "5827cb2bc42bf10f4fc89b800b182fe9db4e7ce1a295fb344b1345546745b6f3",
    ("identity", 6): "48284ce9be05aa32d2195d25f96f8bfed16353f0b17f2e826b3b02384162a39f",
    ("identity", 7): "132c79a1701307f9efb406d7eabfbdead49c8aee04f5e568d42ae600ac42ae27",
    ("identity", 8): "8bfd0cdf9d6ef417dfba944b2b03b676e41ac802c7dfb35776bb771e819f37c5",
    ("nzd", 0): "a09a9bc24492a20bb6ddc1e644e12b0059627d88c50481065b494322f133260c",
    ("nzd", 1): "3ad687b81600e581b535e68cc4158ab283b062420ae0889fd4e0109e9b19b385",
    ("nzd", 2): "45105c81c5b96c8da640237abb0fdc8e66ff4da85f3fd9aa9f83d038602b9a90",
    ("nzd", 3): "a89c5af1eec1d8b0740380ddc651dc5fc5ffed3736c59176dd6509110b1b92f6",
    ("nzd", 4): "a32593d42d41656295e5a885b247357e783747b174205dfc788ccda9dd72bc4b",
    ("nzd", 5): "8e034c9ec52b210254cedd0a7edc638b86f693ca4dd7542c9233685f76c5a602",
    ("nzd", 6): "964cb9accc3eb93fe6e08238fa615152b4436244b855ff06803f3bb0d1cf85d2",
    ("nzd", 7): "5bd33a8f8c85c004fd3fd1c62e3f3b9685cb34df4fcad3b0623e177942e700c7",
    ("nzd", 8): "ac9199ca903eba690f3cdb47351c3d360b663d8cf84296843b260b6deeab33cd",
    ("plane", 0): "a4fa4c7bf9a29215cc70172a7b08d128cc20a5306cef0129555902f43a373d47",
    ("plane", 1): "d42963ded616006558105cbdf44270fe5ebf9dc3ce4f086de010025f14802193",
    ("plane", 2): "ed823504c0c3f219aa02b97fd9f2bce034863a8b9bfa9dad33aaa294331615e6",
    ("plane", 3): "08e1dcedd34dbcc5cd0d88e75c75f9d66e83e90c31f650b91b294c43ca9e2483",
    ("plane", 4): "cf6a01642d8a53dcd5324357730bc211b377a4ebc4be14205af930f5c2f9b8a4",
    ("plane", 5): "2bae15354a44cd98ab3c4d20c73735d710b5a342cfdcc28926c68af4a269d7e3",
    ("plane", 6): "0b347a3c529fdd5669ed1bdd8e2a5ab7f9774522ad1ff0a4fe64477f2e1d5b74",
    ("plane", 7): "6cb8d3bc6d1120867b5b2e8f67f306546d9f73e77db66b084aac620db5eea099",
    ("plane", 8): "08a8e2827f96a1510448d3f6a825e60e1bf6e1688a0a2cf7ef76b766174e44cb",
    ("space", 0): "7b462479b9c144477be1cb74f24bd2ffd01eb9e74e1fdc65db6f93f8ab6fb9a9",
    ("space", 1): "c21ff11945d5a470056a2429bf341888493e4017e0c3078b0f16a3800c743c66",
    ("space", 2): "70841fd128c3151e091a0a0fa04b821c8fd79d6c9448556577f7e15bca9a144c",
    ("space", 3): "1278765ef050d502da253faaf88e822f23a8f16ac6b1741ca6a92290af264427",
    ("space", 4): "51e6e0a4b6e1f8bb7250e5ba851d1714eda0edc90f9a617b5e41e969abff3acf",
    ("space", 5): "19a6f83b81a606dd19377b61cbb7718b4f55977eb817d58d0de467efa6b08573",
    ("space", 6): "447efc928562031d6abbb7120922da7ca9b678954b1d68ecb7065fd00e5a1b3c",
    ("space", 7): "97c2d6920483c1780f3d21fa9a9c55b223133165a4e6aabe06ea66d5724eb537",
    ("space", 8): "1d5ca3724c041ec7791bc5459cfdc9efbdcdddd6eacf3f5de71f8eb3d3f4efbd",
}


# `analyze --budget-sat 0`: every saturation gives up, so each regularity
# verdict is a budget skip (on `space`, dim(R/I) = 2 skips the stage
# first); recorded while the regularity stage still saturated by the
# maximal ideal through one elimination per variable.
ANALYZE_BUDGET_SAT0_GOLDEN = {
    "identity": "22e436079300c2772d0730110105e86d56622214f748599edfc28a3452c292ba",
    "nzd": "f786c10aa95343d686aa4e9d317dad2797a4d080453e50669bad33a6aedf215a",
    "plane": "81fc375d71e94c9da241e9ec0a2e2dc3787219004245f05e0d5c7f0f0955fb68",
    "space": "97c2d6920483c1780f3d21fa9a9c55b223133165a4e6aabe06ea66d5724eb537",
}


# `analyze` on seeded plane de Jonquieres draws of `tools/dj_instances.py`
# with deg f = 1, as (d, seed): (exit code, digest).  The degree-3 and
# degree-4 draws print `bounds.resolution_minimality_predicate = fails`,
# so they exit 1; no fixture prints a failing bound.
ANALYZE_DJ_GOLDEN = {
    (2, 2011): (0, "dada1a6eb468f9730a9c2cf3921be66d36c62f982c82da72a627273bf8661ed2"),
    (3, 3011): (1, "062fcd72127fb498563e2599c0e474d3228b7f3445facfc3b0755314d17437a9"),
    (4, 4011): (1, "12034d60c8bf7746732b0ba7cb5f2cb49946c527e1d0f1cd49ba6ee53cca53e8"),
}

_DJ_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "dj_instances.py")
_dj_spec = importlib.util.spec_from_file_location("dj_instances", _DJ_PATH)
dj_instances = importlib.util.module_from_spec(_dj_spec)
_dj_spec.loader.exec_module(dj_instances)


def _run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([*argv, "--machine"])
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _digest(argv):
    code, digest = _run(argv)
    assert code == 0
    return digest


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


@pytest.mark.parametrize("name", sorted(ANALYZE_DEG16_GOLDEN))
def test_analyze_deg_bound_16_output_unchanged(name):
    digest = _digest(["analyze", fixture_path(name), "--deg-bound", "16"])
    assert digest == ANALYZE_DEG16_GOLDEN[name]


@pytest.mark.parametrize("name, bound", sorted(ANALYZE_DEG_BOUND_GOLDEN))
def test_analyze_deg_bound_output_unchanged(name, bound):
    digest = _digest(["analyze", fixture_path(name), "--deg-bound", str(bound)])
    assert digest == ANALYZE_DEG_BOUND_GOLDEN[name, bound]


@pytest.mark.parametrize("name", sorted(ANALYZE_BUDGET_SAT0_GOLDEN))
def test_analyze_budget_sat_0_output_unchanged(name):
    digest = _digest(["analyze", fixture_path(name), "--budget-sat", "0"])
    assert digest == ANALYZE_BUDGET_SAT0_GOLDEN[name]


@pytest.mark.parametrize("d, seed", sorted(ANALYZE_DJ_GOLDEN))
def test_analyze_de_jonquieres_output_unchanged(d, seed, tmp_path):
    path = tmp_path / "dj.jonq"
    path.write_text(dj_instances.instance_text(d, 1, seed))
    assert _run(["analyze", str(path)]) == ANALYZE_DJ_GOLDEN[d, seed]
