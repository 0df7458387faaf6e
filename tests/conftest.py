import importlib.machinery
import importlib.util
import os
import random
import shutil
import subprocess
import sysconfig

import pytest

import jonq
from jonq.birational import RationalMapData, identity_map, verify_cremona
from jonq.implicitize import JonquieresData
from jonq.fixtures import load_fixture
from jonq.groebner import dim_and_codim
from jonq.ring import Polynomial, VariableSet, parse_polynomial, poly_gcd, random_form
from jonq.syzygies import conductor_data, regularity_bound_checks, regularity_dim1


@pytest.fixture(scope="session")
def R3():
    return VariableSet(["x0", "x1", "x2"])


@pytest.fixture(scope="session")
def Y3():
    return VariableSet(["y0", "y1", "y2"])


@pytest.fixture(scope="session")
def R4():
    return VariableSet(["x0", "x1", "x2", "x3"])


def p(ring, text):
    return parse_polynomial(text, ring)


@pytest.fixture(scope="session")
def involution(R3, Y3):
    fwd = RationalMapData(R3, Y3, (p(R3, "x1*x2"), p(R3, "x0*x2"), p(R3, "x0*x1")))
    inv = RationalMapData(Y3, R3, (p(Y3, "y1*y2"), p(Y3, "y0*y2"), p(Y3, "y0*y1")))
    return verify_cremona(fwd, inv)


@pytest.fixture(scope="session")
def identity2(R3, Y3):
    return identity_map(R3, Y3)


@pytest.fixture(scope="session")
def plane_instance(involution, R3):
    return JonquieresData.build(
        involution, p(R3, "x0 + x1 + x2"), p(R3, "x0^2*x1 - x2^3")
    )


@pytest.fixture(scope="session")
def nzd_instance(involution, R3):
    return JonquieresData.build(
        involution, p(R3, "x0 + 2*x1 + 3*x2"), p(R3, "x0^3 + x1^3 + x2^3")
    )


@pytest.fixture(scope="session")
def seeded_draws(R3, Y3, R4, involution):
    """draw(family, count, seed): seeded instances of a `rees` benchmark family.

    deg f = 1.  `identity2` and `identity3` are over the identity Cremona map
    of P^2 and P^3; `plane` and `nzd` over the plane involution, with g
    through its three base points or missing them.
    """
    cremonas = {
        "identity2": identity_map(R3, Y3),
        "identity3": identity_map(R4, VariableSet(["y0", "y1", "y2", "y3"])),
        "plane": involution,
        "nzd": involution,
    }

    def draw(family, count, seed):
        cremona = cremonas[family]
        ring, dg = cremona.source, cremona.degree + 1
        rng = random.Random(seed)
        out = []
        while len(out) < count:
            f = random_form(ring, 1, rng.randrange(1 << 30))
            g = random_form(ring, dg, rng.randrange(1 << 30))
            if family == "plane":  # no pure power: g vanishes at each e_k
                g = Polynomial(ring, {m: c for m, c in g.items() if max(m) < dg})
            if poly_gcd(f, g).is_constant():
                out.append(JonquieresData.build(cremona, f, g))
        return out

    return draw


@pytest.fixture(scope="session")
def space_instance():
    return load_fixture("space").jonquieres()


@pytest.fixture(scope="session")
def bound_checks():
    """`regularity_bound_checks` of an instance, given what `analyze` derives first."""

    def run(P):
        I = P.base_ideal_I()
        dim, _ = dim_and_codim(I)
        report = regularity_dim1(I) if dim <= 1 else None
        return regularity_bound_checks(P, I, conductor_data(I, P.g), report)

    return run


@pytest.fixture(scope="session")
def compiled_kernel_path(tmp_path_factory):
    """`_kernel_c` compiled by gcc from the committed `_kernel_c.c`.

    The extension goes into a pytest temporary directory, never into the
    source tree.  Skips only where no C compiler or Python headers exist.
    """
    include = sysconfig.get_paths()["include"]
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None or not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("no C compiler or Python headers for the compiled kernel")
    source = os.path.join(os.path.dirname(jonq.__file__), "_kernel_c.c")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    target = str(tmp_path_factory.mktemp("kernel") / f"_kernel_c{suffix}")
    flags = ["-O3", "-fwrapv", "-DNDEBUG", "-fPIC", "-shared", f"-I{include}"]
    proc = subprocess.run(
        [compiler, *flags, source, "-o", target], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return target


@pytest.fixture(scope="session")
def compiled_kernel(compiled_kernel_path):
    """The compiled kernel module, loaded from `compiled_kernel_path`."""
    name = "jonq._kernel_c"
    loader = importlib.machinery.ExtensionFileLoader(name, compiled_kernel_path)
    spec = importlib.util.spec_from_file_location(name, compiled_kernel_path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module
