"""Every `bounds.*` verdict of `analyze`, pinned row by row.

Each row prints `holds|fails lhs=.. rhs=..` or `skipped(reason)`.  The
instances reach every skip reason that some input reaches: the four
fixtures, one identity Cremona map of P^3 (g in I, and dim R/(If,g) = 2),
and seeded plane de Jonquieres draws from `tools/dj_instances.py`, whose
degree-3 and degree-4 draws fail the minimality predicate and so skip the
two bounds it gates.
"""

import contextlib
import importlib.util
import io
import os

import pytest

from jonq.cli import main
from jonq.fixtures import fixture_path

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "dj_instances.py")
_spec = importlib.util.spec_from_file_location("dj_instances", _PATH)
dj_instances = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dj_instances)

IDENTITY3 = """\
# identity Cremona of P^3, deg f = 1
ring: x0, x1, x2, x3
cremona: x0, x1, x2, x3
cremona_inverse: y0, y1, y2, y3
f: -x0 + 3*x1 - 3*x2 - 3*x3
g: -2*x0^2 - 3*x0*x1 - 2*x0*x2 - x0*x3 + 2*x1^2 - 3*x1*x2 + 2*x1*x3 + 2*x2^2 + 2*x2*x3 + x3^2
"""

UNIT = "skipped(I:(g) is the unit ideal (g in I))"
DIM_J2 = "skipped(dim(R/(If,g)) = 2 > 1)"
UNAVAILABLE = "skipped(regularity of R/(If,g) or R/(I:g) unavailable at dim > 1)"
NO_BASE_LOCUS = "skipped(needs deg(G) >= 2 and a nonempty base locus)"
ZERO_DIVISOR = "skipped(g is a zero-divisor on R/I)"
MINIMALITY = "skipped(minimality predicate reg(R/I) <= d+deg(f)-2 fails)"


def _holds(lhs, rhs):
    return f"holds lhs={lhs} rhs={rhs}"


def _all_holding(reg_I, reg_J):
    """The rows of a draw on which every bound holds with equality."""
    return (
        0,
        {
            "resolution_minimality_predicate": _holds(reg_I, reg_I),
            "two_branch_formula_vs_oracle": _holds(reg_I, reg_I),
            "cremona_base_regularity_bound": _holds(reg_I, reg_I),
            "jonquieres_ideal_regularity_bound": _holds(reg_J, reg_J),
            "jonquieres_ideal_regularity_equality_nzd": _holds(reg_J, reg_J),
            "conductor_regularity_bound": _holds(reg_I, reg_I),
            "mapping_cone_regularity_bound": _holds(reg_J, reg_J),
            "mapping_cone_regularity_equality": _holds(reg_J, reg_J),
        },
    )


def _minimality_failing(reg_I, rhs, deg_g, reg_J):
    """The rows of a draw whose reg(R/I) exceeds d + deg f - 2 (exit 1)."""
    return (
        1,
        {
            "resolution_minimality_predicate": f"fails lhs={reg_I} rhs={rhs}",
            "two_branch_formula_vs_oracle": _holds(reg_I, reg_I),
            "cremona_base_regularity_bound": _holds(reg_I, reg_I),
            "jonquieres_ideal_regularity_bound": _holds(reg_J, reg_J),
            "jonquieres_ideal_regularity_equality_nzd": _holds(reg_J, reg_J),
            "conductor_regularity_bound": (
                f"skipped(hypothesis reg(R/I) <= deg(g)-2 fails ({reg_I} > {deg_g - 2}))"
            ),
            "mapping_cone_regularity_bound": _holds(reg_J, reg_J),
            "mapping_cone_regularity_equality": MINIMALITY,
        },
    )


EXPECTED = {
    "fixture identity": (
        0,
        {
            "resolution_minimality_predicate": _holds(0, 0),
            "two_branch_formula_vs_oracle": _holds(0, 0),
            "cremona_base_regularity_bound": NO_BASE_LOCUS,
            "jonquieres_ideal_regularity_bound": _holds(1, 2),
            "jonquieres_ideal_regularity_equality_nzd": ZERO_DIVISOR,
            "conductor_regularity_bound": UNIT,
            "mapping_cone_regularity_bound": UNIT,
            "mapping_cone_regularity_equality": UNIT,
        },
    ),
    "fixture plane": (
        0,
        {
            "resolution_minimality_predicate": _holds(1, 1),
            "two_branch_formula_vs_oracle": _holds(1, 1),
            "cremona_base_regularity_bound": _holds(1, 1),
            "jonquieres_ideal_regularity_bound": _holds(3, 4),
            "jonquieres_ideal_regularity_equality_nzd": ZERO_DIVISOR,
            "conductor_regularity_bound": _holds(0, 1),
            "mapping_cone_regularity_bound": _holds(3, 3),
            "mapping_cone_regularity_equality": _holds(3, 3),
        },
    ),
    "fixture nzd": _all_holding(1, 4),
    "fixture space": (
        0,
        {
            name: "skipped(dim(R/I) = 2 > 1)"
            for name in (
                "resolution_minimality_predicate",
                "two_branch_formula_vs_oracle",
                "cremona_base_regularity_bound",
                "jonquieres_ideal_regularity_bound",
                "jonquieres_ideal_regularity_equality_nzd",
                "conductor_regularity_bound",
                "mapping_cone_regularity_bound",
                "mapping_cone_regularity_equality",
            )
        },
    ),
    "identity3": (
        0,
        {
            "resolution_minimality_predicate": _holds(0, 0),
            "two_branch_formula_vs_oracle": _holds(0, 0),
            "cremona_base_regularity_bound": NO_BASE_LOCUS,
            "jonquieres_ideal_regularity_bound": DIM_J2,
            "jonquieres_ideal_regularity_equality_nzd": DIM_J2,
            "conductor_regularity_bound": UNIT,
            "mapping_cone_regularity_bound": UNAVAILABLE,
            "mapping_cone_regularity_equality": UNAVAILABLE,
        },
    ),
    "dj 2 1 1": _all_holding(1, 4),
    "dj 2 2 1": (
        0,
        {
            **_all_holding(1, 6)[1],
            "resolution_minimality_predicate": _holds(1, 2),
        },
    ),
    "dj 3 1 1": _minimality_failing(3, 2, 4, 7),
    "dj 4 1 1": _minimality_failing(5, 3, 5, 10),
}


def _instance_path(case, tmp_path):
    kind, *args = case.split()
    if kind == "fixture":
        return fixture_path(args[0])
    path = tmp_path / "instance.jonq"
    if kind == "identity3":
        path.write_text(IDENTITY3)
    else:
        d, deg_f, seed = map(int, args)
        path.write_text(dj_instances.instance_text(d, deg_f, seed))
    return str(path)


@pytest.mark.parametrize("case", sorted(EXPECTED))
def test_bound_rows(case, tmp_path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["analyze", _instance_path(case, tmp_path), "--machine"])
    rows = {}
    for line in buf.getvalue().splitlines():
        key, _, value = line.partition(" = ")
        if key.startswith("bounds."):
            rows[key[len("bounds."):]] = value
    assert (code, rows) == EXPECTED[case]
