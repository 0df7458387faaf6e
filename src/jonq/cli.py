"""Command-line entry point.

    jonq verify-cremona|implicitize|analyze|rees|selftest <file>
         [--oracle] [--seed S] [--deg-bound B]
         [--budget-pairs P] [--budget-sat K] [--machine] [--timings]

Exit codes: 0 every verdict holds or is skipped; 1 some verdict fails;
2 input error (parse failure or a violated standing hypothesis).
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time
from contextlib import contextmanager

from jonq import __version__
from jonq.birational import identity_map
from jonq.errors import BudgetExceeded, HypothesisViolation, JonqError, ParseError
from jonq.groebner import Budget, IdealHandle, colon, dim_and_codim, ideal_equal, multiply_ideal
from jonq.implicitize import (
    JonquieresData,
    implicitize,
    inclusion_case_equivalence,
    nzd_case,
    oracle_implicitize,
    predicted_degree,
    syzygetic_polynomials,
    verify_inverse_representative,
)
from jonq.instance import load_instance
from jonq.fixtures import load_fixture
from jonq.rees import downgraded_rees_ideal, monoid_association, saturation_identities
from jonq.report import Report, skipped, verdict
from jonq.ring import Polynomial, VariableSet, poly_gcd, random_form
from jonq.syzygies import (
    BOUND_NAMES,
    conductor_data,
    mapping_cone_matrix,
    regularity_bound_checks,
    regularity_dim1,
    syzygy_basis,
    verify_syzygy_generation,
)


def _timer(report, enabled):
    """`with timer(label):` records `timing.<label>` when enabled."""

    @contextmanager
    def span(label):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            if enabled:
                report.set(f"timing.{label}", f"{time.perf_counter() - t0:.3f}s")

    return span


def _non_negative_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def _option(args, inst, flag, name, default=None):
    """The `--flag` value if given, else the instance's `option.name`, else `default`."""
    value = getattr(args, flag)
    if value is not None:
        return value
    return inst.options.get(name, default) if inst is not None else default


def _budget_from(args, inst=None):
    return Budget(
        max_pairs=_option(args, inst, "budget_pairs", "max_pairs"),
        sat_cap=_option(args, inst, "budget_sat", "sat_cap", 32),
    )


def _budget_reason(exc):
    """The skip reason of a BudgetExceeded, e.g. `budget: Groebner S-pair limit (limit 5)`."""
    return f"budget: {exc.what} (limit {exc.limit})"


@contextmanager
def _budget_skips(rep, *keys):
    """On BudgetExceeded, report each of `keys` the block left unset as skipped(budget: ...)."""
    try:
        yield
    except BudgetExceeded as exc:
        for key in keys:
            if key not in rep.data:
                rep.set_skipped(key, _budget_reason(exc))


def cmd_verify_cremona(args):
    inst = load_instance(args.file)
    rep = Report("verify-cremona")
    try:
        cre = inst.verified_cremona()
    except HypothesisViolation as exc:
        rep.set("cremona.verified", "fails")
        rep.set("cremona.reason", str(exc))
        return rep
    rep.set("cremona.verified", "holds")
    rep.set("cremona.degree", cre.degree)
    rep.set("cremona.inverse_degree", cre.inverse_degree)
    rep.set("cremona.target_factor", cre.target_factor)
    rep.set("cremona.target_factor_degree", cre.target_factor.total_degree())
    rep.set("cremona.source_factor", cre.source_factor)
    rep.set("cremona.source_factor_degree", cre.source_factor.total_degree())
    ok = (
        cre.degree * cre.inverse_degree
        == cre.target_factor.total_degree() + 1
        == cre.source_factor.total_degree() + 1
    )
    rep.set_verdict("cremona.degree_identity", ok)
    return rep


def cmd_implicitize(args):
    inst = load_instance(args.file)
    budget = _budget_from(args, inst)
    rep = Report("implicitize")
    timer = _timer(rep, args.timings)
    P = inst.jonquieres()
    with timer("implicitize"):
        mon = implicitize(P)
    rep.set("implicit.F", mon.F)
    rep.set("implicit.delta", mon.delta)
    rep.set("implicit.F_delta", mon.F_delta)
    rep.set("implicit.F_delta_minus_1", mon.F_delta_minus_1)
    rep.set("implicit.stripped_gcd", mon.stripped_gcd)
    deg = predicted_degree(P, mon)
    rep.set("degree.actual", deg.deg_F)
    rep.set("degree.via_deg_g", deg.via_deg_g)
    rep.set("degree.via_deg_f", deg.via_deg_f)
    rep.set("degree.upper_bound", deg.upper_bound)
    rep.set_verdict("degree.formulas_agree", deg.deg_F == deg.via_deg_g == deg.via_deg_f)
    rep.set("degree.evaluations_coprime", "yes" if deg.evaluations_coprime else "no")
    if deg.window is not None:
        rep.set("degree.window", f"[{deg.window[0]}, {deg.window[1]}]")
        rep.set_verdict("degree.window_holds", bool(deg.window_holds))
    stages = ("case.kind", "syzygetic.all_divisible_by_F", "inclusion_equivalence.biconditional")
    with _budget_skips(rep, *stages):
        with timer("conductor"):
            data = conductor_data(P.base_ideal_I(), P.g, budget=budget)
        rep.set("case.kind", data.kind)
        rep.set("case.conductor", "; ".join(str(c) for c in data.ideal.gens) or "0")
        with timer("syzygetic"):
            syz = syzygetic_polynomials(P, mon, data)
        rep.set("syzygetic.count", len(syz))
        for j, s in enumerate(syz):
            rep.set(f"syzygetic.{j}.conductor_gen", s.conductor_gen)
            rep.set(f"syzygetic.{j}.polynomial", s.polynomial)
            rep.set(f"syzygetic.{j}.degree", s.polynomial.total_degree())
            if s.extraneous_factor is not None:
                rep.set(f"syzygetic.{j}.extraneous_factor", s.extraneous_factor)
        rep.set_verdict(
            "syzygetic.all_divisible_by_F", all(s.extraneous_factor is not None for s in syz)
        )
        incl = inclusion_case_equivalence(P, mon, data, syz)
        if incl.applicable:
            rep.set_verdict("inclusion_equivalence.biconditional", bool(incl.equivalent))
            rep.set("inclusion_equivalence.g_in_I", "yes" if incl.side_inclusion else "no")
        else:
            rep.set_skipped("inclusion_equivalence.biconditional", "gcd(f(g'), g(g')) != 1")
        if data.kind == "non_zero_divisor":
            nz = nzd_case(P, mon, data)
            rep.set_verdict("nzd.equivalence_agrees", nz.agree)
            rep.set("nzd.principal_match", "yes" if nz.principal_match else "no")
            rep.set("nzd.coprime_gcd", "yes" if nz.coprime_gcd else "no")
            rep.set("nzd.degree_match", "yes" if nz.degree_match else "no")
            rep.set_verdict("nzd.degree_bound", nz.degree_bound_holds)
    if args.oracle:
        with _budget_skips(rep, "oracle.matches_formula"):
            with timer("oracle"):
                F2 = oracle_implicitize(list(P.coordinates()), P.monoid_ring, budget)
            rep.set("oracle.F", F2)
            rep.set_verdict("oracle.matches_formula", F2.proportional_to(mon.F))
    rep.set_verdict("inverse_representative", verify_inverse_representative(P, mon))
    return rep


def cmd_analyze(args):
    inst = load_instance(args.file)
    budget = _budget_from(args, inst)
    rep = Report("analyze")
    timer = _timer(rep, args.timings)
    P = inst.jonquieres()
    I = P.base_ideal_I()
    bounds = [f"bounds.{name}" for name in BOUND_NAMES]
    data = None
    stages = ("conductor.count", "psi.columns_annihilate", "syzygy_spans.all_match")
    with _budget_skips(rep, *stages, *bounds):
        with timer("conductor"):
            data = conductor_data(I, P.g, budget=budget)
        rep.set("conductor.count", len(data.conductors))
        for j, c in enumerate(data.conductors):
            rep.set(f"conductor.{j}", c)
            rep.set(f"conductor.{j}.degree", data.degrees[j])
        with timer("syzygy_basis"):
            phi = syzygy_basis(list(I.gens))
        rep.set("phi.columns", phi.ncols)
        rep.set("phi.col_twists", " ".join(str(t) for t in phi.col_twists))
        with timer("mapping_cone"):
            psi = mapping_cone_matrix(list(I.gens), phi, P.f, P.g, data)
        rep.set("psi.columns", psi.ncols)
        rep.set("psi.col_twists", " ".join(str(t) for t in psi.col_twists))
        rep.set_verdict("psi.columns_annihilate", True)  # construction verifies
        deg_bound = _option(args, inst, "deg_bound", "deg_bound")
        with timer("syzygy_spans"):
            ver = verify_syzygy_generation(list(P.coordinates()), psi, deg_bound)
        rep.set("syzygy_spans.bound", ver.bound)
        for mu, oracle_dim, span_dim, match in ver.per_degree:
            rep.set(
                f"syzygy_spans.mu{mu}",
                f"{verdict(match)} oracle={oracle_dim} span={span_dim}",
            )
        if ver.per_degree:
            rep.set_verdict("syzygy_spans.all_match", ver.all_match)
        else:
            reason = f"deg-bound {ver.bound} leaves no degree to check"
            rep.set_skipped("syzygy_spans.all_match", reason)
    with _budget_skips(rep, "ideal.I.dim", "regularity.I.reg", *bounds):
        dim_I, codim_I = dim_and_codim(I, budget)
        rep.set("ideal.I.dim", dim_I)
        rep.set("ideal.I.codim", codim_I)
        reg = None
        if dim_I <= 1:
            seed = _option(args, inst, "seed", "seed", 0)
            with timer("regularity"):
                reg = regularity_dim1(I, seed=seed, budget=budget)
            rep.set("regularity.I.reg", reg.reg)
            rep.set("regularity.I.formula", reg.formula_value)
            rep.set("regularity.I.beg_sat", "inf" if reg.beg_sat is None else reg.beg_sat)
            rep.set("regularity.I.beg_link", "inf" if reg.beg_link is None else reg.beg_link)
            rep.set_verdict("regularity.I.formula_matches_oracle", reg.formula_matches_oracle)
            rep.set(
                "regularity.I.alpha_colon_contains_I",
                "yes" if reg.alpha_colon_contains_I else "no",
            )
        else:
            rep.set_skipped("regularity.I.reg", f"dim(R/I) = {dim_I} > 1")
        if data is not None:  # else the conductor stage has skipped the bounds
            with timer("bounds"):
                checks = regularity_bound_checks(P, I, data, reg, budget)
            for c in checks:
                if c.status == "skipped":
                    rep.set(f"bounds.{c.name}", skipped(c.reason))
                else:
                    rep.set(f"bounds.{c.name}", f"{c.status} lhs={c.lhs} rhs={c.rhs}")
    return rep


def cmd_rees(args):
    inst = load_instance(args.file)
    budget = _budget_from(args, inst)
    rep = Report("rees")
    timer = _timer(rep, args.timings)
    P = inst.jonquieres()
    mon = implicitize(P)
    with _budget_skips(rep, "downgraded.contained_in_rees"):
        with timer("downgraded"):
            data = conductor_data(P.base_ideal_I(), P.g, budget=budget)
            pres, dg = downgraded_rees_ideal(P, mon, data, budget)
        rep.set("downgraded.generators", len(pres.generators))
        rep.set_verdict("downgraded.contained_in_rees", dg.contained_in_rees)
        rep.set("downgraded.codim", dg.codim)
        rep.set_verdict("downgraded.codim_matches", dg.codim_matches)
        rep.set_verdict("downgraded.fully_downgraded_divisible", dg.all_divisible_by_F)
        for j, f in enumerate(dg.factors):
            if f is not None:
                rep.set(f"downgraded.factor.{j}", f)
    M = None
    with _budget_skips(rep, "monoid.same_implicit_equation"):
        with timer("monoid"):
            M, ma = monoid_association(P, mon, budget)
        rep.set("monoid.sign", "+" if ma.sign > 0 else "-")
        rep.set(
            "monoid.paper_sign_vanishes", "yes" if ma.paper_sign_vanishes else "no"
        )
        rep.set_verdict("monoid.same_implicit_equation", ma.same_implicit_equation)
        rep.set("monoid.composition_order", ma.composition_order or "none")
        rep.set_verdict("monoid.composition_holds", ma.composition_holds)
    if M is not None:
        with _budget_skips(rep, "saturation.identities"):
            with timer("saturation"):
                sat = saturation_identities(P, M, budget)
            rep.set_verdict("saturation.forward_equal", sat.forward_equal)
            rep.set_verdict("saturation.backward_equal", sat.backward_equal)
            rep.set(
                "saturation.forward_exponents",
                " ".join(str(e) for e in sat.forward_exponents),
            )
            rep.set(
                "saturation.backward_exponents",
                " ".join(str(e) for e in sat.backward_exponents),
            )
    else:
        rep.set_skipped("saturation.identities", "monoid association unavailable")
    return rep


def _selftest_families():
    return ("identity2", "identity3", "plane", "space")


def _selftest_instance(family, rng):
    """A randomized JonquieresData over a built-in Cremona family."""
    if family in ("identity2", "identity3"):
        n = 2 if family == "identity2" else 3
        ring = VariableSet([f"x{i}" for i in range(n + 1)])
        target = VariableSet([f"y{i}" for i in range(n + 1)])
        cre = identity_map(ring, target)
    elif family == "plane":
        inst = load_fixture("plane")
        cre = inst.verified_cremona()
        ring = inst.ring
    else:
        inst = load_fixture("space")
        cre = inst.verified_cremona()
        ring = inst.ring
    d = cre.degree
    for _ in range(64):
        df = rng.choice((1, 2)) if d == 1 else 1
        f = random_form(ring, df, rng.randrange(1 << 30))
        g = random_form(ring, d + df, rng.randrange(1 << 30))
        try:
            return JonquieresData.build(cre, f, g)  # proves gcd(f, g) = 1
        except HypothesisViolation:
            continue
    raise HypothesisViolation("could not draw a coprime (f, g) pair")


def cmd_selftest(args):
    seed = _option(args, None, "seed", "seed", 0)
    rng = random.Random(seed)
    budget = _budget_from(args)
    rep = Report("selftest")
    rep.set("seed", seed)
    rep.set("count", args.count)
    families = _selftest_families()
    failures = 0
    for k in range(args.count):
        family = families[k % len(families)]
        label = f"run{k}.{family}"
        try:
            P = _selftest_instance(family, rng)
            mon = implicitize(P)
            deg = predicted_degree(P, mon)
            ok_deg = deg.deg_F == deg.via_deg_g == deg.via_deg_f
            ok_window = deg.window_holds is not False
            ok_monoid = (
                mon.F.degree_in((mon.F.ring.index(P.last_var),)) == 1
                and poly_gcd(mon.F_delta, mon.F_delta_minus_1).is_constant()
            )
            data = conductor_data(P.base_ideal_I(), P.g, budget=budget)
            syz = syzygetic_polynomials(P, mon, data)
            ok_syz = all(
                s.extraneous_factor is not None
                and (
                    s.polynomial.is_zero()
                    or s.polynomial.total_degree() == mon.delta + s.extraneous_factor.total_degree()
                )
                for s in syz
            )
            # the small families also cross-check against the oracle
            ok_oracle = True
            if family.startswith("identity") or family == "plane":
                F2 = oracle_implicitize(list(P.coordinates()), P.monoid_ring, budget)
                ok_oracle = F2.proportional_to(mon.F)
                if family.startswith("identity"):
                    want = mon.F
                    gy = P.g.rename(P.cremona.target).map_ring(P.monoid_ring)
                    fy = P.f.rename(P.cremona.target).map_ring(P.monoid_ring)
                    ylast = Polynomial.variable(P.monoid_ring, P.last_var)
                    ok_oracle = ok_oracle and want == gy - fy * ylast
            ok = ok_deg and ok_window and ok_monoid and ok_syz and ok_oracle
            rep.set_verdict(label, ok)
            if not ok:
                failures += 1
        except BudgetExceeded as exc:
            rep.set_skipped(label, _budget_reason(exc))
        except JonqError as exc:
            rep.set(label, f"fails ({exc})")
            failures += 1
    # colon transfer law on randomized coprime pairs
    for k in range(max(0, args.count // 2)):
        ring = VariableSet(["x0", "x1", "x2"])
        Igens = [random_form(ring, rng.choice((1, 2)), rng.randrange(1 << 30)) for _ in range(2)]
        f = random_form(ring, 1, rng.randrange(1 << 30))
        g = random_form(ring, rng.choice((1, 2)), rng.randrange(1 << 30))
        if not poly_gcd(f, g).is_constant():
            continue
        I = IdealHandle(ring, Igens)
        with _budget_skips(rep, f"colon_transfer_law.{k}"):
            lhs = colon(multiply_ideal(I, f), g, budget=budget)
            rhs = multiply_ideal(colon(I, g, budget=budget), f)
            ok = ideal_equal(lhs, rhs, budget)
            rep.set_verdict(f"colon_transfer_law.{k}", ok)
            if not ok:
                failures += 1
    rep.set("failures", failures)
    return rep


@functools.cache
def _build_parser():
    """The argument parser, built on first use; parse_args keeps no state."""
    p = argparse.ArgumentParser(
        prog="jonq",
        description=(
            "Exact implicitization of de Jonquieres parametrizations: monoid "
            "equations, syzygies, regularity, and Rees ideals over Q."
        ),
    )
    p.add_argument("--version", action="version", version=f"jonq {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_file=True):
        if needs_file:
            sp.add_argument("file", help="instance file (see README for the format)")
        sp.add_argument("--machine", action="store_true", help="key = value output")
        sp.add_argument("--timings", action="store_true", help="emit timing.* keys")
        sp.add_argument("--seed", type=int, default=None, help="seed for randomized draws")
        sp.add_argument("--deg-bound", type=_non_negative_int, default=None, dest="deg_bound")
        sp.add_argument(
            "--budget-pairs", type=_non_negative_int, default=None, dest="budget_pairs"
        )
        sp.add_argument("--budget-sat", type=_non_negative_int, default=None, dest="budget_sat")

    sp = sub.add_parser("verify-cremona", help="verify a supplied Cremona inverse")
    common(sp)
    sp.set_defaults(func=cmd_verify_cremona)
    sp = sub.add_parser("implicitize", help="closed-form implicit monoid equation")
    common(sp)
    sp.add_argument("--oracle", action="store_true", help="cross-check by elimination")
    sp.set_defaults(func=cmd_implicitize)
    sp = sub.add_parser("analyze", help="conductor, mapping cone, regularity")
    common(sp)
    sp.set_defaults(func=cmd_analyze)
    sp = sub.add_parser("rees", help="downgraded Rees ideal and monoid association")
    common(sp)
    sp.set_defaults(func=cmd_rees)
    sp = sub.add_parser("selftest", help="randomized invariant suites")
    common(sp, needs_file=False)
    sp.add_argument("--count", type=int, default=8)
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        rep = args.func(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolation as exc:
        print(f"input error (violated hypothesis): {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except JonqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = rep.render_machine() if args.machine else rep.render_human()
    sys.stdout.write(out)
    return rep.exit_code()


if __name__ == "__main__":
    sys.exit(main())
