import dataclasses
import io
import re
import sys

import pytest

from jonq import cli
from jonq.cli import _build_parser, main
from jonq.errors import ParseError
from jonq.fixtures import FIXTURE_NAMES, fixture_path, fixture_text, load_fixture
from jonq.instance import parse_instance
from jonq.report import Report, parse_report, skipped, verdict
from jonq.ring import Polynomial


class TestInstanceParsing:
    def test_fixtures_parse(self):
        for name in FIXTURE_NAMES:
            inst = load_fixture(name)
            assert inst.verified_cremona() is not None

    def test_missing_ring(self):
        with pytest.raises(ParseError):
            parse_instance("cremona: x0\n")

    def test_degree_relation_checked(self):
        text = (
            "ring: x0, x1, x2\n"
            "cremona: x1*x2, x0*x2, x0*x1\n"
            "cremona_inverse: y1*y2, y0*y2, y0*y1\n"
            "f: x0\n"
            "g: x0^2\n"
        )
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert "degree relation" in str(err.value)

    def test_coprimality_checked(self):
        text = (
            "ring: x0, x1, x2\n"
            "cremona: x1*x2, x0*x2, x0*x1\n"
            "cremona_inverse: y1*y2, y0*y2, y0*y1\n"
            "f: x0\n"
            "g: x0*x1^2\n"
        )
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert "relatively prime" in str(err.value)

    def test_parse_error_carries_position(self):
        text = "ring: x0, x1\ncremona: x0, q1\ncremona_inverse: y0, y1\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert err.value.line == 2

    def test_comments_and_options(self):
        text = (
            "# a comment\n"
            "ring: x0, x1  # trailing comment\n"
            "cremona: x0, x1\n"
            "cremona_inverse: y0, y1\n"
            "option.seed: 9\n"
        )
        inst = parse_instance(text)
        assert inst.options["seed"] == 9

    @pytest.mark.parametrize("name", ["seed", "deg_bound", "max_pairs", "sat_cap"])
    def test_negative_option_rejected(self, name):
        text = "ring: x0, x1\ncremona: x0, x1\ncremona_inverse: y0, y1\n"
        with pytest.raises(ParseError) as err:
            parse_instance(text + f"option.{name}: -1\n")
        assert name in str(err.value)
        assert err.value.line == 4

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_instance("ring: x0, x1\nwhat: 3\ncremona: x0, x1\ncremona_inverse: y0, y1\n")


class TestReport:
    def test_round_trip(self):
        rep = Report("demo")
        rep.set("a.b", "x0^2 - x1")
        rep.set("a.c", 12)
        rep.set_verdict("ok", True)
        rep.set_skipped("later", "too big")
        parsed = parse_report(rep.render_machine())
        assert parsed == rep.data

    def test_exit_codes(self):
        rep = Report("demo")
        rep.set_verdict("x", True)
        rep.set_skipped("y", "reason")
        assert rep.exit_code() == 0
        rep.set_verdict("z", False)
        assert rep.exit_code() == 1

    def test_verdict_helpers(self):
        assert verdict(True) == "holds"
        assert skipped("a  b\nc") == "skipped(a b c)"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_reused_parser_leaks_no_option(capsys):
    """`main` builds its parser once; no flag of one call reaches the next."""
    argv = ["analyze", fixture_path("plane"), "--machine"]
    single = []
    for extra in (["--seed", "3"], []):
        _build_parser.cache_clear()
        single.append(run_cli(argv + extra, capsys))
    _build_parser.cache_clear()
    twice = [run_cli(argv + ["--seed", "3"], capsys), run_cli(argv, capsys)]
    assert twice == single
    assert single[0] != single[1]


class TestCli:
    def test_verify_cremona_machine(self, capsys):
        code, out = run_cli(
            ["verify-cremona", fixture_path("space"), "--machine"], capsys
        )
        assert code == 0
        data = parse_report(out)
        assert data["cremona.verified"] == "holds"
        assert data["cremona.target_factor_degree"] == "5"

    def test_output_deterministic(self, capsys):
        code1, out1 = run_cli(
            ["implicitize", fixture_path("plane"), "--machine"], capsys
        )
        code2, out2 = run_cli(
            ["implicitize", fixture_path("plane"), "--machine"], capsys
        )
        assert (code1, out1) == (code2, out2) == (0, out1)

    def test_implicitize_identity(self, capsys):
        code, out = run_cli(
            ["implicitize", fixture_path("identity"), "--oracle", "--machine"],
            capsys,
        )
        assert code == 0
        data = parse_report(out)
        assert data["implicit.F"] == "y0^2 + 3*y1*y2 - y2^2 - y0*y3 - 2*y1*y3"
        assert data["oracle.matches_formula"] == "holds"
        assert data["case.kind"] == "inclusion"

    def test_implicitize_nzd(self, capsys):
        code, out = run_cli(
            ["implicitize", fixture_path("nzd"), "--machine"], capsys
        )
        assert code == 0
        data = parse_report(out)
        assert data["case.kind"] == "non_zero_divisor"
        assert data["nzd.equivalence_agrees"] == "holds"

    def test_analyze_plane(self, capsys):
        code, out = run_cli(["analyze", fixture_path("plane"), "--machine"], capsys)
        assert code == 0
        data = parse_report(out)
        assert data["regularity.I.reg"] == "1"
        assert data["syzygy_spans.all_match"] == "holds"
        assert data["bounds.cremona_base_regularity_bound"].startswith("holds")

    def test_parse_error_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jonq"
        bad.write_text("ring x0\n")
        code = main(["implicitize", str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "input error" in captured.err

    @pytest.mark.parametrize(
        "command, verdict_key",
        [
            ("implicitize", "syzygetic.all_divisible_by_F"),
            ("rees", "downgraded.fully_downgraded_divisible"),
        ],
    )
    def test_failed_division_by_F_exit_1(self, command, verdict_key, monkeypatch, capsys):
        """A planted F that divides nothing is a `fails` verdict, not an input error."""
        real = cli.implicitize

        def planted(P):
            mon = real(P)
            y0, y1 = (Polynomial.variable(mon.F.ring, nm) for nm in ("y0", "y1"))
            return dataclasses.replace(mon, F=mon.F * (y0 + y1))

        monkeypatch.setattr(cli, "implicitize", planted)
        code = main([command, fixture_path("plane"), "--machine"])
        captured = capsys.readouterr()
        assert (code, captured.err) == (1, "")
        data = parse_report(captured.out)
        assert data[verdict_key] == "fails"
        factor = re.compile(r"syzygetic\.\d+\.extraneous_factor|downgraded\.factor\.\d+")
        assert not [key for key in data if factor.fullmatch(key)]

    def test_missing_file_exit_2(self, capsys):
        code = main(["implicitize", "/nonexistent/foo.jonq"])
        assert code == 2

    def test_failing_verification_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "notinverse.jonq"
        bad.write_text(
            "ring: x0, x1, x2\n"
            "cremona: x1*x2, x0*x2, x0*x1\n"
            "cremona_inverse: y0^2, y0*y1, y0*y2\n"
        )
        code, out = run_cli(["verify-cremona", str(bad), "--machine"], capsys)
        assert code == 1
        data = parse_report(out)
        assert data["cremona.verified"] == "fails"

    def test_selftest_zero_count(self, capsys):
        code, out = run_cli(["selftest", "--count", "0", "--machine"], capsys)
        assert code == 0
        data = parse_report(out)
        assert data["failures"] == "0"

    def test_selftest_deterministic(self, capsys):
        code1, out1 = run_cli(
            ["selftest", "--count", "2", "--seed", "3", "--machine"], capsys
        )
        code2, out2 = run_cli(
            ["selftest", "--count", "2", "--seed", "3", "--machine"], capsys
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_budget_skip_reported(self, capsys):
        for pairs in ("40", "0"):
            code, out = run_cli(
                [
                    "rees",
                    fixture_path("plane"),
                    "--machine",
                    "--budget-pairs",
                    pairs,
                ],
                capsys,
            )
            data = parse_report(out)
            assert code == 0
            skipped_keys = [k for k, v in data.items() if v.startswith("skipped(budget")]
            assert skipped_keys, "an exhausted budget must surface as skipped(budget...)"

    def test_human_output_grouped(self, capsys):
        code, out = run_cli(["verify-cremona", fixture_path("identity")], capsys)
        assert code == 0
        assert "[cremona]" in out

    def test_identity_inversion_factors_trivial(self, capsys):
        code, out = run_cli(
            ["verify-cremona", fixture_path("identity"), "--machine"], capsys
        )
        assert code == 0
        data = parse_report(out)
        assert data["cremona.target_factor"] == "1"
        assert data["cremona.source_factor"] == "1"

    def test_rees_plane(self, capsys):
        code, out = run_cli(["rees", fixture_path("plane"), "--machine"], capsys)
        assert code == 0
        data = parse_report(out)
        assert data["downgraded.codim_matches"] == "holds"
        assert data["saturation.forward_equal"] == "holds"
        assert data["saturation.backward_equal"] == "holds"
        assert data["monoid.composition_order"] == "cremona_then_monoid"

    def test_source_name_like_the_monoid_variable(self, tmp_path, capsys):
        """A source variable named y3, the monoid variable's usual name, is
        valid input: the monoid variable takes another name."""
        inst = tmp_path / "clash.jonq"
        inst.write_text(
            "ring: x0, x1, y3\n"
            "cremona: x1*y3, x0*y3, x0*x1\n"
            "cremona_inverse: y1*y2, y0*y2, y0*y1\n"
            "f: x0\n"
            "g: x0^3 + x1^3 + y3^3\n"
        )
        checks = {
            ("implicitize", "--oracle"): ("oracle.matches_formula",),
            ("rees",): ("monoid.same_implicit_equation", "saturation.forward_equal"),
            ("analyze",): ("syzygy_spans.all_match", "regularity.I.formula_matches_oracle"),
        }
        for command, keys in checks.items():
            code, out = run_cli([*command, str(inst), "--machine"], capsys)
            assert code == 0, command
            data = parse_report(out)
            assert [data[k] for k in keys] == ["holds"] * len(keys), command
            if command[0] == "implicitize":
                assert data["implicit.F"].endswith("*y30")

    def test_negative_instance_option_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "negative.jonq"
        bad.write_text(fixture_text("plane") + "option.max_pairs: -1\n")
        code = main(["implicitize", str(bad), "--machine"])
        captured = capsys.readouterr()
        assert code == 2
        assert "input error" in captured.err and "max_pairs" in captured.err
        assert "budget exceeded" not in captured.err

    @pytest.mark.parametrize("flag", ["--budget-pairs", "--budget-sat", "--deg-bound"])
    def test_negative_budget_flag_exit_2(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["implicitize", fixture_path("plane"), flag, "-1"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_non_integer_budget_flag_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["implicitize", fixture_path("plane"), "--deg-bound", "abc"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--deg-bound" in err
        assert "not an integer: 'abc'" in err

    def test_rees_sat_cap_boundary(self, capsys):
        # plane's saturation exponents are 2 (forward) and 1 (backward)
        rees = ["rees", fixture_path("plane"), "--machine", "--budget-sat"]
        code, out = run_cli([*rees, "2"], capsys)
        data = parse_report(out)
        assert code == 0
        assert data["saturation.identities"].startswith("skipped(budget: ")
        code, out = run_cli([*rees, "3"], capsys)
        data = parse_report(out)
        assert code == 0
        assert data["saturation.forward_exponents"] == "2"
        assert data["saturation.backward_exponents"] == "1"

    @pytest.mark.parametrize("bound", [None, "0", "1"])
    def test_analyze_deg_bound(self, bound, capsys):
        extra = [] if bound is None else ["--deg-bound", bound]
        code, out = run_cli(["analyze", fixture_path("plane"), "--machine", *extra], capsys)
        data = parse_report(out)
        assert code == 0
        if bound is None:
            assert data["syzygy_spans.bound"] == "7"
            assert data["syzygy_spans.all_match"] == "holds"
        else:
            assert data["syzygy_spans.bound"] == bound
            assert data["syzygy_spans.all_match"].startswith(f"skipped(deg-bound {bound} ")
            assert not [k for k in data if k.startswith("syzygy_spans.mu")]

    @pytest.mark.parametrize("source", ["flag", "option"])
    def test_analyze_sat_budget_skipped(self, source, tmp_path, capsys):
        if source == "flag":
            args = [fixture_path("plane"), "--budget-sat", "0"]
        else:
            inst = tmp_path / "sat0.jonq"
            inst.write_text(fixture_text("plane") + "option.sat_cap: 0\n")
            args = [str(inst)]
        code, out = run_cli(["analyze", *args, "--machine"], capsys)
        data = parse_report(out)
        assert code in (0, 1)
        assert data["regularity.I.reg"].startswith("skipped(budget: ")
        bounds = [k for k in data if k.startswith("bounds.")]
        assert len(bounds) == 8
        assert all(data[k].startswith("skipped(budget: ") for k in bounds)
        assert data["syzygy_spans.all_match"] == "holds"

    def test_analyze_pair_budget_reaches_the_bounds(self, capsys):
        # the plane fixture's base ideal is saturated, so its saturation by
        # the variables takes no elimination and 60 pairs reach every bound
        analyze = ["analyze", fixture_path("plane"), "--machine"]
        code, out = run_cli([*analyze, "--budget-pairs", "60"], capsys)
        data = parse_report(out)
        bounds = sorted(k for k in data if k.startswith("bounds."))
        assert code == 0 and len(bounds) == 8
        assert not any(data[k].startswith("skipped(budget") for k in bounds)
        want = parse_report(run_cli(analyze, capsys)[1])
        assert [data[k] for k in bounds] == [want[k] for k in bounds]

    @pytest.mark.parametrize(
        "argv",
        [
            ["implicitize", fixture_path("plane")],
            ["implicitize", fixture_path("plane"), "--oracle"],
            ["analyze", fixture_path("plane")],
            ["selftest", "--count", "2"],
        ],
    )
    def test_pair_budget_skipped_not_error(self, argv, capsys):
        code = main([*argv, "--machine", "--budget-pairs", "5"])
        captured = capsys.readouterr()
        assert code in (0, 1)
        assert captured.err == ""
        data = parse_report(captured.out)
        skipped_keys = [k for k, v in data.items() if v.startswith("skipped(budget: ")]
        assert skipped_keys
        if argv[0] == "implicitize":
            assert data["implicit.F"]
            assert data["case.kind"].startswith("skipped(budget: ")
        if "--oracle" in argv:
            assert data["oracle.matches_formula"].startswith("skipped(budget: ")
        if argv[0] == "analyze":
            assert data["conductor.count"].startswith("skipped(budget: ")
            assert len([k for k in data if k.startswith("bounds.")]) == 8

    @pytest.mark.parametrize("command", ["implicitize", "analyze", "rees"])
    def test_budget_reason_names_budget_once(self, command, capsys):
        code, out = run_cli(
            [command, fixture_path("plane"), "--machine", "--budget-pairs", "5"], capsys
        )
        assert code in (0, 1)
        assert "budget: budget" not in out
        reasons = {v for v in parse_report(out).values() if v.startswith("skipped(budget")}
        assert reasons == {"skipped(budget: Groebner S-pair limit (limit 5))"}
        if command == "rees":
            # at 50 pairs the budget runs out inside the saturation identities
            code, out = run_cli(
                [command, fixture_path("plane"), "--machine", "--budget-pairs", "50"], capsys
            )
            assert code in (0, 1)
            skips = {k: v for k, v in parse_report(out).items() if v.startswith("skipped(")}
            assert skips == {
                "saturation.identities": "skipped(budget: Groebner S-pair limit (limit 50))"
            }

    def test_option_seed_honoured(self, tmp_path, capsys):
        inst = tmp_path / "seed3.jonq"
        inst.write_text(fixture_text("plane") + "option.seed: 3\n")
        code, from_option = run_cli(["analyze", str(inst), "--machine"], capsys)
        assert code == 0
        plane = ["analyze", fixture_path("plane"), "--machine"]
        code, from_flag = run_cli([*plane, "--seed", "3"], capsys)
        assert code == 0
        assert from_option == from_flag
        # seed 3 draws a different regular sequence for plane than seed 0
        _, default = run_cli(plane, capsys)
        assert default != from_flag
        # the flag wins over the option
        _, flag_over_option = run_cli(["analyze", str(inst), "--seed", "0", "--machine"], capsys)
        assert flag_over_option == default
