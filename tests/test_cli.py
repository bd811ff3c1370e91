"""Command-line surface: subcommands, exit codes, report determinism."""

import argparse
import json

import pytest

from homalgebra import catalog, cli, identities
from homalgebra.cli import main
from homalgebra.fileio import load, loads, saves
from homalgebra.parser import _MAX_DIGITS, _MAX_EXPONENT


@pytest.fixture
def emit(tmp_path):
    def _emit(key, filename=None):
        entry = catalog.get(key)
        path = tmp_path / (filename or (key + ".json"))
        path.write_text(saves(entry.algebra, maps=entry.maps))
        return str(path)
    return _emit


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_alternative_table_exits_zero(self, emit, capsys):
        path = emit("alt4_mu1")
        code, out, _ = run(capsys, "verify", path,
                           "--identity", "left_hom_alternative",
                           "--identity", "right_hom_alternative")
        assert code == 0
        assert "all checks hold" in out

    def test_twisted_octonions_fail_alternativity(self, emit, capsys):
        # the stored twist is not left Hom-alternative (its map is not an
        # endomorphism), so the claim-check exits 1
        path = emit("octonions_twist_diag")
        code, out, _ = run(capsys, "verify", path,
                           "--identity", "left_hom_alternative")
        assert code == 1
        assert "fails" in out

    def test_expr_untwisted_alternativity_defect(self, emit, capsys):
        # same table with the twist designation removed: alpha = id, and the
        # classical alternative law fails with an (a^2 - a)-type defect
        entry = catalog.get("octonions_twist_diag")
        stripped = saves(entry.algebra.with_alpha(None))
        path_obj = loads(stripped)
        assert path_obj.algebra.alpha is None
        import tempfile, os
        fd, path = tempfile.mkstemp(suffix=".json")
        os.write(fd, stripped.encode())
        os.close(fd)
        try:
            code, out, _ = run(
                capsys, "verify", path, "--json",
                "--expr", "mu(al(x), mu(x, y)) = mu(mu(x, x), al(y))")
            assert code == 1
            doc = json.loads(out)
            assert doc["all_hold"] is False
            assert doc["notes"]   # implicit identity-map note
            witness = doc["checks"][0]["witness"]
            assert witness["residual"]
            assert witness["specialization"]
            # the defect behind this failure is (a^2 - a) e1 at (u, u, e1):
            # asserted exactly through the associator in the identities tests
        finally:
            os.unlink(path)

    def test_default_suite_runs_and_reports(self, emit, capsys):
        path = emit("hom_jordan_3d")
        code, out, _ = run(capsys, "verify", path, "--json")
        doc = json.loads(out)
        names = [c["identity"] for c in doc["checks"]]
        assert "commutative" in names
        assert "hom_jordan" in names          # commutative, so included
        assert "hom_associative" in names
        assert code in (0, 1)

    def test_default_suite_skips_jordan_when_noncommutative(self, emit, capsys):
        path = emit("alt4_mu1")
        _, out, _ = run(capsys, "verify", path, "--json")
        doc = json.loads(out)
        names = [c["identity"] for c in doc["checks"]]
        assert "hom_jordan" not in names
        assert "commutative" in names

    def test_json_reports_are_byte_identical(self, emit, capsys):
        path = emit("alt4_mu1_twist_alpha1")
        _, out1, _ = run(capsys, "verify", path, "--json",
                         "--identity", "left_hom_alternative")
        _, out2, _ = run(capsys, "verify", path, "--json",
                         "--identity", "left_hom_alternative")
        assert out1 == out2

    def test_assumptions_listed(self, emit, capsys):
        path = emit("alt4_mu1_twist_alpha1")
        _, out, _ = run(capsys, "verify", path, "--json",
                        "--identity", "left_hom_alternative")
        doc = json.loads(out)
        assert doc["checks"][0]["assumptions"] == ["a2 != 0"]
        assert doc["checks"][0]["verdict"] == "holds-under-assumptions"

    def test_default_suite_checks_shared_identities_once(self, emit, capsys,
                                                         monkeypatch):
        # associator_alternating_12/_23 have the ASTs of the two linearized
        # alternativity entries, so their results are reused, not recomputed
        calls = []
        check = identities.check

        def counting(*args, **kwargs):
            calls.append(args[1])
            return check(*args, **kwargs)

        monkeypatch.setattr(identities, "check", counting)
        _, out, _ = run(capsys, "verify", emit("hom_jordan_3d"), "--json")
        records = {c.pop("identity"): c for c in json.loads(out)["checks"]}
        assert len(calls) == len(records) - 2
        assert len(set(calls)) == len(calls)
        assert (records["associator_alternating_12"]
                == records["left_hom_alternative_linearized"])
        assert (records["associator_alternating_23"]
                == records["right_hom_alternative_linearized"])

    def test_forced_basis_on_nonlinear_is_usage_error(self, emit, capsys):
        path = emit("alt4_mu1")
        code, _, err = run(capsys, "verify", path, "--strategy", "basis",
                           "--identity", "left_hom_alternative")
        assert code == 2
        assert "multilinear" in err


def run_to_exit(capsys, *argv):
    """main(argv) for a call that argparse ends: exit code, stdout, stderr."""
    with pytest.raises(SystemExit) as stop:
        main(list(argv))
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


@pytest.fixture
def fresh_parser():
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()


class TestParserReuse:
    def test_parser_is_built_once_per_process(self, emit, capsys, monkeypatch,
                                              fresh_parser):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            real_init(self, *args, **kwargs)
            built.append(self.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        path = emit("alt4_mu1")
        run(capsys, "catalog", "list")
        run(capsys, "verify", path, "--identity", "commutative")
        run_to_exit(capsys, "verify")
        run(capsys, "verify", path, "--json")
        assert built.count("homalg") == 1

    def test_append_lists_are_not_shared_between_calls(self, emit, capsys):
        path = emit("alt4_mu1_twist_alpha1")

        def checked(*argv):
            code, out, _ = run(capsys, "verify", path, "--json", *argv)
            return code, [c["identity"] for c in json.loads(out)["checks"]]

        _, first = checked("--identity", "commutative",
                           "--expr", "mu(x, y) = mu(y, x)")
        _, second = checked("--identity", "hom_associative")
        _, third = checked("--expr", "al(x) = al(x)")
        _, default = checked()
        assert first == ["commutative", "mu(x, y) = mu(y, x)"]
        assert second == ["hom_associative"]
        assert third == ["al(x) = al(x)"]
        assert default[:2] == ["commutative", "hom_associative"]
        assert len(default) >= 10

    def test_usage_error_between_good_calls(self, emit, capsys):
        path = emit("alt4_mu1")
        good = ("verify", path, "--json", "--identity", "commutative")
        before = run(capsys, *good)
        code, out, err = run_to_exit(capsys, "verify", path, "--strategy",
                                     "exhaustive")
        assert code == 2
        assert out == ""
        assert err.startswith("usage: homalg verify")
        assert "invalid choice: 'exhaustive'" in err
        assert run(capsys, *good) == before

    def test_help_follows_the_terminal_width_at_print_time(
            self, capsys, monkeypatch, fresh_parser):
        monkeypatch.setenv("COLUMNS", "200")
        run(capsys, "catalog", "list")          # builds the shared parser
        monkeypatch.setenv("COLUMNS", "40")
        for argv in (["--help"], ["verify", "--help"]):
            shared = run_to_exit(capsys, *argv)
            with pytest.raises(SystemExit):
                cli._build_parser.__wrapped__().parse_args(argv)
            fresh = capsys.readouterr()
            assert shared == (0, fresh.out, fresh.err)


class TestTransforms:
    def test_twist_untwist_files(self, emit, capsys, tmp_path):
        path = emit("alt4_mu1")
        out_twist = str(tmp_path / "twisted.json")
        code, out, _ = run(capsys, "twist", path, "--map", "alpha1",
                           "-o", out_twist)
        assert code == 0
        twisted = load(out_twist)
        stored = catalog.get("alt4_mu1_twist_alpha1").algebra
        assert twisted.algebra.same_table(stored)

    def test_twist_refuses_without_force(self, emit, capsys, tmp_path):
        path = emit("octonions")
        out_twist = str(tmp_path / "twisted.json")
        code, _, err = run(capsys, "twist", path, "--map", "oct_diag",
                           "-o", out_twist)
        assert code == 2
        assert "--force" in err

    def test_twist_force_records_certificate(self, emit, capsys, tmp_path):
        path = emit("octonions")
        out_twist = str(tmp_path / "twisted.json")
        code, out, _ = run(capsys, "twist", path, "--map", "oct_diag",
                           "-o", out_twist, "--force")
        assert code == 0
        assert "overridden" in out
        twisted = load(out_twist)
        assert twisted.algebra.same_table(
            catalog.get("octonions_twist_diag").algebra)

    def test_untwist_roundtrip(self, emit, capsys, tmp_path):
        path = emit("alt4_mu1_twist_alpha2")
        out_path = str(tmp_path / "back.json")
        code, _, _ = run(capsys, "untwist", path, "-o", out_path)
        assert code == 0
        back = load(out_path)
        assert back.algebra.same_table(catalog.get("alt4_mu1").algebra)

    def test_polarize_and_opposite(self, emit, capsys, tmp_path):
        path = emit("hom_assoc_3d")
        pol_path = str(tmp_path / "pol.json")
        code, _, _ = run(capsys, "polarize", path, "-o", pol_path)
        assert code == 0
        assert load(pol_path).algebra.same_table(
            catalog.get("hom_jordan_3d").algebra)
        opp_path = str(tmp_path / "opp.json")
        code, _, _ = run(capsys, "opposite", path, "-o", opp_path)
        assert code == 0


class TestChecks:
    def test_check_endo_holds_under_assumptions(self, emit, capsys):
        path = emit("alt4_mu1")
        code, out, _ = run(capsys, "check-endo", path, "--map", "alpha1",
                           "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["checks"][0]["verdict"] == "holds-under-assumptions"
        assert doc["checks"][0]["assumptions"] == ["a2 != 0"]

    def test_check_endo_failure_exits_one(self, emit, capsys):
        path = emit("octonions")
        code, out, _ = run(capsys, "check-endo", path, "--map", "oct_diag")
        assert code == 1
        assert "a^2 - 1" in out

    def test_check_morphism(self, emit, capsys, tmp_path):
        # phi: opposite(mu1) -> mu2 with phi(e1) = -e1
        mu1 = catalog.get("alt4_mu1")
        from homalgebra.algebra import LinMap, opposite
        from homalgebra.scalars import Scalar
        phi = LinMap.diagonal([Scalar.one(), -Scalar.one(),
                               Scalar.one(), Scalar.one()])
        a_path = tmp_path / "a.json"
        a_path.write_text(saves(opposite(mu1.algebra), maps={"phi": phi}))
        b_path = emit("alt4_mu2")
        code, out, _ = run(capsys, "check-morphism", str(a_path), b_path,
                           "--map", "phi")
        assert code == 0

    def test_check_unit(self, emit, capsys):
        path = emit("octonions")
        code, _, _ = run(capsys, "check-unit", path, "--element", "u")
        assert code == 0
        path2 = emit("octonions_twist_diag")
        code, out, _ = run(capsys, "check-unit", path2, "--element", "u")
        assert code == 1
        assert "a - 1" in out


class TestExitContract:
    def test_exit_codes_across_the_catalog(self, emit, capsys):
        # 0 iff every requested check holds (assumptions included), 1 on any
        # failure, for every catalog entry
        for key in catalog.list_keys():
            path = emit(key, key + "_exit.json")
            code, out, _ = run(capsys, "verify", path, "--json",
                               "--identity", "left_hom_alternative",
                               "--identity", "commutative")
            doc = json.loads(out)
            verdicts = {c["identity"]: c["verdict"] for c in doc["checks"]}
            expected = 0 if all(v != "fails" for v in verdicts.values()) else 1
            assert code == expected, (key, verdicts)


class TestCatalogCommands:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert out.split() == list(catalog.list_keys())

    def test_show(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "octonions")
        assert code == 0
        assert "unit:       u" in out

    def test_show_emit_is_loadable(self, capsys):
        code, out, _ = run(capsys, "catalog", "show", "hom_assoc_3d", "--emit")
        assert code == 0
        loaded = loads(out)
        assert loaded.algebra == catalog.get("hom_assoc_3d").algebra

    def test_show_unknown_exits_two(self, capsys):
        code, _, err = run(capsys, "catalog", "show", "nonsense")
        assert code == 2
        assert "nonsense" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, _ = run(capsys, "verify", "/does/not/exist.json")
        assert code == 2


class TestNestingLimit:
    def test_deep_expr_exits_two(self, emit, capsys):
        path = emit("alt4_mu1_twist_alpha1")
        for head in ("(", "al(", "mu(x, "):
            deep = head * 400 + "y" + ")" * 400
            code, _, err = run(capsys, "verify", path, "--expr", deep + " = 0")
            assert code == 2
            assert "nesting deeper than" in err

    def test_deep_scalar_in_file_exits_two(self, emit, capsys, tmp_path):
        doc = json.loads(saves(catalog.get("hom_assoc_3d").algebra))
        doc["mu"][0]["value"]["e1"] = "(" * 600 + "a" + ")" * 600
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert "nesting deeper than" in err

    def test_nesting_at_the_limit_is_accepted(self, emit, capsys):
        path = emit("alt4_mu1_twist_alpha1")
        deep = "(" * 99 + "x" + ")" * 99
        code, _, _ = run(capsys, "verify", path,
                         "--expr", "mu(%s, y) = mu(x, y)" % deep)
        assert code == 0


class TestExponentLimit:
    def _file_with(self, tmp_path, scalar):
        doc = json.loads(saves(catalog.get("hom_assoc_3d").algebra))
        doc["mu"][0]["value"]["e1"] = scalar
        path = tmp_path / "power.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_huge_scalar_exponent_exits_two(self, capsys, tmp_path):
        path = self._file_with(tmp_path, "a^99999999999")
        code, _, err = run(capsys, "verify", path)
        assert code == 2
        assert err.startswith("error: ")
        assert "exponent 99999999999 exceeds the limit" in err

    def test_huge_alpha_power_exits_two(self, emit, capsys):
        path = emit("alt4_mu1_twist_alpha1")
        code, _, err = run(capsys, "verify", path,
                           "--expr", "al^99999999999(x) = x")
        assert code == 2
        assert err.startswith("error: ")
        assert "exponent 99999999999 exceeds the limit" in err

    def test_exponent_at_the_limit_is_accepted(self, emit, capsys, tmp_path):
        path = self._file_with(tmp_path, "a^%d" % _MAX_EXPONENT)
        code, _, err = run(capsys, "verify", path, "--identity", "commutative")
        assert code == 1 and err == ""   # e2*e3 = b*e3 but e3*e2 = 0
        # untwisted: al is the identity map, so every power of it is too
        code, _, _ = run(capsys, "verify", emit("alt4_mu1"),
                         "--expr", "al^%d(x) = x" % _MAX_EXPONENT)
        assert code == 0

    def test_one_past_the_limit_is_refused(self, emit, capsys, tmp_path):
        path = self._file_with(tmp_path, "a^%d" % (_MAX_EXPONENT + 1))
        assert run(capsys, "verify", path)[0] == 2
        code, _, _ = run(capsys, "verify", emit("alt4_mu1"),
                         "--expr", "al^%d(x) = x" % (_MAX_EXPONENT + 1))
        assert code == 2


def _setting(value, *path):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return json.dumps(doc)
    return mutate


def _first_constant(text):
    def mutate(doc):
        value = doc["mu"][0]["value"]
        value[next(iter(value))] = text
        return json.dumps(doc)
    return mutate


_LONG_INTEGER = "1" * 5000   # past Python's 4300-digit int conversion limit


# file text from a valid document; each case used to escape as a traceback
_MALFORMED = {
    "nested-arrays": lambda doc: "[" * 100000 + "]" * 100000,
    "mu-value-not-object": _setting("e1", "mu", 0, "value"),
    "maps-not-object": _setting([], "maps"),
    "params-not-list": _setting(5, "params"),
    "mu-i-not-string": _setting(["e1"], "mu", 0, "i"),
    "mu-j-not-string": _setting(["e1"], "mu", 0, "j"),
    "unit-not-string": _setting(["e0"], "unit"),
    "twist-not-string": _setting(["alpha1"], "twist"),
    "check-unit-unknown-label": json.dumps,
    "non-ascii-digit-constant": _first_constant("\u00b2"),
    "long-integer-constant": _first_constant(_LONG_INTEGER),
    "long-json-number": lambda doc: _first_constant("N")(doc).replace(
        '"N"', _LONG_INTEGER),
}

# --expr text with its offending token at column 5
_MALFORMED_EXPR = {
    "non-ascii-digit": "x = \u00b2*x",
    "long-integer": "x = %s*x" % _LONG_INTEGER,
}


class TestMalformedInput:
    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_exits_two_with_message(self, case, capsys, tmp_path):
        entry = catalog.get("alt4_mu1_twist_alpha1")
        doc = json.loads(saves(entry.algebra, maps=entry.maps))
        path = tmp_path / "malformed.json"
        path.write_text(_MALFORMED[case](doc))
        if case == "check-unit-unknown-label":
            argv = ["check-unit", str(path), "--element", "nope"]
        else:
            argv = ["verify", str(path)]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("mutate, field", [
        (_setting("1/(a1-a1)", "mu", 0, "value", "e0"), "mu[0].value[e0]"),
        (_setting("1/0", "maps", "alpha1", 0, 0), "maps[alpha1][0][0]"),
    ], ids=["mu-value", "map-entry"])
    def test_division_by_zero_names_the_field(self, mutate, field, capsys,
                                              tmp_path):
        entry = catalog.get("alt4_mu1_twist_alpha1")
        doc = json.loads(saves(entry.algebra, maps=entry.maps))
        path = tmp_path / "malformed.json"
        path.write_text(mutate(doc))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2
        assert err.startswith("error: %s: %s: " % (path, field))
        assert "division by the zero scalar" in err

    @pytest.mark.parametrize("case", sorted(_MALFORMED_EXPR))
    def test_expr_exits_two_at_the_token(self, case, emit, capsys):
        code, _, err = run(capsys, "verify", emit("alt4_mu1"),
                           "--expr", _MALFORMED_EXPR[case])
        assert code == 2
        assert err.startswith("error: ")
        assert "(line 1, column 5)" in err

    def test_digit_limit_is_inclusive(self, emit, capsys):
        path = emit("alt4_mu1")
        code, _, err = run(capsys, "verify", path,
                           "--expr", "x = %s*x" % ("1" * _MAX_DIGITS))
        assert code == 1 and err == ""
        code, _, err = run(capsys, "verify", path,
                           "--expr", "x = %s*x" % ("1" * (_MAX_DIGITS + 1)))
        assert code == 2
        assert "exceeds the limit %d" % _MAX_DIGITS in err
