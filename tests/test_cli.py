import json
import os
import random
import subprocess
import sys
import time

import pytest

import zonotutte
from zonotutte.cli import main

WORKED_DOC = '{"dim": 2, "vectors": [[3, 0], [0, 2], [1, 1]]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestTutteCommand:
    def test_worked_example_json(self, capsys):
        report = run_json(capsys, "tutte", "--vectors", "3,0;0,2;1,1")
        assert report["command"] == "tutte"
        assert report["input"] == {"dim": 2, "vectors": [[3, 0], [0, 2], [1, 1]]}
        monomial = report["results"]["monomial"]
        assert monomial["terms"] == [
            {"i": 2, "j": 0, "c": "1"},
            {"i": 1, "j": 0, "c": "4"},
            {"i": 0, "j": 1, "c": "1"},
            {"i": 0, "j": 0, "c": "5"},
        ]
        shifted = report["results"]["shifted"]
        assert {"i": 1, "j": 0, "c": "6"} in shifted["terms"]
        assert report["results"]["is_unimodular"] is False

    def test_classical_flag(self, capsys):
        report = run_json(capsys, "tutte", "--classical", "--vectors", "3,0;0,2;1,1")
        assert report["results"]["kind"] == "classical"
        assert report["results"]["monomial"]["terms"] == [
            {"i": 2, "j": 0, "c": "1"},
            {"i": 1, "j": 0, "c": "1"},
            {"i": 0, "j": 1, "c": "1"},
        ]

    def test_identity_matrix(self, capsys):
        report = run_json(capsys, "tutte", "--vectors", "1,0;0,1")
        assert report["results"]["monomial"]["terms"] == [{"i": 2, "j": 0, "c": "1"}]

    def test_file_input_matches_inline(self, capsys, tmp_path):
        path = tmp_path / "input.json"
        path.write_text(WORKED_DOC)
        from_file = run_json(capsys, "tutte", str(path))
        inline = run_json(capsys, "tutte", "--vectors", "3,0;0,2;1,1")
        assert from_file == inline

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO(WORKED_DOC))
        report = run_json(capsys, "tutte")
        assert report["results"]["monomial"]["terms"][0] == {"i": 2, "j": 0, "c": "1"}

    def test_negative_first_entry_as_separate_argument(self, capsys):
        joined = run_cli(capsys, "tutte", "--vectors=-3,0;1,1")
        separate = run_cli(capsys, "tutte", "--vectors", "-3,0;1,1")
        assert joined[0] == 0
        assert separate == joined

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "tutte", "--vectors", "3,0;0,2;1,1")
        _, second, _ = run_cli(capsys, "tutte", "--vectors", "3,0;0,2;1,1")
        assert first == second

    def test_pretty_output(self, capsys):
        code, out, _ = run_cli(capsys, "tutte", "--pretty", "--vectors", "3,0;0,2;1,1")
        assert code == 0
        assert "x^2 + 4x + y + 5" in out

    def test_timing_flag(self, capsys):
        report = run_json(capsys, "tutte", "--timing", "--vectors", "3,0;0,2;1,1")
        assert "timing_ms" in report
        no_timing = run_json(capsys, "tutte", "--vectors", "3,0;0,2;1,1")
        assert "timing_ms" not in no_timing
        code, out, _ = run_cli(
            capsys, "tutte", "--pretty", "--timing", "--vectors", "3,0;0,2;1,1"
        )
        assert code == 0
        assert out.splitlines()[-1].startswith("timing_ms: ")


class TestScalarCommands:
    def test_count_at_two(self, capsys):
        report = run_json(capsys, "count", "--q", "2", "--vectors", "3,0;0,2;1,1")
        assert report["results"]["value"] == "57"
        assert "M_X" in report["results"]["via"]

    def test_volume(self, capsys):
        report = run_json(capsys, "volume", "--vectors", "3,0;0,2;1,1")
        assert report["results"]["value"] == "11"

    def test_interior_of_unit_square(self, capsys):
        report = run_json(capsys, "interior", "--q", "1", "--vectors", "1,0;0,1")
        assert report["results"]["value"] == "0"

    def test_calls_in_a_row_do_not_share_option_values(self, capsys):
        # one parser serves every call in the process
        first = run_json(capsys, "count", "--q", "3", "--vectors", "1,0;0,1")
        second = run_json(capsys, "count", "--vectors", "1,0;0,1")
        assert (first["results"]["q"], first["results"]["value"]) == (3, "16")
        assert (second["results"]["q"], second["results"]["value"]) == (1, "4")

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["ehrhart"], "volume", "11"),
            (["count", "--q", "2"], "value", "57"),
            (["volume"], "value", "11"),
            (["interior", "--q", "2"], "value", "33"),
        ],
    )
    def test_ehrhart_only_commands_skip_the_full_sum(self, capsys, monkeypatch, argv, key, value):
        # these commands sum the independent sublists alone, by their
        # k-vectors, and never build the whole M_X
        import zonotutte.cli as cli
        import zonotutte.tutte_core as tutte_core

        def refuse(*args, **kwargs):
            raise AssertionError("called by an Ehrhart-only command")

        for module in (cli, tutte_core):
            monkeypatch.setattr(module, "multiplicity_tutte", refuse)
        report = run_json(capsys, *argv, "--vectors", "3,0;0,2;1,1")
        assert report["results"][key] == value

    def test_ehrhart_command(self, capsys):
        report = run_json(capsys, "ehrhart", "--vectors", "3,0;0,2;1,1")
        assert report["results"]["ehrhart"]["terms"] == [
            {"i": 2, "c": "11"},
            {"i": 1, "c": "6"},
            {"i": 0, "c": "1"},
        ]
        assert report["results"]["interior"]["terms"][1] == {"i": 1, "c": "-6"}
        assert report["results"]["volume"] == "11"


class TestVerifyCommand:
    def test_worked_example_with_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--vectors",
            "3,0;0,2;1,1",
            "--q-list",
            "1,2",
            "--oracle",
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["all_pass"] is True
        names = {c["identity"] for c in report["checks"]}
        assert "ehrhart_theorem_equals_independent_sets" in names
        assert "dilation_identity_q2" in names
        assert "closed_count_q2" in names
        assert "corollary_points" in names
        for check in report["checks"]:
            assert check["pass"] is True
            assert check["lhs"] == check["rhs"]

    def test_unit_square_without_oracle(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--vectors", "1,0;0,1")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["all_pass"] is True
        assert not any("count" in c["identity"] for c in report["checks"])

    def test_even_list_oracle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "--vectors",
            "2,0;0,2;1,1",
            "--q-list",
            "1,2,3",
            "--oracle",
        )
        assert code == 0
        report = json.loads(out)
        ehrhart = report["results"]["ehrhart"]["terms"]
        assert ehrhart == [{"i": 2, "c": "8"}, {"i": 1, "c": "5"}, {"i": 0, "c": "1"}]

    def test_oracle_on_fourteen_vectors(self, capsys):
        vectors = ";".join(f"{k % 3 - 1},{k % 4 - 1}" for k in range(14))
        code, out, _ = run_cli(
            capsys, "verify", "--vectors", vectors, "--q-list", "1,2", "--oracle"
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["input"]["vectors"]) == 14
        assert "closed_count_q2" in {c["identity"] for c in report["checks"]}
        assert all(check["pass"] for check in report["checks"])


    def test_oracle_work_is_not_repeated(self, capsys, monkeypatch):
        import zonotutte.cli as cli
        import zonotutte.tutte_core as tutte_core

        calls = {"tutte": 0, "oracle": []}
        real_tutte, real_counts = tutte_core.multiplicity_tutte, cli.closed_open_counts

        def counting_tutte(X, **kw):
            calls["tutte"] += 1
            return real_tutte(X, **kw)

        def counting_counts(X, q, **kw):
            calls["oracle"].append(q)
            return real_counts(X, q, **kw)

        monkeypatch.setattr(cli, "multiplicity_tutte", counting_tutte)
        monkeypatch.setattr(tutte_core, "multiplicity_tutte", counting_tutte)
        monkeypatch.setattr(cli, "closed_open_counts", counting_counts)
        code, _, _ = run_cli(
            capsys, "verify", "--vectors", "2,0;0,2;1,1", "--q-list", "2,3,2", "--oracle"
        )
        assert code == 0
        # M_X once, then qX once per q; one box scan per distinct q, plus q=1
        assert calls["tutte"] == 1 + 3
        assert calls["oracle"] == [2, 3, 1]


class TestVerifyFailurePath:
    def test_identity_failure_exits_1(self, capsys, monkeypatch):
        import zonotutte.cli as cli
        from zonotutte import UniPoly

        monkeypatch.setattr(
            cli, "ehrhart_via_independent_sets", lambda X, **kw: UniPoly([7])
        )
        code, out, _ = run_cli(capsys, "verify", "--vectors", "1,0;0,1")
        assert code == 1
        report = json.loads(out)
        assert report["results"]["all_pass"] is False
        failing = [c for c in report["checks"] if not c["pass"]]
        assert failing and failing[0]["identity"] == (
            "ehrhart_theorem_equals_independent_sets"
        )

    def test_a_faulty_minor_gcd_fails_verify(self, capsys, monkeypatch):
        # the theorem route reads m(L), the gcd of L's minors, off the
        # lattice kernel; the independent-set route never calls it, so a
        # wrong m at rank 1 must show
        import zonotutte.tutte_core as tutte_core

        real = tutte_core.lattice_multiplicity

        def doubled(basis):
            m = real(basis)
            return 2 * m if len(basis) == 1 else m

        monkeypatch.setattr(tutte_core, "lattice_multiplicity", doubled)
        code, out, _ = run_cli(capsys, "verify", "--vectors", "3,0;0,2;1,1")
        assert code == 1
        failing = [c for c in json.loads(out)["checks"] if not c["pass"]]
        assert failing[0]["identity"] == "ehrhart_theorem_equals_independent_sets"
        assert failing[0]["rhs"] == "11q^2 + 6q + 1"

    def test_only_the_oracle_takes_bareiss_determinants(self, capsys, monkeypatch):
        # the polynomial side shares no elimination with the oracle: with
        # every Bareiss determinant in the package failing, the commands
        # that do not run the oracle still print the same reports
        argvs = [
            ("tutte", "--vectors", "3,0;0,2;1,1"),
            ("ehrhart", "--vectors", "3,0;0,2;1,1"),
            ("verify", "--vectors", "3,0;0,2;1,1"),
        ]
        expected = []
        for argv in argvs:
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            expected.append(out)

        class BareissCalled(Exception):
            pass

        def refuse(m):
            raise BareissCalled

        patched = 0
        for name, module in list(sys.modules.items()):
            if name.startswith("zonotutte") and hasattr(module, "_bareiss"):
                monkeypatch.setattr(module, "_bareiss", refuse)
                patched += 1
        assert patched
        for argv, out in zip(argvs, expected):
            assert run_cli(capsys, *argv) == (0, out, "")
        with pytest.raises(BareissCalled):
            main(["verify", "--oracle", "--vectors", "3,0;0,2;1,1"])

    def test_second_readings_catch_a_wrong_monomial_form(self, capsys, monkeypatch):
        # E is read off the shifted coefficients; a fault in the monomial
        # form alone must show in every check that reads it a second way.
        # The dilation identity's right side is expanded from the faulty
        # monomial form of M_X, its left side by the faulty expansion of
        # M_qX: the extra x^1 term agrees at q = 1 but not at q = 2
        import zonotutte.tutte_core as tutte_core
        from zonotutte import BiPoly

        real = tutte_core.expand_shifted_basis

        def off_by_x(terms):
            out = dict(real(terms).sorted_terms())
            out[(1, 0)] = out.get((1, 0), 0) + 1
            return BiPoly(out)

        monkeypatch.setattr(tutte_core, "expand_shifted_basis", off_by_x)
        code, out, _ = run_cli(capsys, "verify", "--vectors", "3,0;0,2;1,1")
        assert code == 1
        passed = {c["identity"]: c["pass"] for c in json.loads(out)["checks"]}
        assert passed["ehrhart_theorem_equals_independent_sets"] is True
        for name in (
            "coefficient_reversal",
            "interior_specialization",
            "volume_identity",
            "dilation_identity_q2",
        ):
            assert passed[name] is False, name


# --pretty renderings and the tutte report's shifted block of the worked
# list, pinned byte for byte
GOLDEN_PRETTY = {
    ("tutte",): """\
command: tutte
input: dim=2 vectors=(3,0) (0,2) (1,1)
kind: multiplicity
monomial: x^2 + 4x + y + 5
shifted:  (x-1)^2 + 6(x-1) + (y-1) + 11
unimodular: False
""",
    ("tutte", "--classical"): """\
command: tutte
input: dim=2 vectors=(3,0) (0,2) (1,1)
kind: classical
monomial: x^2 + x + y
shifted:  (x-1)^2 + 3(x-1) + (y-1) + 3
unimodular: False
""",
    ("ehrhart",): """\
command: ehrhart
input: dim=2 vectors=(3,0) (0,2) (1,1)
ehrhart:  11q^2 + 6q + 1
interior: 11q^2 - 6q + 1
volume:   11
""",
    ("count", "--q", "2"): """\
command: count
input: dim=2 vectors=(3,0) (0,2) (1,1)
q: 2
value: 57
via: q^n M_X(1+1/q, 1); at q=1 this is M_X(2,1)
""",
    ("interior", "--q", "2"): """\
command: interior
input: dim=2 vectors=(3,0) (0,2) (1,1)
q: 2
value: 33
via: q^n M_X(1-1/q, 1); at q=1 this is M_X(0,1)
""",
    ("volume",): """\
command: volume
input: dim=2 vectors=(3,0) (0,2) (1,1)
value: 11
via: M_X(1,1), the leading Ehrhart coefficient
""",
    ("verify", "--oracle"): """\
command: verify
input: dim=2 vectors=(3,0) (0,2) (1,1)
PASS ehrhart_theorem_equals_independent_sets: lhs=11q^2 + 6q + 1 rhs=11q^2 + 6q + 1
PASS dilation_identity_q1: lhs=x^2 + 4x + y + 5 rhs=x^2 + 4x + y + 5
PASS dilation_identity_q2: lhs=x^2 + 10x + 4y + 29 rhs=x^2 + 10x + 4y + 29
PASS interior_specialization: lhs=11q^2 - 6q + 1 rhs=11q^2 - 6q + 1
PASS coefficient_reversal: lhs=q^2 + 6q + 11 rhs=q^2 + 6q + 11
PASS volume_identity: lhs=11 rhs=11
PASS closed_count_q1: lhs=18 rhs=18
PASS interior_count_q1: lhs=6 rhs=6
PASS closed_count_q2: lhs=57 rhs=57
PASS interior_count_q2: lhs=33 rhs=33
PASS corollary_points: lhs=18 rhs=18
PASS corollary_interior_points: lhs=6 rhs=6
all identities pass: True
""",
}

GOLDEN_SHIFTED = (
    '"shifted": {"vars": ["x-1", "y-1"], "terms": [{"i": 2, "j": 0, "c": "1"}, '
    '{"i": 1, "j": 0, "c": "6"}, {"i": 0, "j": 1, "c": "1"}, {"i": 0, "j": 0, "c": "11"}]}'
)


class TestGoldenOutput:
    def test_pretty_renderings(self, capsys):
        for argv, expected in GOLDEN_PRETTY.items():
            code, out, _ = run_cli(capsys, *argv, "--pretty", "--vectors", "3,0;0,2;1,1")
            assert (code, out) == (0, expected), argv

    def test_tutte_shifted_block(self, capsys):
        code, out, _ = run_cli(capsys, "tutte", "--vectors", "3,0;0,2;1,1")
        assert code == 0
        assert GOLDEN_SHIFTED in out


class TestExitCodes:
    def test_parse_error_bad_json(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("{not json"))
        code, _, err = run_cli(capsys, "tutte")
        assert code == 2
        assert "error" in err

    def test_parse_error_ragged_vectors(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO('{"dim": 2, "vectors": [[1]]}'))
        code, _, _ = run_cli(capsys, "tutte")
        assert code == 2

    def test_parse_error_non_integer(self, capsys, monkeypatch):
        import io

        dim_error = 'error: "dim" must be an integer'
        for doc, message in (
            ('{"dim": 1, "vectors": [[1.5]]}', "error:"),
            ('{"dim": 2, "vectors": [[true, 0]]}', "error:"),
            ('{"dim": 2, "vectors": ["ab"]}', "error:"),
            ('{"dim": 1, "vectors": [5]}', "error:"),
            ('{"dim": "2", "vectors": [[1, 0]]}', dim_error),
            ('{"dim": 2.0, "vectors": [[1, 0]]}', dim_error),
        ):
            monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
            code, out, err = run_cli(capsys, "tutte")
            assert code == 2, doc
            assert not out and err.startswith(message), doc

    # (argv, stdin); "{tmp}" in argv stands for a directory
    INPUT_FAILURES = {
        "not_an_object": (["tutte"], "[1, 2]"),
        "no_vectors_key": (["tutte"], '{"dim": 2}'),
        "dim_zero": (["tutte"], '{"dim": 0, "vectors": []}'),
        "vectors_not_a_list": (["tutte"], '{"dim": 2, "vectors": "1,0"}'),
        "inline_not_an_integer": (["tutte", "--vectors", "1,x"], ""),
        "inline_empty": (["tutte", "--vectors", " ; "], ""),
        "inline_ragged": (["tutte", "--vectors", "1,2;3"], ""),
        "directory_as_input": (["tutte", "{tmp}"], ""),
        "q_list_not_an_integer": (["verify", "--q-list", "a", "--vectors", "1,0;0,1"], ""),
        "q_list_empty": (["verify", "--q-list", ",", "--vectors", "1,0;0,1"], ""),
    }

    @pytest.mark.parametrize("case", list(INPUT_FAILURES))
    def test_input_failure_is_one_error_line(self, case, capsys, monkeypatch, tmp_path):
        import io

        argv, stdin = self.INPUT_FAILURES[case]
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == 2
        assert not out
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_file_that_is_not_utf8_is_malformed(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff" + WORKED_DOC.encode())
        code, out, err = run_cli(capsys, "tutte", str(path))
        assert code == 2
        assert not out
        assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1, err

    def test_dimension_deficient(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            sys, "stdin", io.StringIO('{"dim": 2, "vectors": [[1, 0]]}')
        )
        code, _, _ = run_cli(capsys, "tutte")
        assert code == 3

    def test_cap_exceeded(self, capsys):
        code, _, _ = run_cli(
            capsys, "tutte", "--max-subsets", "2", "--vectors", "3,0;0,2;1,1"
        )
        assert code == 4

    def test_box_cap_exceeded(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--oracle", "--max-box", "1", "--vectors", "3,0;0,2;1,1"
        )
        assert code == 4

    def test_oracle_cap_refuses_before_the_polynomial_side(self, capsys):
        # n = 4, |X| = 24, entries in [-3, 3]: the oracle's cap refuses
        # after zonotope_hrep, where M_X and its dilations take seconds
        rng = random.Random(24)
        spec = ";".join(
            ",".join(str(rng.randint(-3, 3)) for _ in range(4)) for _ in range(24)
        )
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--oracle", "--vectors", spec)
        assert code == 4
        assert not out and "line-facet pairs" in err
        assert time.perf_counter() - start < 1

    def test_bad_q(self, capsys):
        code, _, _ = run_cli(
            capsys, "count", "--q", "0", "--vectors", "3,0;0,2;1,1"
        )
        assert code == 5

    def test_bad_q_list(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--q-list", "0,1", "--vectors", "3,0;0,2;1,1"
        )
        assert code == 5

    def test_negative_q_list(self, capsys):
        code, _, _ = run_cli(
            capsys, "verify", "--q-list", "-1,2", "--vectors", "3,0;0,2;1,1"
        )
        assert code == 5

    def test_integer_beyond_digit_limit_is_malformed(self, capsys, monkeypatch):
        import io

        doc = '{"dim": 1, "vectors": [[' + "9" * 5000 + "]]}"
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, err = run_cli(capsys, "tutte")
        assert code == 2
        assert not out and err.startswith("error: invalid JSON")

    def test_deeply_nested_json_is_malformed(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 200_000 + "]" * 200_000))
        code, out, err = run_cli(capsys, "tutte")
        assert code == 2
        assert not out and err.startswith("error: invalid JSON")


class TestBigResults:
    def test_result_longer_than_digit_limit_prints(self, capsys):
        # (10^2500 - 1)^2 has 5000 digits: 9...98 0...01
        a = "9" * 2500
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        report = run_json(capsys, "volume", "--vectors", f"{a},0;0,{a}")
        assert report["results"]["value"] == "9" * 2499 + "8" + "0" * 2499 + "1"
        # the lifted limit does not outlive the call
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_oracle_with_entries_near_ten_to_the_twenty(self, capsys):
        # about 2 * 10^20 box points on two lines
        report = run_json(
            capsys,
            "verify",
            "--oracle",
            "--q-list",
            "1,2,3",
            "--max-box",
            str(10**24),
            "--vectors",
            "100000000000000000000,1;1,0",
        )
        assert report["results"]["all_pass"] is True
        assert any(c["identity"] == "closed_count_q3" for c in report["checks"])


def child_env(**extra):
    """Environment for a child that imports the same package as the tests,
    installed or not."""
    src = os.path.dirname(os.path.dirname(zonotutte.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "zonotutte", "volume", "--vectors", "3,0;0,2;1,1"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["value"] == "11"

    def test_stdin_that_is_not_utf8_is_malformed(self):
        # a strict stdin decoder would raise before json.loads saw the input
        proc = subprocess.run(
            [sys.executable, "-m", "zonotutte", "tutte"],
            input=b"\xff" + WORKED_DOC.encode(),
            capture_output=True,
            env=child_env(PYTHONIOENCODING="utf-8"),
        )
        assert proc.returncode == 2
        assert proc.stdout == b""
        lines = proc.stderr.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: invalid JSON")

    def test_runs_without_numpy(self):
        code = (
            "import sys\n"
            "import zonotutte.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy imported'\n"
            "sys.modules['numpy'] = None\n"
            "sys.exit(zonotutte.cli.main("
            "['verify', '--oracle', '--vectors', '3,0;0,2;1,1']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["all_pass"] is True
