"""Command-line surface: payload schemas, exit codes, hostile input."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import jsonschema
import pytest
from hypothesis import given, settings

import gsembed
from gsembed import (FiniteSection, RateFit, Target, Verdict, cli, embanalyzer,
                     embedding_norm_search, parse, schemas, seqcore, seqdsl,
                     seqspacelab)
from gsembed.seqdsl import MAX_EXPR_TOKENS, MAX_TABLE_ENTRIES
from gsembed.seqspacelab import MAX_ENTROPY_K, MAX_ENTROPY_N


def invoke(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def fresh_env():
    """The environment of a fresh interpreter that imports this gsembed."""
    src = Path(gsembed.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=str(src))


def invoke_fresh(*argv):
    """One CLI run in a fresh process under a wall-time ceiling, for input
    that without its cap would run for minutes or exhaust memory."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "gsembed.cli", *argv],
                          capture_output=True, text=True, env=fresh_env(),
                          timeout=20)
    assert time.perf_counter() - t0 < 5.0
    return proc.returncode, json.loads(proc.stdout)


class TestSeq:
    def test_parse_profile(self, capsys):
        code, doc = invoke(capsys, "seq", "parse", "2^(3/2*j)*(1+j)^-1")
        assert code == 0
        jsonschema.validate(doc, schemas.PROFILE_SCHEMA)
        assert doc["classified"] and doc["canonical"]
        assert doc["rate"] == "3/2"

    def test_parse_error_payload(self, capsys):
        code, doc = invoke(capsys, "seq", "parse", "3^(j)")
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)

    def test_long_product_is_error(self, capsys):
        code, doc = invoke(capsys, "seq", "parse",
                           "*".join(["1"] * MAX_EXPR_TOKENS))
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)
        assert f"expression with more than {MAX_EXPR_TOKENS} tokens" in \
            doc["error"]

    @pytest.mark.parametrize("expr", ["(" * 3000 + "2" + ")" * 3000,
                                      "table[1] then " * 3000 + "2"],
                             ids=["parentheses", "tables"])
    def test_deep_nesting_is_error(self, capsys, expr):
        code, doc = invoke(capsys, "seq", "parse", expr)
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)
        assert "nesting" in doc["error"]

    @pytest.mark.parametrize("expr", ["((3^(1000))^1000)^10",
                                      "((3^(1000))^1000)^1000",
                                      "(3^(1/2))^4000000"])
    def test_constant_power_cap(self, expr):
        # without the cap the integer power runs for seconds or never finishes
        code, doc = invoke_fresh("seq", "parse", expr)
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)
        assert "bits" in doc["error"]

    @pytest.mark.parametrize("expr", [
        "(3)^20000", "2^({0}*j)*2^({0}*j)".format("9" * 4300)],
        ids=["constant", "rate"])
    def test_render_past_the_digit_limit_is_error(self, expr):
        # Python's own "Exceeds the limit (4300 digits)" message came before
        code, doc = run_fuzzed(["seq", "parse", expr])
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)
        assert doc["error"] == ("cannot render a numeral of more than 4300 "
                                "digits, which parse could not read back")

    def test_eval_values(self, capsys):
        code, doc = invoke(capsys, "seq", "eval", "2^(j)", "--j", "0", "3", "10")
        assert code == 0
        jsonschema.validate(doc, schemas.EVAL_SCHEMA)
        by_j = {row["j"]: row for row in doc["values"]}
        assert by_j[3]["log2"] == "3"
        assert by_j[10]["value"] == 1024.0

    def test_eval_overflow_saturates(self, capsys):
        code, doc = invoke(capsys, "seq", "eval", "2^(200*j)", "--j", "10")
        assert code == 0
        row = doc["values"][0]
        assert row["value"] is None
        assert row["log2"] == "2000"

    def test_boyd_oscillating_exact(self, capsys):
        code, doc = invoke(capsys, "seq", "boyd", "pw2(s0=0,s1=1)")
        assert code == 0
        jsonschema.validate(doc, schemas.BOYD_SCHEMA)
        assert doc["exact"]
        assert doc["lower"] == "0" and doc["upper"] == "1"
        # brackets and depth describe a numeric scan, which did not run
        assert doc["lower_bracket"] is doc["upper_bracket"] is doc["depth"] is None
        # the oscillations cancel: the sequence is the constant 1
        code, doc = invoke(capsys, "seq", "boyd", "pw2(s0=0,s1=3)*(pw2(s0=0,s1=6))^-1/2")
        assert code == 0
        assert (doc["exact"], doc["lower"], doc["upper"]) == (True, "0", "0")

    @pytest.mark.parametrize("text, index", [
        ("table[1,1,1] then 2^(1/2*j)", "1/2"),
        # a window scan of 256 terms bracketed both indices below 0.77
        ("table[" + ",".join(["1"] * 250) + "] then 2^(-250)*2^(j)", "1"),
    ], ids=["short", "250-ones"])
    def test_boyd_table_is_exact(self, capsys, text, index):
        # a table prefix moves no index: both are read off the tail
        code, doc = invoke(capsys, "seq", "boyd", text)
        assert code == 0
        jsonschema.validate(doc, schemas.BOYD_SCHEMA)
        assert doc == {"exact": True, "lower": index, "upper": index,
                       "lower_bracket": None, "upper_bracket": None, "depth": None}

    def test_admissible(self, capsys):
        code, doc = invoke(capsys, "seq", "admissible", "2^(j)*(1+j)")
        assert code == 0
        jsonschema.validate(doc, schemas.ADMISSIBLE_SCHEMA)
        # the ratio of 2^j (1+j) falls from 4 at j = 0 towards 2
        assert (doc["log2_d0"], doc["log2_d1"]) == ("1", "2")
        assert doc["window"] == 0 and doc["strongly_increasing"]

    @pytest.mark.parametrize("argv, shown", [
        (["admissible", f"2^({'9' * 400}*j)"],
         {"log2_d0": "9" * 400, "log2_d1": "9" * 400, "window": 0}),
        (["boyd", f"2^({'9' * 400}*j)"], {"lower": "9" * 400, "upper": "9" * 400}),
        (["admissible", "2^(-2000*j)"],
         {"log2_d0": "-2000", "log2_d1": "-2000", "strongly_increasing": False}),
        (["boyd", "table[1,2] then 2^(2000*j)"],
         {"exact": True, "lower": "2000", "upper": "2000", "depth": None}),
        # the largest ratio, 2^(2N - 1), runs from the prefix's 2 into the tail
        (["admissible", f"table[1,2] then 2^({'9' * 400}*j)"],
         {"log2_d0": "1", "log2_d1": str(2 * int("9" * 400) - 1), "window": 4}),
    ], ids=["admissible-d0", "boyd-bracket", "admissible-d1-underflow", "boyd-table",
            "admissible-table"])
    def test_float_overflow_names_the_field(self, capsys, argv, shown):
        # exact bounds print as rationals, never as float powers, so no
        # field leaves the float range (or underflows to 0.0)
        code, doc = invoke(capsys, "seq", *argv)
        assert code == 0
        jsonschema.validate(doc, schemas.ADMISSIBLE_SCHEMA if argv[0] == "admissible"
                            else schemas.BOYD_SCHEMA)
        assert {k: doc[k] for k in shown} == shown
        assert not {"d0", "d1"} & set(doc)

    def test_standardize_roundtrip(self, capsys):
        code, doc = invoke(capsys, "seq", "standardize", "2^(1/2*j)",
                           "--growth", "2^(j)")
        assert code == 0
        jsonschema.validate(doc, schemas.STANDARDIZE_SCHEMA)
        from gsembed import equivalent, parse

        out = parse(doc["result"])
        assert equivalent(out, parse("2^(1/2*j)")).status == "yes"

    def test_standardize_rejects_log_growth(self, capsys):
        code, doc = invoke(capsys, "seq", "standardize", "2^(j)",
                           "--growth", "(1+j)^1")
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)

    @pytest.mark.parametrize("kappa0, code", [(1024, 0), (1200, 0), (2499, 1)])
    def test_standardize_large_kappa0(self, capsys, kappa0, code):
        # d0^kappa0 = 2^1024 is past the float range, 1200 pins the seam
        # with 2^-1201, below it, and 2499 makes a prefix longer than
        # MAX_TABLE_ENTRIES
        got, doc = invoke(capsys, "seq", "standardize", "2^(j)",
                          "--growth", "2^(j)", "--kappa0", str(kappa0))
        assert got == code
        if code:
            assert doc["error"].startswith("kappa0 too large")
        else:
            assert doc["kappa0"] == kappa0
            assert seqdsl.render(parse(doc["result"])) == doc["result"]

    def test_standardize_refuses_long_values(self, capsys):
        code, doc = invoke(capsys, "seq", "standardize", "2^(500*j)",
                           "--growth", "2^(1/100*j)")
        assert code == 1
        assert doc["error"] == ("a value 2^50000 of the result has more than "
                                "4300 digits")

    @pytest.mark.parametrize("argv, stdout", [
        (["2^(j)", "--growth", "4^(j)"],
         '{\n  "result": "table[1,1,1,1,2,2,4,4,8,8,16,16,32,32,64,64] then '
         '1/2 * 2^(1/2*j)",\n  "kappa0": 1\n}\n'),
        (["2^(j)", "--growth", "4^(j)", "--kappa0", "2"],
         '{\n  "result": "table[1,1,1,1,1,1,2,2,4,4,8,8,16,16,32,32] then '
         '1/4 * 2^(1/2*j)",\n  "kappa0": 2\n}\n'),
        (["3", "--growth", "2^(j)"], '{\n  "result": "3",\n  "kappa0": 1\n}\n'),
    ], ids=["minimal-kappa0", "given-kappa0", "constant"])
    def test_standardize_document(self, capsys, argv, stdout):
        assert cli.run(["seq", "standardize", *argv]) == 0
        assert capsys.readouterr().out == stdout


PROBLEM_FLAGS = ["--sigma", "1", "--tau", "1", "--p1", "1", "--q1", "1",
                 "--p2", "1", "--q2", "1"]


class TestFlagErrors:
    @pytest.mark.parametrize("argv, says", [
        (["lab", "entropy", "--section", "{}", "--dim-cap", "30"],
         "unrecognized arguments: --dim-cap 30"),
        (["lab", "entropy", "--section", "{}", "--k-cap", "50"],
         "unrecognized arguments: --k-cap 50"),
        (["seq", "boyd", "2^(j)", "--depth", "64"],
         "unrecognized arguments: --depth 64"),
        (["seq", "boyd", "2^(j)", "--numeric"], "unrecognized arguments: --numeric"),
        (["seq", "admissible", "2^(j)", "--window", "16"],
         "unrecognized arguments: --window 16"),
        (["seq", "standardize", "2^(j)", "--growth", "4^(j)", "--prefix-len", "20"],
         "unrecognized arguments: --prefix-len 20"),
        (["lab", "norm", "--section", "{}", "--restarts", "3"],
         "unrecognized arguments: --restarts 3"),
        (["seq", "parse", "2^(j)", "--bogus"], "unrecognized arguments: --bogus"),
        (["analyze", *PROBLEM_FLAGS, "--dim", "1/2"],
         "argument --dim: invalid int value: '1/2'"),
        (["analyze", *PROBLEM_FLAGS, "--dim", "1", "--kind", "x"],
         "argument --kind: invalid choice: 'x'"),
        ([], "the following arguments are required: command"),
        # argparse reads "--growth=--" as an empty list, not a string
        (["seq", "standardize", "2^(j)", "--growth=--"],
         "argument --growth: expected a value"),
        (["lab", "ratefit", "--from-problem=--"],
         "argument --from-problem: expected a value"),
    ], ids=["dim-cap", "k-cap", "depth", "numeric", "window", "prefix-len",
            "restarts", "unknown", "dim-fraction", "kind", "no-subcommand",
            "dash-growth", "dash-from-problem"])
    def test_bad_flag_is_error(self, capsys, argv, says):
        code = cli.run(argv)
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        doc = json.loads(out)
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)
        assert doc["error"].startswith(says)


class TestAnalyze:
    def test_compact_holds(self, capsys):
        code, doc = invoke(capsys, "analyze", "--sigma", "2^(2*j)", "--tau", "1",
                           "--p1", "1", "--q1", "1", "--p2", "inf", "--q2", "inf",
                           "--dim", "1", "--kind", "compact")
        assert code == 0
        jsonschema.validate(doc["compactness"], schemas.VERDICT_SCHEMA)
        assert doc["compactness"]["status"] == "holds"

    def test_compact_boundary_fails(self, capsys):
        code, doc = invoke(capsys, "analyze", "--sigma", "2^(j)", "--tau", "1",
                           "--p1", "1", "--q1", "1", "--p2", "inf", "--q2", "inf",
                           "--dim", "1", "--kind", "compact")
        assert code == 0
        assert doc["compactness"]["status"] == "fails"

    def test_inconclusive_exit_code(self, capsys):
        code, doc = invoke(capsys, "analyze", "--sigma", "(1+j)^1/2", "--tau", "1",
                           "--p1", "2", "--q1", "inf", "--p2", "2", "--q2", "1",
                           "--dim", "1", "--scale", "F", "--kind", "compact")
        assert code == 2
        assert doc["compactness"]["status"] == "inconclusive"

    def test_nuclear_quasi_banach_is_error(self, capsys):
        code, doc = invoke(capsys, "analyze", "--sigma", "2^(2*j)", "--tau", "1",
                           "--p1", "1/2", "--q1", "1", "--p2", "2", "--q2", "2",
                           "--dim", "1", "--kind", "nuclear")
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)

    def test_entropy_rate_payload(self, capsys):
        code, doc = invoke(capsys, "analyze", "--sigma", "2^(2*j)*(1+j)",
                           "--tau", "(1+j)^3", "--p1", "2", "--q1", "2",
                           "--p2", "2", "--q2", "2", "--dim", "2",
                           "--kind", "entropy")
        assert code == 0
        jsonschema.validate(doc["entropy"], schemas.RATE_SCHEMA)
        assert doc["entropy"]["kind"] == "non-limiting"
        assert doc["entropy"]["k_exponent"] == "1"

    def test_classify_combines_verdicts(self, capsys):
        code, doc = invoke(capsys, "analyze", "--sigma", "2^(2*j)", "--tau", "1",
                           "--p1", "1", "--q1", "1", "--p2", "inf", "--q2", "inf",
                           "--dim", "1", "--kind", "classify")
        assert code == 0
        assert doc["compactness"]["status"] == "holds"
        assert doc["nuclearity"]["status"] == "holds"
        assert doc["entropy"]["kind"] in ("non-limiting", "limiting-log",
                                          "limiting-coupled-log",
                                          "limiting-sv-integral")

    @pytest.mark.parametrize("flags, code", [
        (["--sigma", "2^(2*j)", "--tau", "1", "--p1", "1", "--q1", "1",
          "--p2", "inf", "--q2", "inf"], 0),
        # compact, but the two sides of the sandwich give different laws
        (["--sigma", "2^(j)*(1+j)^2", "--tau", "2^(j)", "--p1", "2",
          "--q1", "4", "--p2", "2", "--q2", "1"], 2),
        # the fine-index boundary: compactness is inconclusive
        (["--sigma", "(1+j)^1/2", "--tau", "1", "--p1", "2", "--q1", "inf",
          "--p2", "2", "--q2", "1"], 2),
        # nuclearity does not apply, and its inconclusive stub does not count
        (["--sigma", "2^(4*j)", "--tau", "1", "--p1", "1/2", "--q1", "1/2",
          "--p2", "2", "--q2", "2"], 0),
    ], ids=["decided", "laws-differ", "boundary", "quasi-banach"])
    def test_classify_on_scale_f(self, capsys, flags, code):
        got, doc = invoke(capsys, "analyze", *flags, "--dim", "1",
                          "--scale", "F", "--kind", "classify")
        jsonschema.validate(doc["entropy"], schemas.RATE_SCHEMA)
        outcomes = [doc["compactness"]["status"], doc["entropy"]["kind"]]
        if doc["nuclearity"]["tag"] != "not-applicable":
            outcomes.append(doc["nuclearity"]["status"])
        assert got == code == (2 if "inconclusive" in outcomes else 0)

    def test_classify_quasi_banach_skips_nuclearity(self, capsys):
        code, doc = invoke(capsys, "analyze", "--sigma", "2^(4*j)", "--tau", "1",
                           "--p1", "1/2", "--q1", "1/2", "--p2", "2", "--q2", "2",
                           "--dim", "1", "--kind", "classify")
        assert code == 0
        assert doc["nuclearity"]["status"] == "inconclusive"
        assert doc["nuclearity"]["tag"] == "not-applicable"

    @pytest.mark.parametrize("argv", [
        ["analyze", "--sigma", "1", "--tau", "1", "--p1", "1e99999999",
         "--q1", "1", "--p2", "1", "--q2", "1", "--dim", "1"],
        ["lab", "nuclear", "--section",
         '{"beta": [1], "M": [1], "p1": "1e-99999999", "q1": 1, "p2": 1, "q2": 1}'],
    ], ids=["analyze-flag", "section"])
    def test_huge_decimal_exponent_is_error(self, argv):
        # Fraction would build 10^99999999 in full
        code, doc = invoke_fresh(*argv)
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)
        assert doc["error"].startswith("p1: decimal exponent")

    def test_entropy_regime_of_a_huge_rate_is_exact(self, capsys):
        # a rate of 400 nines is beyond the float range; the regime is
        # read off the exact rate, with no float bracket
        nines = "9" * 400
        code, doc = invoke(capsys, "analyze", "--kind", "entropy",
                           "--sigma", f"2^({nines}*j)", "--tau", "1",
                           "--p1", "2", "--q1", "2", "--p2", "2", "--q2", "2",
                           "--dim", "1")
        assert code == 0
        jsonschema.validate(doc["entropy"], schemas.RATE_SCHEMA)
        assert doc["entropy"]["kind"] == "non-limiting"
        assert doc["entropy"]["k_exponent"] == nines

    @pytest.mark.parametrize("argv, says", [
        (["seq", "parse", "2^(j) * 0." + "0" * 10**5 + "1"],
         "numeral with more than 4300 digits in a row (at offset 8)"),
        (["analyze", "--sigma", "1", "--tau", "1", "--p1", "0." + "0" * 10**5 + "1",
          "--q1", "1", "--p2", "1", "--q2", "1", "--dim", "1"],
         "p1: numeral with more than 4300 digits in a row"),
    ], ids=["expression", "analyze-flag"])
    def test_long_numeral_is_error(self, capsys, argv, says):
        code, doc = invoke(capsys, *argv)
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)
        assert doc["error"] == says


SECTION = json.dumps({"beta": [1.0, 2.0], "M": [1, 2],
                      "p1": 2, "q1": "inf", "p2": 2, "q2": 1})


class TestLab:
    def test_norm_section_inline(self, capsys):
        code, doc = invoke(capsys, "lab", "norm", "--section", SECTION)
        assert code == 0
        jsonschema.validate(doc, schemas.LAB_NORM_SCHEMA)
        assert doc["search"] <= doc["closed"] + 1e-9

    @pytest.mark.parametrize("section, winner", [
        (SECTION, "hoelder"),
        ('{"beta": [1.0, 0.25, 0.5], "M": [1, 1, 3], "p1": 2, "q1": 2, '
         '"p2": 2, "q2": 2}', "block 1"),
        ('{"beta": [1.0, 0.25, 0.5], "M": [1, 1, 3], "p1": 4, "q1": 2, '
         '"p2": 1, "q2": 2}', "block 2"),
    ], ids=["hoelder", "spike", "flat"])
    def test_norm_names_the_winning_candidate(self, capsys, section, winner):
        code, doc = invoke(capsys, "lab", "norm", "--section", section)
        assert code == 0
        assert doc["attained_by"] == winner
        sec = FiniteSection.from_dict(json.loads(section))
        assert doc["search"] == embedding_norm_search(sec)

    def test_norm_from_problem(self, capsys, tmp_path):
        f = tmp_path / "problem.json"
        f.write_text(json.dumps({"sigma": "2^(2*j)", "tau": "1", "p1": 1,
                                 "q1": 1, "p2": "inf", "q2": "inf", "dim": 1}))
        code, doc = invoke(capsys, "lab", "norm", "--from-problem", str(f),
                           "--levels", "2")
        assert code == 0
        assert doc["section"]["M"] == [1, 2, 4]

    def test_nuclear(self, capsys):
        code, doc = invoke(capsys, "lab", "nuclear", "--section", SECTION)
        assert code == 0
        jsonschema.validate(doc, schemas.LAB_NUCLEAR_SCHEMA)
        assert doc["oracle"]["coordinate_upper"] >= doc["exact"] - 1e-9

    def test_nuclear_oracle_beyond_float_range_is_error(self, capsys):
        # sum M_j / beta_j overflows while the Tong norm stays finite
        section = json.dumps({"beta": [1e-308], "M": [1000], "p1": 1,
                              "q1": 1, "p2": "inf", "q2": "inf"})
        code, doc = invoke(capsys, "lab", "nuclear", "--section", section)
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)
        assert doc["error"] == "coordinate_upper: the result leaves the float range"

    def test_entropy(self, capsys):
        code, doc = invoke(capsys, "lab", "entropy", "--section", SECTION,
                           "--k", "1", "2", "4")
        assert code == 0
        jsonschema.validate(doc, schemas.LAB_ENTROPY_SCHEMA)
        for row in doc["bounds"]:
            assert row["lower"] <= row["upper"] * (1 + 1e-9)

    def test_entropy_cap_error(self, capsys):
        for M, k, says in (([MAX_ENTROPY_N + 1], 1, "section size n"),
                           ([2], MAX_ENTROPY_K + 1, "index k")):
            section = json.dumps({"beta": [1.0], "M": M,
                                  "p1": 2, "q1": 2, "p2": 2, "q2": 2})
            code, doc = invoke(capsys, "lab", "entropy", "--section", section,
                               "--k", str(k))
            assert code == 1
            jsonschema.validate(doc, schemas.ERROR_SCHEMA)
            assert says in doc["error"] and "limit" in doc["error"]

    def test_entropy_at_the_limits(self):
        # the costliest section the limits (n 64, k 160) admit: one block
        # per coordinate
        section = json.dumps({"beta": [1.0] * 64, "M": [1] * 64,
                              "p1": 2, "q1": 2, "p2": 2, "q2": 2})
        code, doc = invoke_fresh("lab", "entropy", "--section", section,
                                 "--k", "160")
        assert code == 0
        jsonschema.validate(doc, schemas.LAB_ENTROPY_SCHEMA)

    @pytest.mark.parametrize("sigma, says", [("2^(2*j)", "overflows"),
                                             ("2^(-2*j)", "underflows")])
    def test_weight_out_of_range_is_error(self, capsys, tmp_path, sigma, says):
        f = tmp_path / "problem.json"
        f.write_text(json.dumps({"sigma": sigma, "tau": "1", "p1": 2,
                                 "q1": 2, "p2": 2, "q2": 2, "dim": 1}))
        code, doc = invoke(capsys, "lab", "nuclear", "--from-problem", str(f),
                           "--levels", "600")
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)
        assert says in doc["error"] and "level" in doc["error"]

    def test_norm_gains_beyond_float_powers(self, capsys):
        # gain^r leaves the float range although the norm is about 1e50
        section = json.dumps({"beta": [1e-50, 1.0], "M": [1, 2], "p1": 2,
                              "q1": "3/2", "p2": 2, "q2": "4/3"})
        code, doc = invoke(capsys, "lab", "norm", "--section", section)
        assert code == 0
        assert math.isfinite(doc["closed"])

    @pytest.mark.parametrize("size", ["1e400", "9" * 400],
                             ids=["float", "integer"])
    def test_block_size_beyond_float_range_is_error(self, capsys, size):
        section = ('{"beta": [1], "M": [%s], "p1": 1, "q1": 1, "p2": 1, '
                   '"q2": 2}' % size)
        code, doc = invoke(capsys, "lab", "nuclear", "--section", section)
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)

    @pytest.mark.parametrize("change, says", [
        ({"beta": [float("nan")]}, "block weights"),
        ({"beta": [float("inf")]}, "block weights"),
        ({"p1": -2}, "p1 must be positive"),
        ({"p1": 0}, "p1 must be positive"),
        ({"p1": None}, "p1"),
        ({"beta": [5e-324]}, "closed: the result leaves the float range"),
        ({"M": [2.7]}, "M: block sizes"),
        ({"M": [True]}, "M: block sizes"),
        ({"beta": "ab"}, "beta must be a list"),
        ({"p1": float("nan")}, "p1: cannot convert NaN"),
        ({"p1": "\u0663"}, "p1: non-ASCII character"),
    ], ids=["beta-nan", "beta-inf", "p1-negative", "p1-zero", "p1-null",
            "norm-beyond-float-range", "M-fractional", "M-bool", "beta-string",
            "p1-nan", "p1-arabic-indic-digit"])
    def test_bad_section_is_error(self, capsys, change, says):
        # one block, so that no zero block hides a negative p1 from the
        # norm search, which used to report search >> closed
        doc = dict({"beta": [1.0], "M": [2], "p1": 2, "q1": 2, "p2": 2,
                    "q2": 2}, **change)
        code, out = invoke(capsys, "lab", "norm", "--section", json.dumps(doc))
        assert code == 1
        jsonschema.validate(out, schemas.ERROR_SCHEMA)
        assert says in out["error"]

    @pytest.mark.parametrize("change, says", [
        ({"p1": None}, "p1"),
        ({"dim": 2.7}, "dim must be a positive integer"),
        ({"dim": True}, "dim must be a positive integer"),
        ({"sigma": 5}, "sigma must be a weight expression"),
        ({"q2": True}, "q2: cannot interpret True"),
        ([], "must be a JSON object"),
        ({"sigma": "table[1" + ",1" * MAX_TABLE_ENTRIES + "] then 1"},
         f"table with more than {MAX_TABLE_ENTRIES} entries"),
        ({"tau": "*".join(["1"] * MAX_EXPR_TOKENS)},
         f"expression with more than {MAX_EXPR_TOKENS} tokens"),
    ], ids=["p1-null", "dim-fractional", "dim-bool", "sigma-number", "q2-bool",
            "top-level-list", "sigma-table-past-the-cap", "tau-past-the-token-cap"])
    def test_bad_problem_is_error(self, capsys, tmp_path, change, says):
        doc = {"sigma": "2^(2*j)", "tau": "1", "p1": 2, "q1": 2, "p2": 2,
               "q2": 2, "dim": 1}
        f = tmp_path / "problem.json"
        f.write_text(json.dumps(dict(doc, **change) if isinstance(change, dict)
                                else change))
        code, out = invoke(capsys, "lab", "nuclear", "--from-problem", str(f),
                           "--levels", "1")
        assert code == 1
        jsonschema.validate(out, schemas.ERROR_SCHEMA)
        assert says in out["error"]

    def test_problem_missing_key_is_error(self, capsys, tmp_path):
        f = tmp_path / "problem.json"
        f.write_text(json.dumps({"sigma": "2^(j)", "tau": "1", "p1": 1,
                                 "q1": 1, "p2": "inf", "q2": "inf"}))
        code, doc = invoke(capsys, "lab", "ratefit", "--from-problem", str(f))
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)
        assert "dim" in doc["error"]

    @pytest.mark.parametrize("argv, says", [
        (["--from-problem", "{problem}", "--levels", "40"], "section size n"),
        (["--section", '{"beta": [1], "M": [1000000000000], "p1": 2, "q1": 2, '
                       '"p2": 1, "q2": 2}'], "section size n"),
    ], ids=["levels", "block-size"])
    def test_norm_search_caps(self, tmp_path, argv, says):
        # without the cap the search allocates 2^40 or 10^12 floats
        f = tmp_path / "problem.json"
        f.write_text(json.dumps({"sigma": "2^(j)", "tau": "1", "p1": 2,
                                 "q1": 2, "p2": 1, "q2": 2, "dim": 1}))
        code, doc = invoke_fresh("lab", "norm",
                                 *(a.replace("{problem}", str(f)) for a in argv))
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)
        assert says in doc["error"] and "limit" in doc["error"]

    def test_missing_section_is_error(self, capsys):
        code, doc = invoke(capsys, "lab", "norm")
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)

    def test_ratefit(self, capsys, tmp_path):
        f = tmp_path / "problem.json"
        f.write_text(json.dumps({"sigma": "2^(j)", "tau": "1", "p1": "inf",
                                 "q1": "inf", "p2": "inf", "q2": "inf",
                                 "dim": 1}))
        code, doc = invoke(capsys, "lab", "ratefit", "--from-problem", str(f),
                           "--levels", "1", "2", "3")
        assert code == 0
        jsonschema.validate(doc, schemas.RATEFIT_SCHEMA)
        assert set(doc) == {"ks", "bounds", "slope", "predicted_slope", "ratio",
                            "non_decaying"}
        assert doc["slope"] < 0

    def test_ratefit_repeated_level_is_error(self, capsys, tmp_path):
        f = tmp_path / "problem.json"
        f.write_text(json.dumps({"sigma": "2^(j)", "tau": "1", "p1": "inf",
                                 "q1": "inf", "p2": "inf", "q2": "inf",
                                 "dim": 1}))
        code, doc = invoke(capsys, "lab", "ratefit", "--from-problem", str(f),
                           "--levels", "2", "2")
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)
        assert "need at least two levels" in doc["error"]


VERDICT_KEYS = {"status", "criterion", "target", "tag", "evidence"}
RATE_KEYS = {"kind", "k_exponent", "log_exponent", "residual", "ratio", "tag",
             "notes"}
SECTION_KEYS = {"beta", "M", "p1", "q1", "p2", "q2", "n"}
ANALYZE = ["analyze", "--sigma", "2^(2*j)", "--tau", "1", "--p1", "1", "--q1", "1",
           "--p2", "inf", "--q2", "inf", "--dim", "1", "--kind"]
# argv, and the key set of the document and of its sub-documents by path
DOCUMENT_KEYS = {
    "seq-parse": (["seq", "parse", "2^(j)"], {(): {
        "expr", "classified", "canonical", "rate", "log_exponent", "sv_factor",
        "boyd_lower", "boyd_upper"}}),
    "seq-eval": (["seq", "eval", "2^(j)", "--j", "1"], {
        (): {"expr", "values"}, ("values", 0): {"j", "log2", "value"}}),
    "seq-boyd": (["seq", "boyd", "2^(j)"], {(): {
        "exact", "lower", "upper", "lower_bracket", "upper_bracket", "depth"}}),
    "seq-admissible": (["seq", "admissible", "2^(j)"], {(): {
        "log2_d0", "log2_d1", "window", "strongly_increasing"}}),
    "seq-standardize": (["seq", "standardize", "2^(1/2*j)", "--growth", "2^(j)"],
                        {(): {"result", "kappa0"}}),
    "analyze-compact": (ANALYZE + ["compact"], {
        (): {"compactness"}, ("compactness",): VERDICT_KEYS}),
    "analyze-nuclear": (ANALYZE + ["nuclear"], {
        (): {"nuclearity"}, ("nuclearity",): VERDICT_KEYS}),
    "analyze-entropy": (ANALYZE + ["entropy"], {
        (): {"entropy"}, ("entropy",): RATE_KEYS}),
    "analyze-classify": (ANALYZE + ["classify"], {
        (): {"compactness", "nuclearity", "entropy"},
        ("compactness",): VERDICT_KEYS, ("nuclearity",): VERDICT_KEYS,
        ("entropy",): RATE_KEYS}),
    "analyze-classify-quasi-banach": (
        ANALYZE + ["classify", "--p1", "1/2"], {  # the last --p1 counts
            (): {"compactness", "nuclearity", "entropy"},
            ("nuclearity",): VERDICT_KEYS}),
    "lab-norm": (["lab", "norm", "--section", SECTION], {
        (): {"closed", "search", "gap", "attained_by", "section"},
        ("section",): SECTION_KEYS}),
    "lab-nuclear": (["lab", "nuclear", "--section", SECTION], {
        (): {"exact", "oracle", "section"}, ("oracle",): {"coordinate_upper"},
        ("section",): SECTION_KEYS}),
    "lab-entropy": (["lab", "entropy", "--section", SECTION, "--k", "1"], {
        (): {"bounds", "norm", "section"},
        ("bounds", 0): {"k", "upper", "lower", "upper_method", "lower_method"},
        ("section",): SECTION_KEYS}),
    "reproduce": (["reproduce", "limiting-log-smoothness"], {
        (): {"cases", "all_pass"},
        ("cases", 0): {"id", "title", "source", "citation", "op", "expected",
                       "got", "passed"}}),
    "error": (["seq", "parse", "3^(j)"], {(): {"error"}}),
}


class TestDocuments:
    @pytest.mark.parametrize("argv, keys", DOCUMENT_KEYS.values(), ids=DOCUMENT_KEYS)
    def test_key_sets(self, capsys, argv, keys):
        # the schemas require only some of these keys; lab ratefit is
        # pinned in TestLab.test_ratefit
        _, doc = invoke(capsys, *argv)
        for path, want in keys.items():
            sub = doc
            for step in path:
                sub = sub[step]
            assert set(sub) == want, path

    def test_jsonable_names_a_nonfinite_field(self):
        fit = RateFit((2, 4), (1.0, math.inf), -1.0, None, None, False)
        with pytest.raises(ValueError) as err:
            cli._jsonable(fit)
        assert str(err.value) == "bounds: the result leaves the float range"

    def test_jsonable_prints_a_verdict(self):
        v = Verdict("holds", parse("(1+j)^-1"), Target("ell", Fraction(2)),
                    "sequence-membership", {"value": Fraction(-1, 2)})
        assert cli._jsonable(v) == {
            "status": "holds", "criterion": "(1+j)^-1", "target": "ell_2",
            "tag": "sequence-membership", "evidence": {"value": "-1/2"}}


GOOD_EXPONENTS = [1, "4/3", 2, 3, "inf", "1/2"]
BAD_EXPONENTS = [0, -1, "nan", "inf/2", float("inf"), float("-inf"),
                 float("nan"), None, [2]]


@st.composite
def section_docs(draw):
    """Inline --section text: a valid section with up to two fields
    replaced by hostile values."""
    n = draw(st.integers(1, 3))
    doc = {"beta": draw(st.lists(st.floats(1 / 64, 64), min_size=n, max_size=n)),
           "M": draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))}
    for key in ("p1", "q1", "p2", "q2"):
        doc[key] = draw(st.sampled_from(GOOD_EXPONENTS))
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(["beta", "M", "p1", "q1", "p2", "q2"]))
        j = draw(st.integers(0, n - 1))
        if key == "beta":
            doc["beta"][j] = draw(st.floats())
        elif key == "M":
            doc["M"][j] = draw(st.sampled_from([0, -1, "x", None]))
        else:
            doc[key] = draw(st.sampled_from(BAD_EXPONENTS))
    return json.dumps(doc)


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestSectionFuzz:
    @pytest.mark.parametrize("argv, schema", [
        (["lab", "nuclear"], schemas.LAB_NUCLEAR_SCHEMA),
        (["lab", "entropy", "--k", "1", "2"], schemas.LAB_ENTROPY_SCHEMA),
        (["lab", "norm"], schemas.LAB_NORM_SCHEMA),
    ], ids=["nuclear", "entropy", "norm"])
    @given(text=section_docs())
    def test_one_json_document(self, argv, schema, text):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv + ["--section", text])
        assert code in (0, 1, 2)
        doc = json.loads(buf.getvalue(), parse_constant=_reject_constant)
        jsonschema.validate(doc, schemas.ERROR_SCHEMA if code == 1 else schema)
        if code == 0 and "search" in doc:
            assert doc["search"] <= doc["closed"] * (1 + 1e-9)
        for row in doc.get("bounds", []) if code == 0 else []:
            assert row["lower"] <= row["upper"] * (1 + 1e-9)


GOOD_WEIGHTS = ["1", "2^(2*j)", "2^(j)*(1+j)^-1", "(1+log(1+j))^2",
                "pw2(s0=0,s1=1)", "table[1,5] then 2^(j)"]
BAD_PROBLEM_VALUES = {
    "weight": [5, 2.5, True, None, [1], {}, "", "2^(", "3^(j)", "(1+j)^x",
               "table[] then 1"],
    "dim": [0, -1, 2.7, 2.0, "2", True, None, float("nan"), float("inf"),
            float("-inf"), [1]],
    "exponent": BAD_EXPONENTS + [True, "x"],
    "scale": ["F", "X", None, 1],
}
NON_OBJECTS = [[], [{"dim": 1}], "problem", 3, None]


@st.composite
def problem_docs(draw):
    """--from-problem file text: a valid problem (dim <= 2) with up to two
    fields replaced by hostile values, or a top-level non-object."""
    if draw(st.integers(0, 9)) == 0:
        return json.dumps(draw(st.sampled_from(NON_OBJECTS)))
    doc = {"sigma": draw(st.sampled_from(GOOD_WEIGHTS)),
           "tau": draw(st.sampled_from(GOOD_WEIGHTS)),
           "dim": draw(st.integers(1, 2))}
    for key in ("p1", "q1", "p2", "q2"):
        doc[key] = draw(st.sampled_from(GOOD_EXPONENTS))
    kinds = {"sigma": "weight", "tau": "weight", "dim": "dim", "p1": "exponent",
             "q1": "exponent", "p2": "exponent", "q2": "exponent",
             "scale": "scale"}
    for _ in range(draw(st.integers(0, 2))):
        key = draw(st.sampled_from(sorted(kinds)))
        doc[key] = draw(st.sampled_from(BAD_PROBLEM_VALUES[kinds[key]]))
    return json.dumps(doc)


class TestProblemFuzz:
    @staticmethod
    def run(tmp_path_factory, argv, text):
        """Exit code and strict JSON document of argv on a problem file
        holding text."""
        f = tmp_path_factory.getbasetemp() / "fuzz_problem.json"
        f.write_text(text)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.run(argv + ["--from-problem", str(f)])
        assert code in (0, 1, 2)
        return code, json.loads(buf.getvalue(), parse_constant=_reject_constant)

    @given(text=problem_docs())
    def test_one_json_document(self, tmp_path_factory, text):
        code, doc = self.run(tmp_path_factory, ["lab", "nuclear", "--levels", "1"],
                             text)
        jsonschema.validate(doc, schemas.ERROR_SCHEMA if code == 1
                            else schemas.LAB_NUCLEAR_SCHEMA)

    @given(text=problem_docs())
    def test_ratefit_one_json_document(self, tmp_path_factory, text):
        # lab ratefit runs entropy_upper at k = 2n on each section
        code, doc = self.run(tmp_path_factory,
                             ["lab", "ratefit", "--levels", "1", "2"], text)
        jsonschema.validate(doc, schemas.ERROR_SCHEMA if code == 1
                            else schemas.RATEFIT_SCHEMA)
        if code == 0:
            assert all(0.0 < b < math.inf for b in doc["bounds"])


# whole atoms of the weight language, and the tokens they are made of
DSL_ATOMS = ["2^(j)", "2^(-1/2*j)", "4^(j*3/2)", "(1+j)", "(1+j)^-1",
             "(1+log(1+j))^2", "exp(1*log(1+j)^1/2)", "pw2(s0=0,s1=1)",
             "pw2(s0=1/2,s1=2)^-1", "(3)^1/2", "(12)", "5/4", "0.5",
             "(table[1,2] then 2^(j))", "table[3] then (1+j)", "(2^(j)*(3)^1/2)^2"]
# with hostile ones: names the language lacks, a non-ASCII digit, a
# numeral past MAX_NUMERAL_DIGITS, nesting past MAX_DEPTH
DSL_TOKENS = DSL_ATOMS + [
    "0", "1", "2", "3", "12", "1/2", "3/4", "0.5", "-", "+", "*", "/", "^",
    "(", ")", "[", "]", ",", "=", " ", "j", "log", "exp", "pw2", "table",
    "then", "s0", "s1", "x", "inf", "nan", "1e5", "\u0663", "9" * 5000, "(" * 40]
dsl_texts = st.one_of(
    st.lists(st.sampled_from(DSL_TOKENS), max_size=12).map("".join),
    st.lists(st.tuples(st.sampled_from("**/"), st.sampled_from(DSL_ATOMS)),
             min_size=1, max_size=5).map(
        lambda ts: "".join(op + atom for op, atom in ts)[1:]))


# indices for seq eval: negative, huge, and text that is no int
index_texts = st.lists(
    st.one_of(st.integers(-2, 80), st.sampled_from([10**6, 10**30, 2**1000]))
    .map(str) | st.sampled_from(["x", "1.5", "1e3", "\u0663", ""]),
    min_size=1, max_size=4)


def run_fuzzed(argv):
    """Exit code and the one strict JSON document of an in-process run,
    which writes nothing to stderr and ends within the wall-time ceiling
    of invoke_fresh."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert time.perf_counter() - t0 < 5.0
    assert code in (0, 1, 2)
    assert err.getvalue() == ""
    doc = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert isinstance(doc, dict)
    return code, doc


class TestDslFuzz:
    """Weight strings built from the DSL's tokens, through the parser
    behind the CLI."""

    @given(text=dsl_texts)
    def test_seq_parse(self, text):
        code, doc = run_fuzzed(["seq", "parse", "--", text])
        assert code in (0, 1)
        jsonschema.validate(doc, schemas.PROFILE_SCHEMA if code == 0
                            else schemas.ERROR_SCHEMA)
        if code == 0:
            assert parse(doc["expr"]) == parse(text)

    @given(sigma=dsl_texts, tau=dsl_texts)
    def test_analyze(self, sigma, tau):
        code, doc = run_fuzzed(["analyze", f"--sigma={sigma}", f"--tau={tau}",
                                "--p1", "2", "--q1", "1", "--p2", "4",
                                "--q2", "inf", "--dim", "2", "--kind", "classify"])
        if code == 1:
            jsonschema.validate(doc, schemas.ERROR_SCHEMA)
            return
        assert set(doc) == {"compactness", "nuclearity", "entropy"}
        jsonschema.validate(doc["compactness"], schemas.VERDICT_SCHEMA)
        jsonschema.validate(doc["nuclearity"], schemas.VERDICT_SCHEMA)
        jsonschema.validate(doc["entropy"], schemas.RATE_SCHEMA)

    # the seq subcommands below run on a smaller example budget, which
    # keeps the suite's time
    @settings(max_examples=25)
    @given(text=dsl_texts, js=index_texts)
    def test_seq_eval(self, text, js):
        code, doc = run_fuzzed(["seq", "eval", "--j", *js, "--", text])
        assert code in (0, 1)
        jsonschema.validate(doc, schemas.EVAL_SCHEMA if code == 0
                            else schemas.ERROR_SCHEMA)

    @pytest.mark.parametrize("command, schema", [
        ("boyd", schemas.BOYD_SCHEMA), ("admissible", schemas.ADMISSIBLE_SCHEMA)])
    @settings(max_examples=25)
    @given(text=dsl_texts)
    def test_seq_structure(self, command, schema, text):
        code, doc = run_fuzzed(["seq", command, "--", text])
        assert code in (0, 1)
        jsonschema.validate(doc, schema if code == 0 else schemas.ERROR_SCHEMA)
        if command == "boyd":
            # a text that parses has exact indices, those of its profile,
            # tables or not
            _, profile = run_fuzzed(["seq", "parse", "--", text])
            if "error" not in profile:
                assert code == 0 and doc["exact"]
                assert (doc["lower"], doc["upper"]) == \
                    (profile["boyd_lower"], profile["boyd_upper"])

    @settings(max_examples=25)
    @given(text=dsl_texts, growth=dsl_texts,
           kappa0=st.none() | st.integers(-2, 1100) | st.sampled_from([10**6, -10**6]))
    def test_seq_standardize(self, text, growth, kappa0):
        flags = [] if kappa0 is None else [f"--kappa0={kappa0}"]
        code, doc = run_fuzzed(["seq", "standardize", f"--growth={growth}",
                                *flags, "--", text])
        assert code in (0, 1)
        jsonschema.validate(doc, schemas.STANDARDIZE_SCHEMA if code == 0
                            else schemas.ERROR_SCHEMA)


class TestReproduce:
    def test_single_case(self, capsys):
        code, doc = invoke(capsys, "reproduce", "limiting-log-smoothness")
        assert code == 0
        jsonschema.validate(doc, schemas.REPRODUCE_SCHEMA)
        assert len(doc["cases"]) == 1
        assert doc["cases"][0]["passed"]

    def test_all_cases(self, capsys):
        code, doc = invoke(capsys, "reproduce", "all")
        assert code == 0
        jsonschema.validate(doc, schemas.REPRODUCE_SCHEMA)
        assert doc["all_pass"]

    def test_unknown_id(self, capsys):
        code, doc = invoke(capsys, "reproduce", "no-such-case")
        assert code == 1
        jsonschema.validate(doc, schemas.ERROR_SCHEMA)

    @pytest.mark.parametrize("argv", [["reproduce", "all"], ["seq", "parse", "1"]],
                             ids=["reproduce-all", "seq-parse"])
    def test_closed_stdout_is_no_traceback(self, argv):
        # the reader of stdout is gone before the command writes: a
        # BrokenPipeError traceback used to end the run
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "gsembed.cli", *argv],
                                  stdout=write, stderr=subprocess.PIPE,
                                  env=fresh_env(), timeout=60)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == b""


# one command per subcommand, with the gsembed modules it leaves loaded in
# a fresh interpreter: cli and seqdsl always, then what the command runs
COMMANDS = {
    "seq-parse": (["seq", "parse", "2^(3/2*j)*(1+j)^-1"], set()),
    "seq-eval": (["seq", "eval", "2^(j)", "--j", "0", "3"], set()),
    "seq-boyd": (["seq", "boyd", "pw2(s0=0,s1=1)"], {"seqcore"}),
    "seq-admissible": (["seq", "admissible", "2^(j)*(1+j)"], {"seqcore"}),
    "seq-standardize": (["seq", "standardize", "2^(1/2*j)", "--growth", "2^(j)"],
                        {"seqcore"}),
    "analyze": (["analyze", "--sigma", "2^(2*j)", "--tau", "1", "--p1", "1",
                 "--q1", "1", "--p2", "inf", "--q2", "inf", "--dim", "1"],
                {"embanalyzer"}),
    "lab-norm": (["lab", "norm", "--section", SECTION],
                 {"embanalyzer", "seqspacelab"}),
    "lab-nuclear": (["lab", "nuclear", "--section", SECTION],
                    {"embanalyzer", "seqspacelab"}),
    "lab-entropy": (["lab", "entropy", "--section", SECTION, "--k", "1", "2", "4"],
                    {"embanalyzer", "seqspacelab"}),
    "lab-ratefit": (["lab", "ratefit", "--from-problem", "{problem}", "--levels",
                     "1", "2"], {"embanalyzer", "seqspacelab"}),
    "reproduce": (["reproduce", "all"], {"embanalyzer", "corpus"}),
}

# runs each argv of the JSON list in argv[1] through cli.run and prints the
# gsembed modules then loaded, and which of dataclasses and inspect are;
# exits with the first non-zero exit code
RUN_COMMANDS = (
    "import contextlib, io, json, sys\n"
    "from gsembed import cli\n"
    "for argv in json.loads(sys.argv[1]):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        code = cli.run(argv)\n"
    "    if code != 0:\n"
    "        sys.exit(f'{argv} exited {code}')\n"
    "print(json.dumps([sorted(m for m in sys.modules if m.startswith('gsembed')),\n"
    "                  [m for m in ('dataclasses', 'inspect') if m in sys.modules]]))\n"
)


def fresh_python(script, *args):
    """(exit code, stdout, stderr) of python -c script args in a fresh
    interpreter."""
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=fresh_env(),
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def problem_file(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"sigma": "2^(j)", "tau": "1", "p1": "inf",
                                   "q1": "inf", "p2": "inf", "q2": "inf",
                                   "dim": 1}))
    return str(problem)


class TestImports:
    def test_no_command_loads_numpy(self, problem_file):
        # gsembed runs on the standard library alone: with every import of
        # numpy made to fail, each subcommand still succeeds
        argvs = [[a.replace("{problem}", problem_file) for a in argv]
                 for argv, _ in COMMANDS.values()]
        code, _, err = fresh_python("import sys; sys.modules['numpy'] = None\n"
                                    + RUN_COMMANDS, json.dumps(argvs))
        assert code == 0, err

    @pytest.mark.parametrize("argv, modules", COMMANDS.values(), ids=COMMANDS)
    def test_command_loads_what_it_runs(self, problem_file, argv, modules):
        # start-up is most of a command's run; a stray top-level import
        # in cli, or in a module it loads, fails here.  dataclasses, with
        # the inspect it imports, costs about 10 ms to load
        argv = [a.replace("{problem}", problem_file) for a in argv]
        code, out, err = fresh_python(RUN_COMMANDS, json.dumps([argv]))
        assert code == 0, err
        loaded, stdlib = json.loads(out)
        assert loaded == sorted({"gsembed", "gsembed.cli", "gsembed.seqdsl"}
                                | {f"gsembed.{m}" for m in modules})
        assert stdlib == []

    def test_exports_load_on_first_use(self):
        code, out, err = fresh_python(
            "import json, sys, gsembed\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith('gsembed.'))\n"
            "before = loaded()\n"
            "gsembed.parse\n"
            "print(json.dumps([before, loaded(), gsembed.__all__]))\n")
        assert code == 0, err
        before, after, names = json.loads(out)
        modules = [seqdsl, seqcore, embanalyzer, seqspacelab]
        assert before == []
        assert after == sorted(m.__name__ for m in modules)
        assert names == [n for m in modules for n in m.__all__]

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from gsembed import *", namespace)
        for module in (seqdsl, seqcore, embanalyzer, seqspacelab):
            for name in module.__all__:
                assert namespace[name] is getattr(module, name), name
                assert getattr(gsembed, name) is getattr(module, name), name
