"""Self-checks of the benchmark's own code (no gsembed, no numpy).

    python3 gsbench/test_selfcheck.py        # or: python3 -m pytest gsbench

A wrong answer must be counted, so that the checks cannot pass vacuously,
and the generator must be a pure function of its seed.
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _status(flag):
    return "holds" if flag else "fails"


def ideal_exact(item: dict) -> dict:
    """The outputs a correct engine gives on an exact-sweep item."""
    expect = item["expect"]
    if item["kind"] == "corpus":
        out = {"compact": "holds", "nuclear": "holds",
               "entropy": {"kind": "non-limiting", "k_exponent": None,
                           "log_exponent": None, "residual": None}}
        if item["op"] == "band":
            return {"band": dict(expect)}
        if item["op"] == "compactness":
            out["compact"] = expect["status"]
        elif item["op"] == "nuclearity":
            out["nuclear"] = expect["status"]
        else:
            out["entropy"] = {"kind": expect["kind"],
                              "k_exponent": expect.get("k_exponent"),
                              "log_exponent": expect.get("log_exponent"),
                              "residual": expect.get("residual_contains")}
        return out
    entropy = {"kind": "limiting-log", "k_exponent": "0", "log_exponent": "1",
               "residual": None}
    entropy.update(expect["entropy"])
    return {"compact": _status(expect["compact"]),
            "nuclear": None if expect["nuclear"] is None
            else _status(expect["nuclear"]),
            "entropy": entropy}


def lab_case():
    item = {"kind": "raw", "banach": True, "rate_fit": False,
            "section": {"beta": [1.0, 2.0], "M": [1, 2], "p1": "2", "q1": "2",
                        "p2": "2", "q2": "2"}}
    out = {"n": 3, "closed": 1.0, "search": 0.999,
           "tong": 2.0, "oracle": {"coordinate_upper": 2.0, "hilbert_trace": 2.0},
           "upper": [1.0, 0.5, 0.25], "lower": [0.5, 0.25, 0.1]}
    return item, out


def error_ratio(workload: str, problems: list) -> float:
    n = len(problems)
    report = {"latency_s": [0.001] * n, "problems": problems, "items": [{}] * n,
              "outputs": [{"search": 1.0, "closed": 1.0}] * n,
              "reference_s": [0.002]}
    args = argparse.Namespace(workload=workload)
    return run.figures(args, report)["error_ratio"][0]


def test_correct_exact_outputs_pass():
    for item in gen.take(gen.exact_stream(7), 400):
        assert checks.check_exact(item, ideal_exact(item)) == [], item


def test_flipped_verdict_is_counted():
    items = [it for it in gen.take(gen.exact_stream(7), 200)
             if it["kind"] != "corpus"]
    problems = []
    for item in items:
        out = ideal_exact(item)
        out["compact"] = _status(not item["expect"]["compact"])
        problems.append(checks.check_exact(item, out))
    assert all(problems)
    assert error_ratio("exact-sweep", problems) == 1.0


def test_unexpected_inconclusive_is_counted():
    item = next(it for it in gen.exact_stream(3) if it["kind"] == "geometric")
    out = ideal_exact(item)
    out["nuclear"] = "inconclusive"
    assert checks.check_exact(item, out)


def test_corpus_expectation_mismatch_is_counted():
    cases = [gen.corpus_item(c) for c in gen.load_corpus()]
    assert len(cases) == 23
    for item in cases:
        out = ideal_exact(item)
        assert checks.check_exact(item, out) == []
        wrong = copy.deepcopy(out)
        if item["op"] == "band":
            wrong["band"]["empty"] = not wrong["band"]["empty"]
        elif item["op"] == "entropy_rate":
            wrong["entropy"]["kind"] = "inconclusive"
        else:
            key = "compact" if item["op"] == "compactness" else "nuclear"
            wrong[key] = "fails" if out[key] == "holds" else "holds"
        assert checks.check_exact(item, wrong), item["id"]


def test_malformed_output_is_counted():
    item = next(it for it in gen.exact_stream(3) if it["kind"] == "geometric")
    assert run.checked(checks.check_exact, item, {"band": {}})
    item, out = lab_case()
    del out["tong"]
    assert run.checked(checks.check_lab, item, out)
    item = next(it for it in gen.cli_stream(5) if it["kind"] == "parse")
    assert run.checked(checks.check_cli, item, 0, '{"classified": true}')


def test_search_above_closed_form_is_counted():
    item, out = lab_case()
    assert checks.check_lab(item, out) == []
    out["search"] = out["closed"] * 1.001
    problems = [checks.check_lab(item, out)]
    assert problems[0]
    assert error_ratio("lab-sections", problems) == 1.0


def test_entropy_lower_above_upper_is_counted():
    item, out = lab_case()
    out["lower"][2] = 0.3  # lower_3 above upper_3 = 0.25
    problems = [checks.check_lab(item, out)]
    assert problems[0]
    assert error_ratio("lab-sections", problems) == 1.0
    item, out = lab_case()
    out["upper"][1] = 0.05  # below lower_3: e_2 >= e_3 >= 0.1 is violated
    assert checks.check_lab(item, out)


def test_tong_oracle_mismatch_is_counted():
    item, out = lab_case()
    out["oracle"]["hilbert_trace"] = 2.1
    assert checks.check_lab(item, out)
    item, out = lab_case()
    out["oracle"]["coordinate_upper"] = 1.5
    assert checks.check_lab(item, out)


def test_rising_upper_bound_is_a_defect_count_not_a_failure():
    item, out = lab_case()
    out["upper"] = [1.0, 0.5, 0.6]
    assert checks.check_lab(item, out) == []
    assert checks.upper_increases(out["upper"]) == 1


def test_cli_flipped_verdict_is_counted():
    item = next(it for it in gen.cli_stream(5) if it["kind"] == "analyze")
    expect = item["expect"]
    doc = {"compactness": {"status": _status(expect["compact"])},
           "nuclearity": {"status": "inconclusive", "tag": "not-applicable"}
           if expect["nuclear"] is None
           else {"status": _status(expect["nuclear"]), "tag": "x"},
           "entropy": {"kind": expect["entropy"].get("kind", "limiting-log"),
                       **{k: v for k, v in expect["entropy"].items()
                          if k != "kind"}}}
    assert checks.check_cli(item, 0, json.dumps(doc)) == []
    doc["compactness"]["status"] = _status(not expect["compact"])
    assert checks.check_cli(item, 0, json.dumps(doc))
    assert checks.check_cli(item, 1, "Traceback (most recent call last):")


def test_slower_program_reads_slower_at_reference_speed():
    args = argparse.Namespace(workload="exact-sweep")
    report = {"latency_s": [0.001] * 100, "reference_s": [0.002],
              "peak_rss_kb": 1024}
    fast = run.end_to_end(args, report, [0.3], [0.002])
    report["latency_s"] = [0.002] * 100
    slow = run.end_to_end(args, report, [0.6], [0.002])
    assert slow["ops_per_s"][0] < fast["ops_per_s"][0]
    assert slow["op_p50_ms"][0] > fast["op_p50_ms"][0]
    assert slow["setup_s"][0] > fast["setup_s"][0]
    # the same work on a machine twice as slow reads the same
    report["reference_s"] = [0.004]
    same = run.end_to_end(args, report, [0.6], [0.004])
    assert abs(same["ops_per_s"][0] - fast["ops_per_s"][0]) < 1e-9
    assert abs(same["setup_s"][0] - fast["setup_s"][0]) < 1e-12


def test_generator_is_a_function_of_the_seed():
    for stream in gen.STREAMS.values():
        a = gen.take(stream(11), 60)
        assert a == gen.take(stream(11), 60)
        assert a != gen.take(stream(12), 60)


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    rows = [(1, 0, 0, "op", 0.0, 10.0), (2, 1, 0, "a", 1.0, 5.0),
            (3, 2, 0, "b", 2.0, 3.0), (4, 1, 0, "b", 6.0, 9.0)]
    agg = spans.aggregate(rows)
    assert agg["op"]["self_s"] == 10.0 - 4.0 - 3.0
    assert agg["a"]["self_s"] == 3.0
    assert agg["b"] == {"calls": 2, "total_s": 4.0, "self_s": 4.0}
    buf = io.StringIO()
    rec.write(buf)
    assert buf.getvalue().strip() == ",".join(spans.FIELDS)


def main() -> int:
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
