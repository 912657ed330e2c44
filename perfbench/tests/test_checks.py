"""The report checks reject what they exist to reject."""

import checks


def _suite(details, passed=True):
    return {"results": {"all_passed": passed, "checks": [
        {"name": f"c{i}", "passed": passed, "detail": d} for i, d in enumerate(details)]}}


def test_vacuous_counting_pass_fails():
    expect = {"suite": "counting", "checks": 2}
    assert checks.check("suite", expect, 0, _suite(["checked 3 Case A codes"] * 2)) == []
    assert checks.check("suite", expect, 0, _suite(["checked 0 Case A codes"] * 2))


def test_wrong_check_count_and_failure_are_reported():
    expect = {"suite": "appendix-a", "checks": 3}
    assert checks.check("suite", expect, 0, _suite(["", ""]))
    assert checks.check("suite", expect, 1, _suite(["", "", ""], passed=False))


def test_classify_size_product():
    expect = {"k": 3, "length": 1, "size": 2, "classification": "CaseB", "dual_size": 3,
              "generators": [], "even_part_size": 1}
    report = {"results": {"size": 2, "classification": "CaseB", "dual_size": 3,
                          "generators": [], "even_part_size": 1, "odd_part_size": 1}}
    assert checks.check("classify", expect, 0, report) == []
    report["results"]["dual_size"] = 4
    assert checks.check("classify", expect, 0, report)
