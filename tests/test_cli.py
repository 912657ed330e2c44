import json
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import parafusion
from parafusion import u0, ud, verify
from parafusion.cli import main
from parafusion.codes import all_codes, enumerate_code
from parafusion.ud import character_from_eta, count_twisted_by_character, orbits


def run_cli(capsys, args):
    status = main(args)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_fusion_command(capsys):
    status, out, err = run_cli(
        capsys, ["fusion", "--k", "3", "--left", "1,1", "--right", "1,1"]
    )
    assert status == 0 and err == ""
    report = json.loads(out)
    assert report["schema"] == "parafusion-report/1"
    assert report["command"] == "fusion"
    terms = report["results"]["terms"]
    assert [t["label"] for t in terms] == ["U(0,2)", "U(0,5)"]
    assert all(t["multiplicity"] == 1 for t in terms)


def test_fusion_vacuum_echoes_right_operand(capsys):
    status, out, _ = run_cli(
        capsys, ["fusion", "--k", "4", "--left", "0,0", "--right", "2,5"]
    )
    assert status == 0
    report = json.loads(out)
    assert [t["label"] for t in report["results"]["terms"]] == ["U(1,1)"]


def test_fusion_bad_label_is_usage_error(capsys):
    status, out, err = run_cli(
        capsys, ["fusion", "--k", "3", "--left", "7,0", "--right", "0,0"]
    )
    assert status == 2 and out == "" and "error" in err


def test_fusion_malformed_pair(capsys):
    status, _, err = run_cli(
        capsys, ["fusion", "--k", "3", "--left", "1", "--right", "0,0"]
    )
    assert status == 2 and "i,l" in err


def test_classify_command(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"k": 3, "length": 1, "generators": [[3]]}))
    status, out, _ = run_cli(capsys, ["classify", "--code", str(path)])
    assert status == 0
    results = json.loads(out)["results"]
    assert results["classification"] == "CaseB"
    assert results["size"] == 2
    assert results["even_part_size"] == 1 and results["odd_part_size"] == 1
    assert results["generators"][0]["weight_mod1"] == "1/2"
    assert results["generators"][0]["euclidean_weight"] == 9
    assert results["dual_size"] == 3


def test_classify_empty_generators(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"k": 2, "length": 2, "generators": []}))
    status, out, _ = run_cli(capsys, ["classify", "--code", str(path)])
    assert status == 0
    results = json.loads(out)["results"]
    assert results["classification"] == "CaseA" and results["size"] == 1


def test_classify_invalid_code_reports_invalid(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"k": 3, "length": 1, "generators": [[1]]}))
    status, out, _ = run_cli(capsys, ["classify", "--code", str(path)])
    assert status == 0
    assert json.loads(out)["results"]["classification"] == "Invalid"


def test_classify_malformed_json(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text("{broken")
    status, _, err = run_cli(capsys, ["classify", "--code", str(path)])
    assert status == 2 and err


def test_code_that_is_neither_a_file_nor_json_is_named(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    status, out, err = run_cli(capsys, ["modules", "--code", missing])
    assert status == 2 and out == ""
    assert missing in err and "neither an existing file nor JSON text" in err


def test_code_text_longer_than_a_file_name_is_not_an_os_error(capsys):
    # a file-name lookup of such text fails with ENAMETOOLONG on most systems
    for text, message in ((json.dumps([1] * 2000), "must be an object"),
                          ("x" * 6000, "neither an existing file nor JSON text")):
        assert len(text) == 6000
        status, out, err = run_cli(capsys, ["classify", "--code", text])
        assert status == 2 and out == ""
        assert message in err and "Errno" not in err


@pytest.mark.parametrize("command", ["classify", "modules"])
def test_code_nested_too_deeply_is_a_usage_error(tmp_path, capsys, command):
    # json's parser recurses once per level and runs out of stack
    text = "[" * 20000
    path = tmp_path / "deep.json"
    path.write_text(text)
    for source in (text, str(path)):
        status, out, err = run_cli(capsys, [command, "--code", source])
        assert status == 2 and out == ""
        assert err == "error: code JSON is nested too deeply\n"


@pytest.mark.parametrize("command", ["classify", "modules"])
def test_code_with_an_unknown_field_is_a_usage_error(capsys, command):
    # a field the schema does not name is refused, not ignored
    source = '{"k":3,"length":1,"generators":[[3]],"extra":1}'
    status, out, err = run_cli(capsys, [command, "--code", source])
    assert status == 2 and out == ""
    assert err == "error: code JSON has unknown fields: ['extra']\n"


def test_modules_case_a(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"k": 2, "length": 2, "generators": [[2, 2]]}))
    status, out, _ = run_cli(capsys, ["modules", "--code", str(path)])
    assert status == 0
    results = json.loads(out)["results"]
    assert results["classification"] == "CaseA"
    assert results["orbit_count"] == 8
    assert sum(results["twisted_module_counts"].values()) == 8
    assert all(o["size"] == 2 for o in results["orbits"])


def test_modules_with_character_filter_and_induce(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"k": 2, "length": 2, "generators": [[2, 2]]}))
    status, out, _ = run_cli(
        capsys, ["modules", "--code", str(path), "--chi", "0,0", "--induce"]
    )
    assert status == 0
    results = json.loads(out)["results"]
    assert 0 < results["orbit_count"] < 8
    for orbit in results["orbits"]:
        assert orbit["character"] == "chi[0,0]"
        assert orbit["induced"]["summand_count"] == 1


def test_modules_induce_reports_stabilized_orbits(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"k": 3, "length": 2, "generators": [[3, 3]]}))
    status, out, _ = run_cli(capsys, ["modules", "--code", str(path), "--induce"])
    assert status == 0
    results = json.loads(out)["results"]
    stabilized = [o for o in results["orbits"] if o["stabilizer_order"] == 2]
    assert stabilized
    assert all(o["induced"]["summand_count"] == 2 for o in stabilized)
    free = [o for o in results["orbits"] if o["stabilizer_order"] == 1]
    assert all(o["induced"]["summand_count"] == 1 for o in free)


def test_modules_case_b_inventory(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"k": 3, "length": 1, "generators": [[3]]}))
    status, out, _ = run_cli(capsys, ["modules", "--code", str(path)])
    assert status == 0
    results = json.loads(out)["results"]
    assert results["classification"] == "CaseB"
    assert len(results["entries"]) == 9
    assert all("undetermined" in e["flag"] for e in results["entries"])


def test_modules_invalid_code_is_an_error(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"k": 3, "length": 1, "generators": [[1]]}))
    status, _, err = run_cli(capsys, ["modules", "--code", str(path)])
    assert status == 2 and err


def test_verify_suites_pass(capsys):
    for suite, k in [
        ("fusion-axioms", 3),
        ("appendix-a", 10),
        ("lattice-lemmas", 3),
        ("discriminant", 8),
        ("counting", 2),
    ]:
        status, out, _ = run_cli(capsys, ["verify", "--suite", suite, "--k", str(k)])
        assert status == 0, (suite, out)
        report = json.loads(out)
        assert report["results"]["all_passed"] is True
        assert all(c["passed"] for c in report["results"]["checks"])


@pytest.mark.parametrize("suite, k", [("fusion-axioms", "4"), ("counting", "3")])
def test_a_verify_request_builds_its_class_table_once(capsys, suite, k):
    # fusion-axioms reads the class table and the fusion table on it;
    # counting runs the census of every small Case A code at the one k
    u0.class_index.cache_clear()
    status, out, err = run_cli(capsys, ["verify", "--suite", suite, "--k", k])
    assert status == 0 and err == "" and json.loads(out)["results"]["all_passed"]
    assert u0.class_index.cache_info().misses == 1


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense", "--k", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite", ["fusion-axioms", "appendix-a", "discriminant", "counting"])
def test_verify_seed_on_a_suite_that_samples_nothing_is_usage_error(capsys, suite):
    status, out, err = run_cli(capsys, ["verify", "--suite", suite, "--k", "3", "--seed", "7"])
    assert status == 2 and out == ""
    assert err == f"error: suite {suite} samples nothing and takes no seed, got 7\n"
    for seed in (["--seed", "0"], []):
        status, out, _ = run_cli(capsys, ["verify", "--suite", suite, "--k", "3", *seed])
        assert status == 0 and json.loads(out)["seed"] == 0


def test_reports_are_byte_identical(capsys):
    args = ["verify", "--suite", "lattice-lemmas", "--k", "2", "--seed", "5"]
    status1, out1, _ = run_cli(capsys, args)
    status2, out2, _ = run_cli(capsys, args)
    assert status1 == status2 == 0
    assert out1 == out2


def test_report_rationals_are_strings(tmp_path, capsys):
    path = tmp_path / "code.json"
    path.write_text(json.dumps({"k": 3, "length": 1, "generators": [[3]]}))
    _, out, _ = run_cli(capsys, ["classify", "--code", str(path)])
    assert '"1/2"' in out
    assert "0.5" not in out


def test_deterministic_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["fusion", "--k", "3", "--left", "1,1", "--right", "1,1", "--deterministic"])
    assert exc.value.code == 2


@pytest.mark.parametrize("suite, k", [
    ("appendix-a", "1"),
    ("appendix-a", "-5"),
    ("discriminant", "0"),
])
def test_verify_k_below_two_is_usage_error(capsys, suite, k):
    status, out, err = run_cli(capsys, ["verify", "--suite", suite, "--k", k])
    assert status == 2 and out == "" and "k must be >= 2" in err


def test_modules_chi_on_case_b_is_usage_error(capsys):
    code = json.dumps({"k": 3, "length": 1, "generators": [[3]]})
    status, out, err = run_cli(capsys, ["modules", "--code", code, "--chi", "x"])
    assert status == 2 and out == "" and "--chi" in err


def test_modules_induce_on_case_b_is_usage_error(capsys):
    code = json.dumps({"k": 3, "length": 2, "generators": [[3, 0], [0, 3]]})
    status, out, err = run_cli(capsys, ["modules", "--code", code, "--induce"])
    assert status == 2 and out == "" and "--induce" in err


def test_classify_long_code_text(capsys):
    # a length-30 code: its JSON text is too long for a file name, and its
    # ambient space (6^30 vectors) is far too large to scan
    code = json.dumps({"k": 3, "length": 30,
                       "generators": [[3] * 30, [0, 3] * 15, [2] * 30]})
    assert len(code) > 300
    status, out, err = run_cli(capsys, ["classify", "--code", code])
    assert status == 0 and err == ""
    results = json.loads(out)["results"]
    assert results["size"] == 12
    assert results["dual_size"] == 6 ** 30 // 12


def test_classify_builds_no_codeword(capsys):
    # six unit vectors of length 30 at k = 3: |D| = 6^6 = 46 656 codewords
    units = [[int(r == j) for r in range(30)] for j in range(6)]
    code = json.dumps({"k": 3, "length": 30, "generators": units})
    start = time.perf_counter()
    status, out, err = run_cli(capsys, ["classify", "--code", code])
    assert time.perf_counter() - start < 1.0
    assert status == 0 and err == ""
    results = json.loads(out)["results"]
    assert results["size"] == 6 ** 6 and results["dual_size"] == 6 ** 24
    assert results["classification"] == "Invalid"


def test_classify_at_huge_k_reads_the_size_off_the_form(capsys):
    # 2 * 10^9 codewords: classify reads |D| off the form and builds none
    code = json.dumps({"k": 10 ** 9, "length": 1, "generators": [[1]]})
    start = time.perf_counter()
    status, out, err = run_cli(capsys, ["classify", "--code", code])
    assert time.perf_counter() - start < 1.0
    assert status == 0 and err == ""
    results = json.loads(out)["results"]
    assert results["size"] == 2 * 10 ** 9 and results["dual_size"] == 1


def test_classify_past_the_code_budget(capsys):
    # eight unit vectors of length 30 at k = 3: 6^8 codewords, past 2^20
    units = [[int(r == j) for r in range(30)] for j in range(8)]
    code = json.dumps({"k": 3, "length": 30, "generators": units})
    start = time.perf_counter()
    status, out, err = run_cli(capsys, ["classify", "--code", code])
    assert time.perf_counter() - start < 1.0
    assert status == 0 and err == ""
    results = json.loads(out)["results"]
    assert results["size"] == 1679616 and results["dual_size"] == 6 ** 22


def test_classify_unprintable_dual_size_is_usage_error(capsys):
    # 6^6000 has 4669 digits, past the default int-to-str limit of 4300
    code = json.dumps({"k": 3, "length": 6000, "generators": []})
    status, out, err = run_cli(capsys, ["classify", "--code", code])
    assert status == 2 and out == ""
    assert err.count("\n") == 1 and "dual_size has more than" in err


@pytest.mark.parametrize("k, length", [(10 ** 100, 44), (10 ** 9, 470)])
def test_classify_unprintable_size_is_usage_error(capsys, k, length):
    # (2k)^length codewords, from length unit vectors: 4414 and 4372 digits
    units = [[int(r == j) for r in range(length)] for j in range(length)]
    code = json.dumps({"k": k, "length": length, "generators": units})
    status, out, err = run_cli(capsys, ["classify", "--code", code])
    assert status == 2 and out == ""
    assert err == "error: size has more than 4300 digits\n"


@pytest.mark.parametrize("k, word, field", [
    # (10^3000 - 1)^2 has 6000 digits
    (10 ** 3000, 10 ** 3000 - 1, "euclidean_weight"),
    # -2 is 2k - 2 mod 2k, a 4301-digit entry; |D| = k still prints
    (9 * 10 ** 4299, -2, "word"),
    # (k-1)/4k in lowest terms, over a 4301-digit denominator
    (3 * 10 ** 4299, 1, "weight_mod1"),
], ids=["euclidean_weight", "word", "weight_mod1"])
def test_classify_unprintable_generator_field_is_usage_error(capsys, k, word, field):
    code = json.dumps({"k": k, "length": 1, "generators": [[word]]})
    status, out, err = run_cli(capsys, ["classify", "--code", code])
    assert status == 2 and out == ""
    assert err == f"error: {field} has more than 4300 digits\n"


@pytest.mark.parametrize("command, message", [
    ("modules", "label space of size 3^20000000 exceeds the budget 1048576"),
    ("classify", "dual_size has more than 4300 digits"),
])
def test_huge_length_fails_fast(capsys, command, message):
    # 3^(2 length) labels and 6^length dual codewords are decided from the
    # exponent: neither power is built
    code = json.dumps({"k": 3, "length": 10 ** 7, "generators": []})
    start = time.perf_counter()
    status, out, err = run_cli(capsys, [command, "--code", code])
    assert time.perf_counter() - start < 1.0
    assert status == 2 and out == "" and err == f"error: {message}\n"


@pytest.mark.parametrize("length, size", [(10, "3486784401"), (6000, "3^12000")])
def test_modules_label_budget_message(capsys, length, size):
    # 3^12000 has 5726 digits, past the default int-to-str limit of 4300
    code = json.dumps({"k": 3, "length": length, "generators": []})
    status, out, err = run_cli(capsys, ["modules", "--code", code])
    assert status == 2 and out == ""
    assert err == f"error: label space of size {size} exceeds the budget 1048576\n"


@pytest.mark.parametrize("k", [2, 3, 4])
def test_classify_dual_size_is_the_ambient_quotient(capsys, k):
    for code in all_codes(k, 2):
        text = json.dumps({"k": k, "length": 2,
                           "generators": [list(g.entries) for g in code.generators]})
        status, out, _ = run_cli(capsys, ["classify", "--code", text])
        assert status == 0
        assert json.loads(out)["results"]["dual_size"] == (2 * k) ** 2 // code.size


def test_verify_fusion_axioms_over_budget_fails_fast(capsys):
    # k = 11 has 11^6 triples of classes, past the label budget of 2^20
    start = time.perf_counter()
    status, out, err = run_cli(capsys, ["verify", "--suite", "fusion-axioms", "--k", "11"])
    assert time.perf_counter() - start < 1.0
    assert status == 2 and out == ""
    assert err == "error: suite k^6 of size 1771561 exceeds the budget 1048576\n"


@pytest.mark.parametrize("suite, k, size", [
    ("appendix-a", 102, "k^3 = 1061208"),
    ("discriminant", 33, "k^4 = 1185921"),
    ("lattice-lemmas", 102, "k^3 = 1061208"),
    ("counting", 11, "k^6 = 1771561"),
])
def test_verify_suite_over_budget_fails_fast(capsys, suite, k, size):
    start = time.perf_counter()
    status, out, err = run_cli(capsys, ["verify", "--suite", suite, "--k", str(k)])
    assert time.perf_counter() - start < 1.0
    assert status == 2 and out == ""
    power, size = size.split(" = ")
    assert err == f"error: suite {power} of size {size} exceeds the budget 1048576\n"


class _Admitted(Exception):
    pass


@pytest.mark.parametrize("suite, k, first_step", [
    ("appendix-a", 101, "top_level"),
    ("discriminant", 32, "discriminant_group"),
    ("lattice-lemmas", 101, "verify_coset_inner_congruence"),
    ("counting", 10, "all_codes"),
])
def test_verify_suite_budget_admits_the_last_k(monkeypatch, suite, k, first_step):
    # the suite passes its budget and reaches its first step of work
    def admitted(*args, **kwargs):
        raise _Admitted

    monkeypatch.setattr(verify, first_step, admitted)
    with pytest.raises(_Admitted):
        verify.run_suite(suite, k)


def test_modules_chi_on_long_code_fails_fast(capsys):
    # naming a character of a length-30 code would pass over 6^30 eta vectors
    code = json.dumps({"k": 3, "length": 30, "generators": [[3] * 30]})
    start = time.perf_counter()
    status, out, err = run_cli(capsys, ["modules", "--code", code, "--chi", ",".join("0" * 30)])
    assert time.perf_counter() - start < 1.0
    assert status == 2 and out == "" and "exceed" in err


@pytest.mark.parametrize("field, value", [
    ("k", True),
    ("length", True),
    ("generators", [[True]]),
])
def test_classify_rejects_bools(capsys, field, value):
    obj = {"k": 3, "length": 1, "generators": [[3]]}
    obj[field] = value
    status, out, err = run_cli(capsys, ["classify", "--code", json.dumps(obj)])
    assert status == 2 and out == "" and "integer" in err


# 2e_1, ..., 2e_20 at k=2 span a Case B code of 2^20 codewords and 2^42 labels
_CASE_B_2E = json.dumps({"k": 2, "length": 21, "generators": [
    [2 if j == i else 0 for j in range(21)] for i in range(20)]})


def test_modules_case_b_over_budget_fails_fast(capsys):
    # the labels are refused before the even part is built
    start = time.perf_counter()
    status, out, err = run_cli(capsys, ["modules", "--code", _CASE_B_2E])
    assert time.perf_counter() - start < 1.0
    assert status == 2 and out == ""
    assert err == "error: label space of size 4398046511104 exceeds the budget 1048576\n"


@pytest.mark.parametrize("flags, message", [
    (["--chi", "0"], "--chi restricts"),
    (["--induce"], "--induce induces"),
])
def test_modules_usage_errors_come_before_the_budget(capsys, flags, message):
    status, out, err = run_cli(capsys, ["modules", "--code", _CASE_B_2E] + flags)
    assert status == 2 and out == "" and message in err


def test_counting_censuses_each_code_once(monkeypatch):
    calls = []

    def counted(code, *args, **kwargs):
        calls.append(code)
        return orbits(code, *args, **kwargs)

    # a census through ud (count_twisted, say) counts too
    monkeypatch.setattr(verify, "orbits", counted)
    monkeypatch.setattr(ud, "orbits", counted)
    checks = verify.suite_counting(3)
    assert all(c.passed for c in checks)
    checked = sum(int(c.detail.split()[1]) for c in checks)
    assert len(calls) == checked == 3
    assert len(set(calls)) == 3


def test_counting_reports_an_orbit_that_fails_induction(monkeypatch, capsys):
    # with every isotropic part empty, a stabilized orbit at k = 3 counts
    # no twisted module, and its induction is no square
    monkeypatch.setattr(ud, "_isotropic_part", lambda code, stab: ())
    status, out, err = run_cli(capsys, ["verify", "--suite", "counting", "--k", "3"])
    assert status == 1 and err == ""
    checks = {c["name"]: c for c in json.loads(out)["results"]["checks"]}
    length2 = checks["counting-length-2"]
    assert not length2["passed"]
    assert "induction fails on the orbit of U(" in length2["detail"]
    assert "square" in length2["detail"]


def _drop_a_character(census):
    counts = count_twisted_by_character(census)
    del counts[next(iter(counts))]
    return counts


def _add_a_module(census):
    counts = count_twisted_by_character(census)
    counts[next(iter(counts))] += 1
    return counts


@pytest.mark.parametrize("grouping, details", [
    (_drop_a_character, ["Code(k=2, length=1, size=1, CaseA): character count 0 != |D| = 1",
                         "Code(k=2, length=2, size=2, CaseA): character count 1 != |D| = 2"]),
    (_add_a_module, ["Code(k=2, length=1, size=1, CaseA): count sum 5 != free-orbit total",
                     "Code(k=2, length=2, size=2, CaseA): count sum 9 != free-orbit total"]),
])
def test_counting_reports_a_wrong_character_grouping(monkeypatch, grouping, details):
    monkeypatch.setattr(verify, "count_twisted_by_character", grouping)
    checks = verify.suite_counting(2)
    assert [c.name for c in checks] == ["counting-length-1", "counting-length-2"]
    assert not any(c.passed for c in checks)
    assert [c.detail for c in checks] == details


def test_case_a_census_stays_in_class_numbers(monkeypatch, capsys):
    # the census, every modules report and the counting suite name each class
    # once: no orbit member is built as a label object
    code = enumerate_code(3, 3, [(3, 3, 0), (0, 3, 3)])
    built = []
    validate = ud.IrrU0Label.__init__

    def counted(self, *args):
        built.append(self)
        validate(self, *args)

    monkeypatch.setattr(ud.IrrU0Label, "__init__", counted)
    census = orbits(code)
    assert max(o.group.size for o in census) == code.size == 4
    source = json.dumps({"k": 3, "length": 3, "generators": [[3, 3, 0], [0, 3, 3]]})
    for flags in ([], ["--chi", "0,0,0"], ["--induce"]):
        status, out, _ = run_cli(capsys, ["modules", "--code", source] + flags)
        assert status == 0
        assert json.loads(out)["results"]["orbit_count"] > 0
    case_b = json.dumps({"k": 3, "length": 2, "generators": [[3, 0], [0, 3]]})
    status, out, _ = run_cli(capsys, ["modules", "--code", case_b])
    assert status == 0 and json.loads(out)["results"]["entries"]
    status, out, _ = run_cli(capsys, ["verify", "--suite", "counting", "--k", "3"])
    assert status == 0 and json.loads(out)["results"]["all_passed"]
    assert built == []
    # the library still builds a label on request, and the count sees it
    assert census[-1].representative.length == code.length
    assert len(built) == 1


def test_census_reduces_each_distinct_eta_once(monkeypatch, capsys):
    # a character is named by reducing eta against the dual code: once per
    # distinct eta of a census, not once per orbit or per label
    code = enumerate_code(3, 3, [(3, 3, 0), (0, 3, 3)])
    chi = character_from_eta(code, (1, 2, 0))
    calls = []
    reduce = ud.least_in_coset

    def counted(n, form, vec):
        vec = tuple(vec)
        calls.append(vec)
        return reduce(n, form, vec)

    monkeypatch.setattr(ud, "least_in_coset", counted)
    for restrict in (None, chi):
        calls.clear()
        assert orbits(code, restrict_to_character=restrict)
        assert calls and max(Counter(calls).values()) == 1
    source = json.dumps({"k": 3, "length": 3, "generators": [[3, 3, 0], [0, 3, 3]]})
    for flags in ([], ["--chi", "1,2,0"]):
        ud._canonical_eta.cache_clear()
        calls.clear()
        status, out, _ = run_cli(capsys, ["modules", "--code", source] + flags)
        assert status == 0 and json.loads(out)["results"]["orbit_count"] > 0
        # --chi names its own eta once more, before the census
        assert len(calls) - len(set(calls)) <= (1 if flags else 0)
        assert len(set(calls)) <= 6 ** 3


_LONG_REPORT = ["modules", "--code", json.dumps({"k": 5, "length": 2, "generators": [[5, 5]]})]
_SHORT_REPORT = ["fusion", "--k", "3", "--left", "1,1", "--right", "1,1"]


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("argv, read", [(_LONG_REPORT, 64), (_SHORT_REPORT, 0)],
                         ids=["mid-report", "before-the-report"])
def test_a_reader_that_stops_early_ends_the_report_with_status_141(argv, read, unbuffered):
    # 128 + SIGPIPE, as a shell reports a writer killed by the pipe's closing:
    # no traceback, and not 1, which means a failed verification.  The long
    # report (78 kB) is more than a pipe holds, so the writer is still
    # writing; the short one is closed before it starts, so the failed flush
    # leaves it all buffered for the flush at exit
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(parafusion.__file__).parent.parent), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen([sys.executable, "-m", "parafusion.cli", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = child.stdout.read(read)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 141
    assert err == b""
    assert head == b'{\n  "command": "modules",\n  "deterministic": true,\n  "parameters"'[:read]
