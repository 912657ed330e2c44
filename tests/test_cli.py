import json
import time

import pytest

from parafusion import ud, verify
from parafusion.cli import main
from parafusion.codes import all_codes
from parafusion.ud import orbits


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


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense", "--k", "3"])
    assert exc.value.code == 2


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
    ("lattice-lemmas", 33, "k^4 = 1185921"),
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
    ("lattice-lemmas", 32, "verify_coset_inner_congruence"),
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
