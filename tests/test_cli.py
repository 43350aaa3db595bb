"""Command-line interface: schemas, exit codes, deterministic output."""

import ast
import hashlib
import inspect
import json
import resource
import subprocess
import sys

import pytest

import bpsing.cli
import bpsing.dgcat
import bpsing.grading
import bpsing.lattice
import bpsing.singcat
import bpsing.suspension
from bpsing.cli import main
from bpsing.dgcat import MAX_RANK, tensor_bp
from bpsing.singcat import bp_resolution, koszul_perfect_check, validate_resolution
from helpers import drop_one_composite, from_json_dict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_category_text_and_json(capsys):
    code, out, _ = run_cli(capsys, "category", "--p", "2,3")
    assert code == 0
    assert "(1, 1) -> (1, 2): 1" in out
    code, out, _ = run_cli(capsys, "category", "--p", "2,3", "--json")
    assert code == 0
    data = json.loads(out)
    assert from_json_dict(data) == tensor_bp((2, 3))


def test_fukaya_verify_and_bad_exponents(capsys):
    code, out, _ = run_cli(capsys, "fukaya", "--p", "2,2", "--verify")
    assert code == 0
    assert "verification: PASS" in out
    code, _, err = run_cli(capsys, "fukaya", "--p", "1,3")
    assert code == 2
    assert "exponents must be >= 2" in err
    code, _, err = run_cli(capsys, "fukaya", "--p", "x,3")
    assert code == 2
    assert "exponents must be integers" in err


def test_suspend_subcommand(capsys):
    code, out, _ = run_cli(capsys, "suspend", "--p", "2,3", "--k", "3", "--verify", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["objects"]) == 4
    code, _, err = run_cli(capsys, "suspend", "--p", "2,3", "--k", "1")
    assert code == 2
    assert "k must be >= 2" in err


def test_suspend_verify_prints_the_checked_category(capsys):
    _, plain, _ = run_cli(capsys, "suspend", "--p", "2,3", "--k", "3")
    code, checked, _ = run_cli(capsys, "suspend", "--p", "2,3", "--k", "3", "--verify")
    assert code == 0
    assert checked == plain + "verification: PASS\n"


def test_failed_suspension_step_exits_1_with_the_reason_on_stderr(capsys, monkeypatch):
    real = bpsing.suspension.suspend
    monkeypatch.setattr(bpsing.suspension, "suspend", lambda A, k: drop_one_composite(real(A, k)))
    for argv in [
        ("suspend", "--p", "2,3", "--k", "3", "--verify"),
        ("fukaya", "--p", "3,3", "--verify"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("verification failure: "), err


def test_lattice_json_schema(capsys):
    code, out, _ = run_cli(capsys, "lattice", "--p", "2,3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["st"] == [[0, -2], [2, 0]]
    assert data["euler"] == [[0, -1], [1, 0]]
    assert data["disagreements"] == [
        {"i": [1, 1], "j": [1, 2], "st": -2, "euler": -1}
    ]
    assert data["agree"] is False


def test_orlov_json_values(capsys):
    code, out, _ = run_cli(capsys, "orlov", "--p", "3,3,3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["cy"] is True
    assert data["sum"] == "1"
    assert data["ell"] == 3
    assert data["weights"] == [1, 1, 1]
    assert data["group"] == [3, 3]
    code, out, _ = run_cli(capsys, "orlov", "--p", "2,3,5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["cy"] is False
    assert data["sum"] == "31/30"
    code, out, _ = run_cli(capsys, "orlov", "--p", "7,8,5,11,12,10", "--json")
    assert code == 0
    assert json.loads(out)["group"] == [2, 20]


def test_singcat_ext_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "singcat", "ext", "--p", "2,3", "--source", "0,0", "--target", "0,0", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["dims"] == {"0": 1}
    assert data["formula"] == {"0": 1}
    assert data["agree"] is True
    code, _, err = run_cli(
        capsys, "singcat", "ext", "--p", "2,3", "--source", "0", "--target", "0,0"
    )
    assert code == 2
    assert "must have 2 entries" in err


def test_singcat_ext_negative_twists_as_separate_values(capsys):
    attached = run_cli(
        capsys, "singcat", "ext", "--p", "3,4", "--source=-1,0", "--target=0,0"
    )
    separate = run_cli(
        capsys, "singcat", "ext", "--p", "3,4", "--source", "-1,0", "--target", "0,0"
    )
    assert separate == attached
    code, out, _ = separate
    assert code == 0
    assert out.endswith("agree: True\n")
    code, out, _ = run_cli(
        capsys, "singcat", "ext", "--p", "3,4", "--source", "-1,-2", "--target", "-1,0", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["source"] == [-1, -2] and data["target"] == [-1, 0]


def test_singcat_resolution_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "singcat", "resolution", "--p", "2,3", "--length", "4", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["ranks"] == [1, 2, 2, 2, 2]
    assert data["window"] == 12
    labels = [g["label"] for g in data["levels"][1]["generators"]]
    assert labels == ["dx1|0", "dx2|0"]
    code, _, err = run_cli(capsys, "singcat", "resolution", "--p", "2,3", "--length", "0")
    assert code == 2
    assert "length" in err


def test_singcat_lemma_k_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "singcat", "lemma-k", "--p", "2,3", "--axis", "2", "--j", "3", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["iso_with_ring_quotient"] is True
    assert data["first_failure"] is None
    code, _, err = run_cli(capsys, "singcat", "lemma-k", "--p", "2,3", "--axis", "5", "--j", "2")
    assert code == 2
    assert "axis" in err
    code, out, err = run_cli(
        capsys, "singcat", "lemma-k", "--p", "2,3", "--axis", "2", "--j", "3", "--window", "-5"
    )
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --window -5" in err


def test_verify_suites(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "2,3", "--suite", "lattice", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    names = [c["name"] for c in data["suites"][0]["checks"]]
    assert names == ["st-gram-shape", "euler-gram-shape", "comparison-report"]
    code, out, _ = run_cli(capsys, "verify", "--p", "2,2", "--suite", "all")
    assert code == 0
    assert out.strip().endswith("verify: PASS")


def test_comparison_report_fails_when_the_product_form_changes_sign(capsys, monkeypatch):
    one_var_form = bpsing.lattice.one_var_form

    def flipped(p, i, j):
        value = one_var_form(p, i, j)
        return value if i == j else -value

    monkeypatch.setattr(bpsing.lattice, "one_var_form", flipped)
    code, out, _ = run_cli(capsys, "verify", "--p", "3,3", "--suite", "lattice", "--json")
    assert code == 1
    checks = {c["name"]: c for c in json.loads(out)["suites"][0]["checks"]}
    assert [name for name, c in checks.items() if not c["ok"]] == ["comparison-report"]
    assert checks["comparison-report"]["detail"]["first_mismatch"] == {
        "pair": [[1, 1], [1, 2]], "expected": -2, "found": 2,
    }


def test_lattice_routes_reject_huge_ranks_before_building(capsys, monkeypatch):
    def unreachable(p):
        raise AssertionError(f"a Gram basis of {p} was built before the rank check")

    # without the check these builders would try to allocate 99999^2 entries
    monkeypatch.setattr(bpsing.lattice, "index_tuples", unreachable)
    monkeypatch.setattr(bpsing.lattice, "tensor_bp", unreachable)
    for argv in [("lattice", "--p", "100000"), ("verify", "--suite", "lattice", "--p", "100000")]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: lattice rank prod(p_i - 1) = 99999 exceeds the limit {MAX_RANK}\n"
    code, out, _ = run_cli(capsys, "orlov", "--p", "100000")
    assert code == 0 and out


def test_orlov_refuses_many_variables_before_the_smith_form(capsys, monkeypatch):
    # the relation matrix goes to a dense Smith form: 1000 twos took 62 s
    assert bpsing.grading.MAX_TORSION_VARIABLES == 2**8
    p = ",".join(["2"] * 257)
    assert run_cli(capsys, "orlov", "--p", p) == (
        2, "", "error: torsion subgroup variable count 257 exceeds the limit 256\n"
    )
    monkeypatch.setattr(bpsing.grading, "MAX_TORSION_VARIABLES", 6)
    code, out, _ = run_cli(capsys, "orlov", "--p", "7,8,5,11,12,10", "--json")
    assert code == 0 and json.loads(out)["group"] == [2, 20]

    def unreachable(*args):
        raise AssertionError("the relation matrix was built before the variable count check")

    monkeypatch.setattr(bpsing.grading, "invariant_factors", unreachable)
    monkeypatch.setattr(bpsing.grading.LGroup, "relation_matrix", unreachable)
    for argv in ["orlov --p 2,2,2,2,2,2,2", "orlov --p 7,8,5,11,12,10,3 --json"]:
        assert run_cli(capsys, *argv.split()) == (
            2, "", "error: torsion subgroup variable count 7 exceeds the limit 6\n"
        )


def test_singcat_suite_refuses_huge_index_sets_before_building(capsys, monkeypatch):
    def unreachable(p):
        raise AssertionError(f"a ring for {p} was built before the pair-count check")

    # without the check ext-agreement would compare 99999^2 twist pairs
    monkeypatch.setattr(bpsing.cli, "GradedRing", unreachable)
    for p, count in [("100000", 99999), ("2,3,100000", 199998)]:
        code, out, err = run_cli(capsys, "verify", "--suite", "singcat", "--p", p)
        assert (code, out) == (2, "")
        assert err == (
            f"error: ext-agreement pair count {count}^2 = {count**2} exceeds the limit 1048576\n"
        )


def test_singcat_suite_refuses_huge_twist_pair_counts_before_building(capsys, monkeypatch):
    def unreachable(p):
        raise AssertionError(f"a ring for {p} was built before the pair-count check")

    # 1025 to 4096 twists pass the index-set limit, but ext-agreement would
    # compare more than 2^20 pairs for minutes
    assert bpsing.cli.MAX_TWIST_PAIRS == 2**20
    monkeypatch.setattr(bpsing.cli, "GradedRing", unreachable)
    for p, count in [("65,65", 4096), ("34,33", 1056), ("2,2,1026", 1025)]:
        code, out, err = run_cli(capsys, "verify", "--suite", "singcat", "--p", p)
        assert (code, out) == (2, "")
        assert err == (
            f"error: ext-agreement pair count {count}^2 = {count**2} exceeds the limit 1048576\n"
        )


def test_singcat_suite_twist_pair_limit_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(bpsing.cli, "MAX_TWIST_PAIRS", 64)
    code, out, _ = run_cli(capsys, "verify", "--suite", "singcat", "--p", "3,3,3")
    assert code == 0 and out.endswith("verify: PASS\n")
    code, out, err = run_cli(capsys, "verify", "--suite", "singcat", "--p", "3,3,3,3")
    assert (code, out) == (2, "")
    assert err == "error: ext-agreement pair count 16^2 = 256 exceeds the limit 64\n"


def test_singcat_suite_refuses_huge_sequence_degree_counts_before_building(capsys, monkeypatch):
    def unreachable(p):
        raise AssertionError(f"a ring for {p} was built before the degree-count check")

    # these pass the index-set and pair-count limits, but short-exact-sequences
    # would scan sum(p_i (p_i + 1) / 2 - 1) degrees, which grows as p^2
    assert bpsing.cli.MAX_SEQUENCE_DEGREES == 2**15
    monkeypatch.setattr(bpsing.cli, "GradedRing", unreachable)
    for p, count in [("256", 32895), ("2,2,256", 32899), ("1025", 525824)]:
        code, out, err = run_cli(capsys, "verify", "--suite", "singcat", "--p", p)
        assert (code, out) == (2, "")
        assert err == (
            f"error: short-exact-sequences degree count {count} exceeds the limit 32768\n"
        )


def _no_truncation(ring, axis, j, twist=None):
    raise AssertionError(f"a truncation of order {j} was built before the degree-count check")


def test_lemma_k_refuses_huge_truncation_orders_before_building(capsys, monkeypatch):
    # the sequence spans j degrees: j = 10^5 took 15.7 s and 210 MB, and below
    # j = p_axis the window is not read, so nothing else bounds it
    assert bpsing.cli.MAX_SEQUENCE_DEGREES == 2**15
    monkeypatch.setattr(bpsing.singcat, "truncated_module", _no_truncation)
    for argv, j in [("--p 100000 --axis 1 --j 100000", 100000),
                    ("--p 100000,2 --axis 1 --j 99999", 99999),
                    ("--p 32769 --axis 1 --j 32769", 32769)]:
        code, out, err = run_cli(capsys, "singcat", "lemma-k", *argv.split())
        assert (code, out) == (2, "")
        assert err == f"error: lemma-k degree count j = {j} exceeds the limit 32768\n"


def test_lemma_k_degree_limit_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(bpsing.cli, "MAX_SEQUENCE_DEGREES", 5)
    code, out, _ = run_cli(capsys, *"singcat lemma-k --p 5,7 --axis 2 --j 5".split())
    assert code == 0 and "sequence: exact" in out
    monkeypatch.setattr(bpsing.singcat, "truncated_module", _no_truncation)
    with pytest.raises(AssertionError, match="built before the degree-count check"):
        run_cli(capsys, *"singcat lemma-k --p 5,7 --axis 2 --j 5".split())
    code, out, err = run_cli(capsys, *"singcat lemma-k --p 5,7 --axis 2 --j 6".split())
    assert (code, out) == (2, "")
    assert err == "error: lemma-k degree count j = 6 exceeds the limit 5\n"


def test_singcat_suite_sequence_degree_limit_is_inclusive(capsys, monkeypatch):
    monkeypatch.setattr(bpsing.cli, "MAX_SEQUENCE_DEGREES", 27)
    code, out, _ = run_cli(capsys, "verify", "--suite", "singcat", "--p", "7")
    assert code == 0 and out.endswith("verify: PASS\n")
    code, out, err = run_cli(capsys, "verify", "--suite", "singcat", "--p", "8")
    assert (code, out) == (2, "")
    assert err == "error: short-exact-sequences degree count 35 exceeds the limit 27\n"


def _no_resolution(ring, gens):
    raise AssertionError(f"a resolution over {ring} was built before the size check")


def test_resolution_builders_refuse_huge_resolutions_before_building(capsys, monkeypatch):
    # a long resolution of two variables and the suite's short one of eight
    # cost alike per differential entry, so one count bounds both commands
    assert bpsing.singcat.MAX_RESOLUTION_ENTRIES == 2**15
    monkeypatch.setattr(bpsing.singcat, "_form_complex", _no_resolution)
    for argv, count in [
        ("singcat resolution --p 2,3 --length 10000", 39998),
        ("singcat resolution --p 2,3 --length 10000000000", 39999999998),
        ("verify --suite singcat --p 2,2,2,2,2,2,2,2", 133728),
    ]:
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == f"error: resolution differential entry count {count} exceeds the limit 32768\n"


def test_resolution_entry_limit_is_inclusive(capsys, monkeypatch):
    # (3,4,5) to level -9 has 127 entries, the suite's (3,3,3) resolution 95
    monkeypatch.setattr(bpsing.singcat, "MAX_RESOLUTION_ENTRIES", 127)
    code, out, _ = run_cli(capsys, "singcat", "resolution", "--p", "3,4,5", "--length", "9")
    assert code == 0 and "validation: PASS" in out
    code, out, _ = run_cli(capsys, "verify", "--suite", "singcat", "--p", "3,3,3")
    assert code == 0 and out.endswith("verify: PASS\n")
    monkeypatch.setattr(bpsing.singcat, "_form_complex", _no_resolution)
    for argv, count in [
        ("singcat resolution --p 3,4,5 --length 10", 143),
        ("verify --suite singcat --p 2,2,2,2", 408),
    ]:
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == f"error: resolution differential entry count {count} exceeds the limit 127\n"


def _no_scan(*args):
    raise AssertionError("a window was scanned before the size check")


def test_window_scans_refuse_huge_windows_before_any_rank(capsys, monkeypatch):
    # the count of z-degrees and monomials stops one past the limit, inside a
    # z-degree too, so a huge window is refused at once, for one variable
    # too, whose ring is finite
    assert bpsing.singcat.MAX_WINDOW_SIZE == 2**13
    monkeypatch.setattr(bpsing.singcat, "_scan_pieces", _no_scan)
    monkeypatch.setattr(bpsing.singcat, "quotient_by_variables", _no_scan)
    for argv, count in [
        ("singcat resolution --p 3,4,5 --length 9 --window 1000000000", 8193),
        ("singcat resolution --p 7 --length 3 --window 1000000000", 8193),
        # the suite took 55 s before the limit, on its window of 2 ell = 1020
        ("verify --suite singcat --p 2,2,2,2,2,2,255", 8193),
    ]:
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        window = argv.split()[-1] if "--window" in argv else 1020
        assert err == (
            f"error: window {window} covers at least {count} z-degrees and monomials, above the limit 8192\n"
        )
    # lemma-k counts its window of 2 ell at j = p_axis, before the ring quotient
    monkeypatch.setattr(bpsing.singcat, "MAX_WINDOW_SIZE", 40)
    for argv, window in [("singcat lemma-k --p 3,4 --axis 2 --j 4", 24),
                         ("singcat lemma-k --p 2,2,2,2,2,2,2 --axis 1 --j 2", 4)]:
        assert run_cli(capsys, *argv.split()) == (2, "", (
            f"error: window {window} covers at least 41 z-degrees and monomials, above the limit 40\n"
        ))
    # below j = p_axis lemma-k does not read the window
    code, _, _ = run_cli(capsys, *"singcat lemma-k --p 3,4 --axis 2 --j 3".split())
    assert code == 0


def test_many_variables_are_refused_by_the_window_not_the_stack(capsys):
    # 1200 variables overflowed the recursive monomial enumeration; lemma-k
    # also refuses its window before it builds the sequence
    p = ",".join(["2"] * 1200)
    for argv in [f"singcat resolution --p {p} --length 1", f"singcat lemma-k --p {p} --axis 1 --j 2"]:
        assert run_cli(capsys, *argv.split()) == (
            2, "", "error: window 4 covers at least 8193 z-degrees and monomials, above the limit 8192\n"
        )


def test_long_tensor_chains_build_without_overflowing_the_stack(capsys):
    # padding with x^2 summands (Knoerrer stabilization) gives a chain of 1000
    # tensor factors, whose pending tables were built one stack level each
    p = ",".join(["2"] * 1000)
    labels = [str((1,) * 1000)]
    code, out, err = run_cli(capsys, "category", "--p", p, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["objects"] == labels
    code, out, err = run_cli(capsys, "fukaya", "--p", p, "--verify")
    assert (code, err) == (0, "")
    assert out.endswith("verification: PASS\n")
    code, out, err = run_cli(capsys, "verify", "--suite", "fukaya", "--p", p, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["ok"] is True


def test_lemma_k_text_names_the_first_failing_degree(capsys, monkeypatch):
    # maps that drop their matrices are zero maps, which still validate
    real = bpsing.singcat.ModuleMap
    monkeypatch.setattr(bpsing.singcat, "ModuleMap", lambda src, tgt, mats: real(src, tgt, {}))
    code, out, err = run_cli(capsys, *"singcat lemma-k --p 2,3 --axis 2 --j 2".split())
    assert (code, err) == (1, "")
    assert out == (
        "p: (2, 3)  axis: 2  j: 2\n"
        "sequence: NOT exact (2 degrees checked)\n"
        "first failure in degree (0, 0, 0)\n"
        "  projection not surjective in degree (0, 0, 0)\n"
        "  kernel does not match image in degree (0, 0, 0)\n"
        "  inclusion not injective in degree (0, 1, 0)\n"
        "  kernel does not match image in degree (0, 1, 0)\n"
    )


def test_window_limit_is_inclusive(capsys, monkeypatch):
    # (3,4) up to z = 24, its default window 2 ell, covers 25 z-degrees and 22 monomials
    monkeypatch.setattr(bpsing.singcat, "MAX_WINDOW_SIZE", 47)
    for argv in ["singcat resolution --p 3,4 --length 4", "singcat lemma-k --p 3,4 --axis 2 --j 4",
                 "verify --suite singcat --p 3,4"]:
        code, _, _ = run_cli(capsys, *argv.split())
        assert code == 0, argv
    monkeypatch.setattr(bpsing.singcat, "_scan_pieces", _no_scan)
    monkeypatch.setattr(bpsing.singcat, "quotient_by_variables", _no_scan)
    code, out, err = run_cli(capsys, *"singcat resolution --p 3,4 --length 4 --window 25".split())
    assert (code, out) == (2, "")
    assert err == "error: window 25 covers at least 48 z-degrees and monomials, above the limit 47\n"
    # a resolution built without a window is refused by the certification itself
    for certify in [lambda: validate_resolution(bp_resolution((3, 4), 4), 25),
                    lambda: koszul_perfect_check((3, 4), 25)]:
        with pytest.raises(ValueError) as err:
            certify()
        assert str(err.value) == "window 25 covers at least 48 z-degrees and monomials, above the limit 47"
    # lemma-k's window is 2 ell, refused one below its size
    monkeypatch.setattr(bpsing.singcat, "MAX_WINDOW_SIZE", 46)
    assert run_cli(capsys, *"singcat lemma-k --p 3,4 --axis 2 --j 4".split()) == (
        2, "", "error: window 24 covers at least 47 z-degrees and monomials, above the limit 46\n"
    )


def _scan_cells_error(levels, size, limit):
    return (f"error: scan of {levels} levels x {size} z-degrees and monomials = {levels * size}"
            f" exceeds the limit {limit}\n")


def test_resolution_scans_refuse_levels_times_window_before_any_rank(capsys, monkeypatch):
    # each factor passes its own limit, but the scan costs about their product:
    # length 8191 at window 4000 had not finished after two minutes
    assert bpsing.singcat.MAX_SCAN_CELLS == 2**18
    monkeypatch.setattr(bpsing.singcat, "_scan_pieces", _no_scan)
    for length, window, size in [(8191, 4000, 8001), (100, 4000, 8001), (33, 4000, 8001)]:
        argv = f"singcat resolution --p 2,3 --length {length} --window {window}"
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == _scan_cells_error(length, size, 2**18)
    # a resolution built without a window is refused by the certification itself
    with pytest.raises(ValueError) as err:
        validate_resolution(bp_resolution((2, 3), 33), 4000)
    assert f"error: {err.value}\n" == _scan_cells_error(33, 8001, 2**18)
    # the largest scans that stay admitted reach the scan
    reached = []
    monkeypatch.setattr(bpsing.singcat, "_scan_pieces", lambda *args: reached.append(args) or [])
    for argv in ["singcat resolution --p 2,3 --length 32 --window 4000",
                 "singcat resolution --p 3,4,5 --length 9 --window 938"]:
        code, _, _ = run_cli(capsys, *argv.split())
        assert code == 0, argv
    assert len(reached) == 2


def test_resolution_command_refuses_its_scan_before_building(capsys, monkeypatch):
    # each passes the entry limit, and the resolution of length 8191 took 2 s
    # to build before its scan was refused; the entry count is still refused first
    monkeypatch.setattr(bpsing.singcat, "_form_complex", _no_resolution)
    for argv, err in [
        ("--p 2,3 --length 8191 --window 4000", _scan_cells_error(8191, 8001, 2**18)),
        ("--p 3,4,5 --length 9 --window 1000000000",
         "error: window 1000000000 covers at least 8193 z-degrees and monomials,"
         " above the limit 8192\n"),
        ("--p 2,3 --length 10000000000 --window 1000000000",
         "error: resolution differential entry count 39999999998 exceeds the limit 32768\n"),
    ]:
        assert run_cli(capsys, "singcat", "resolution", *argv.split()) == (2, "", err)


def test_scan_cell_limit_is_inclusive(capsys, monkeypatch):
    # (3,4) up to z = 24, its default window 2 ell, covers 47 z-degrees and
    # monomials, and the suite's resolution of length 6 scans 6 levels
    monkeypatch.setattr(bpsing.singcat, "MAX_SCAN_CELLS", 282)
    for argv in ["singcat resolution --p 3,4 --length 6", "verify --suite singcat --p 3,4"]:
        code, _, _ = run_cli(capsys, *argv.split())
        assert code == 0, argv
    monkeypatch.setattr(bpsing.singcat, "_scan_pieces", _no_scan)
    for argv, levels, size in [("singcat resolution --p 3,4 --length 7", 7, 47),
                               ("singcat resolution --p 3,4 --length 6 --window 25", 6, 49)]:
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert err == _scan_cells_error(levels, size, 282)
    # a resolution built without a window is refused by the certification itself
    with pytest.raises(ValueError) as err:
        validate_resolution(bp_resolution((3, 4), 7), 24)
    assert f"error: {err.value}\n" == _scan_cells_error(7, 47, 282)


def test_category_refuses_huge_object_counts_before_building(capsys, monkeypatch):
    def unreachable(m):
        raise AssertionError(f"a linear quiver with {m} objects was built before the check")

    # without the check tensor_bp would build a dict of 9999999998 homs
    monkeypatch.setattr(bpsing.dgcat, "a_category", unreachable)
    code, out, err = run_cli(capsys, "category", "--p", "10000000000")
    assert code == 2
    assert out == ""
    assert err == f"error: object count prod(p_i - 1) = 9999999999 exceeds the limit {MAX_RANK}\n"
    monkeypatch.undo()
    # the stacked copies of a suspension step are bounded the same way
    for argv, count in [
        (("fukaya", "--p", "2,10000000000"), 10000000000),
        (("suspend", "--p", "2,3", "--k", "10000000000"), 20000000000),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: object count {count} exceeds the limit {MAX_RANK}\n"


def test_oversized_composite_tables_exit_2_in_a_memory_capped_child():
    # tables of this size would need gigabytes or more, so the commands run
    # in a child whose address space is capped at 1 GB, as ``ulimit -v`` does
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    for argv, count in [
        (("fukaya", "--p", "2,4000"), 10674668000),
        (("suspend", "--p", "2", "--k", "4000"), 10674668000),
        (("category", "--p", ",".join(["3"] * 12)), 4**12),
    ]:
        result = subprocess.run(
            [sys.executable, "-m", "bpsing", *argv],
            capture_output=True, text=True, timeout=30, preexec_fn=cap,
        )
        assert (result.returncode, result.stdout) == (2, ""), result.stderr
        assert result.stderr == f"error: composite count {count} exceeds the limit {2**20}\n"


def test_verify_fukaya_builds_the_tensor_model_once(capsys, monkeypatch):
    calls = []

    def counting_tensor_bp(p):
        calls.append(p)
        return tensor_bp(p)

    monkeypatch.setattr(bpsing.cli, "tensor_bp", counting_tensor_bp)
    monkeypatch.setattr(bpsing.suspension, "tensor_bp", counting_tensor_bp)
    code, out, _ = run_cli(capsys, "verify", "--p", "3,3,3", "--suite", "fukaya")
    assert code == 0
    assert "PASS gauge-vs-tensor" in out
    assert calls == [(3, 3, 3)]


def test_verify_lattice_builds_the_tensor_model_once(capsys, monkeypatch):
    calls = []

    def counting_tensor_bp(p):
        calls.append(p)
        return tensor_bp(p)

    monkeypatch.setattr(bpsing.lattice, "tensor_bp", counting_tensor_bp)
    code, out, _ = run_cli(capsys, "verify", "--p", "3,3,3", "--suite", "lattice")
    assert code == 0
    assert "PASS euler-gram-shape" in out
    assert calls == [(3, 3, 3)]


def test_verify_singcat_one_variable(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "7", "--suite", "singcat", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    checks = {c["name"]: c for c in data["suites"][0]["checks"]}
    # the one-variable twist grid runs out before 50 twists outside the monoid:
    # its 27 such vectors have 16 distinct normal forms (a, b), b in {-3, -2, -1}
    assert checks["ext-vanishing"] == {"name": "ext-vanishing", "ok": True, "detail": {"scanned": 16}}
    code, out, _ = run_cli(capsys, "verify", "--p", "7", "--suite", "singcat")
    assert code == 0
    assert out.endswith("verify: PASS\n")


def test_usage_errors_and_help(capsys):
    assert run_cli(capsys)[0] == 2
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "category", "--p", "2,3", "--threads", "0")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2


def test_module_entry_point_and_determinism():
    cmd = [sys.executable, "-m", "bpsing", "verify", "--p", "2,3", "--suite", "singcat", "--json"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    json.loads(first.stdout)
    plain = subprocess.run(
        [sys.executable, "-m", "bpsing", "orlov", "--p", "2,2"], capture_output=True, text=True
    )
    assert plain.returncode == 0
    assert "Z/2" in plain.stdout


def test_cli_leaves_the_tower_checks_to_suspension():
    """cli reaches the tower and its checks only through ``suspension``, so
    ``fukaya --verify``, ``suspend --verify`` and ``verify --suite fukaya``
    share one body."""
    tree = ast.parse(inspect.getsource(bpsing.cli))
    referenced = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            referenced.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            referenced.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
    tower = {"validate", "formality_check", "square_sign_audit", "gauge_isomorphic", "suspension_tower"}
    assert not referenced & tower, referenced & tower


# stdout sha256 of commands the benchmark does not pin, recorded before the
# handlers returned their output to ``run``
CLI_PINS = {
    "category --p 2,3": "e05af6626a11616a363395c647b683d9a7f636e1cd3bb695980cdf30e9940de6",
    "suspend --p 2,3 --k 3": "57d07c4ae56604aec89528211cbad53c7228d5d3fdefb5a9ee5b9276caa759d9",
    "suspend --p 2,3 --k 3 --verify --json": "c3ed834a70d4b3f236220f8629407e6023310957b956d5daed2d04ae04aa6f42",
    "fukaya --p 3,3": "e0472a5997780235fb180aa0ace5c7af7971125fcffb2459d4f296ccf643cdbc",
    "fukaya --p 2,3 --json": "bd769768c7271bd39dd9b7c4c8adaa1996bb3312bd8abb4e32621dbae5840ccb",
    "lattice --p 2,3,3": "caf2101a5a8cd6d26dc6a4a990ae7af036b4eb6387acd773ccb0e717fb040a3d",
    "lattice --p 3,3 --orientation Et-E": "0a3324261cc1ef66ffc38a75dcf693f8ca40f949a7f9e67b2aa437fc8c416be1",
    "lattice --p 3,3 --orientation Et-E --json": "7c704857d4f25c45e15d024bee886f37a0017e6f964c2625520f3c9df0798c28",
    "orlov --p 2,3,7": "8e9376addcce09cafa5e38bff701358597dfb46a420a37fadfdf679bc805d31f",
    "orlov --p 3,3,3 --json": "c70d312ca21b7adf1f1be8100f8e79ce34030ded4ef0ad95f53a50399bc70b9c",
    "orlov --p 2,4,4": "e65d98edf3a5ab861b389395c2ca27039217f32d3c0e9238de550793c0aea693",
    "orlov --p 2,2,2,2 --json": "7d18abc2a05b6ca256a2c0637cdbecf992488b2358fbfeeb8abcb0a8f8d16ff7",
    "orlov --p 6,6,6,6 --json": "3ee8a0df796060b7e6c191e6d5710729ce6481cb29501f9d5354502a817b049d",
    "orlov --p 100000": "71b851e5c328d12907e18a02e925270a126300ba8248a8c1239df287df4b7d29",
    "singcat ext --p 3,4 --source -1,0 --target 0,0": "97b5c393307338c81c25741bfe1e83eb2f53f5113a13295a723308cbc51ce02e",
    "singcat ext --p 3,4 --source -1,0 --target 0,0 --json": "542f4f8a2a9a63b97480e583bc42e3f8a63019df5adc1cba935b1d36a6bda180",
    "singcat ext --p 3,4 --source 1,0 --target 0,0": "50fc10920c02e432cf2897cee6067fe1c0b399ecf300977822521caaa5be50e5",
    # recorded while Ext answered one pair apart from its rows: a target
    # outside the index set must still print "not applicable"
    "singcat ext --p 3,4 --source 0,0 --target 1,0": "73351f8d901324304879a45c9b0c0d45b086cb70a628857cfaf8ae592c353e7f",
    "singcat ext --p 3,4 --source 0,0 --target 1,0 --json": "cf70e333a9b4d08e9de32fb8470523c9c0ed874eacb673f3559d8dc7c5fd4ee9",
    "singcat resolution --p 3,4 --length 4 --json": "25487252faabc96a63ef7fa954cac5e5b0539aabe26ab13a143b1011be2061cc",
    "singcat lemma-k --p 2,3 --axis 2 --j 3": "956bb7238e0cab0295207556bed0919e82b965bacef39f4379182d07a5161be8",
    "singcat lemma-k --p 3,4 --axis 2 --j 2 --json": "b3b0a7f19507bd5d8b1f154c68406d60e235a84d007ff43cbca3ac0614a1034d",
    "verify --suite fukaya --p 3,3": "619a24c28155895c5c15fcfabbfd7aa7e3a6d9782247980e4ec0a3308109f113",
    "verify --suite lattice --p 3,3 --json": "c530d299750e0b277a8e42822e017a689cfd41177461091bad812dd6e28fa071",
    "verify --suite all --p 2,3 --json": "2719d44adf82227e6eb37c5457911bc024129f0eaa22c7956572f9536bbd52f5",
    # recorded before the gauge comparison matched bases through one map
    "fukaya --p 3,3,3 --json": "b9e3efde50a027b3abcbed8b411870b65b6d135951c356834178606cd843066e",
    "suspend --p 3,3 --k 4 --verify --json": "19282544ebaa3b3158e3e04ba2445c4111fcfa9b34972b867ded02692d24d42a",
    "verify --suite fukaya --p 2,2,2,2 --json": "5b1e78a2df28c40bb4c54c56fdaca3c9e50c338de16993d24deb2867524a2e8e",
    "fukaya --p 2,2,2,2,2 --verify": "438765784cf285c51eb14db978b00e168e0b10d1dbf1eeda66649a37640da054",
    # recorded while every tower coefficient was still a Fraction; str(2) ==
    # str(Fraction(2)), so integral coefficients stored as int print the same
    "fukaya --p 2,3,4 --json": "268e0e101e62b787b087c8d82eea2a01e5aab9817f92d9d1b462f90d54f98e42",
    "suspend --p 3,3,3 --k 3 --json": "2b83ddfd60a7ff997824cdd4cb77989859a4f8ef5f14a7c08596e70dff3a6fcb",
    "category --p 3,3,3 --json": "b9e3efde50a027b3abcbed8b411870b65b6d135951c356834178606cd843066e",
    # recorded before the comparison stopped repeating the basis labels; one
    # variable's forms agree, so this prints the "(none)" line
    "lattice --p 2": "4b1523a33d211d79a1cd525f8e160f9053ff48074c989df3e610b8ce378038ec",
}


@pytest.mark.parametrize("command", sorted(CLI_PINS))
def test_unbenchmarked_command_prints_the_pinned_bytes(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_PINS[command]


@pytest.mark.parametrize(
    "command, err",
    [
        ("suspend --p 2,3 --k 1", "error: k must be >= 2\n"),
        ("fukaya --p 1,3", "error: exponents must be >= 2\n"),
        ("suspend --p 1,3 --k 1", "error: exponents must be >= 2\n"),
        ("singcat ext --p 3,4 --source 0 --target 0,0", "error: --source must have 2 entries\n"),
        ("singcat ext --p 1,4 --source 0 --target 0,0", "error: exponents must be >= 2\n"),
    ],
)
def test_usage_errors_check_p_first_and_print_nothing(capsys, command, err):
    assert run_cli(capsys, *command.split()) == (2, "", err)


def test_only_run_parses_p_and_writes_stdout():
    """Handlers take ``(args, p)`` and return their output, so how a result
    becomes stdout bytes is decided in ``run`` alone."""
    tree = ast.parse(inspect.getsource(bpsing.cli))
    outside_run = set()
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        if fn.name.startswith("_cmd_"):
            assert [a.arg for a in fn.args.args] == ["args", "p"], fn.name
        if fn.name == "run":
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute) and node.attr == "stdout":
                outside_run.add((fn.name, "sys.stdout"))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print":
                if not any(k.arg == "file" for k in node.keywords):
                    outside_run.add((fn.name, "print"))
            elif isinstance(node, ast.Name) and node.id == "_parse_p":
                outside_run.add((fn.name, "_parse_p"))
    assert not outside_run, sorted(outside_run)
