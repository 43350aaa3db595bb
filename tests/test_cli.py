"""Command-line interface: schemas, exit codes, deterministic output."""

import json
import resource
import subprocess
import sys

import pytest

import bpsing.cli
import bpsing.dgcat
import bpsing.lattice
import bpsing.suspension
from bpsing.cli import main
from bpsing.dgcat import from_json_dict, tensor_bp
from bpsing.lattice import MAX_RANK
from helpers import drop_one_composite


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
    assert "window must be nonnegative" in err


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
