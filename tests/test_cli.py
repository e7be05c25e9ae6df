import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grpder import (
    GroupRingElement,
    identity_endo,
    inner_derivation,
    standard_group,
)
from grpder.cli import main
from grpder.rings import QQ, ZZ
from grpder.serialization import (
    derivation_to_json,
    dumps_canonical,
    endo_to_json,
    group_to_json,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_group(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(dumps_canonical(group_to_json(standard_group(name))))
    return str(path)


def test_group_make(capsys):
    code, out, _ = run(capsys, "group", "make", "--name", "C2")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 2
    assert data["table"] == [[0, 1], [1, 0]]


def test_group_make_unknown_name(capsys):
    code, _, err = run(capsys, "group", "make", "--name", "NoSuch")
    assert code == 2
    assert "unknown group name" in err


def test_group_info(capsys, tmp_path):
    path = write_group(tmp_path, "Q8")
    code, out, _ = run(capsys, "group", "info", path)
    assert code == 0
    data = json.loads(out)
    assert data["center_size"] == 2
    assert data["class_count"] == 5


def test_group_product(capsys, tmp_path):
    left = write_group(tmp_path, "C2")
    right = write_group(tmp_path, "C2")
    out_file = tmp_path / "klein.json"
    code, out, _ = run(capsys, "group", "product", left, right, "-o", str(out_file))
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["order"] == 4


def test_h1_s3_rational(capsys, tmp_path):
    path = write_group(tmp_path, "S3")
    code, out, _ = run(capsys, "h1", "--group", path, "--field", "Q")
    assert code == 0
    data = json.loads(out)
    assert data["h1"] == 0
    assert data["derivation_dim"] == 3
    assert data["sigma_central"] is True


def test_h1_c2_char_two(capsys, tmp_path):
    path = write_group(tmp_path, "C2")
    code, out, _ = run(capsys, "h1", "--group", path, "--field", "F2")
    assert code == 0
    assert json.loads(out)["h1"] == 2


def test_h1_s3_char_five(capsys, tmp_path):
    path = write_group(tmp_path, "S3")
    code, out, _ = run(capsys, "h1", "--group", path, "--field", "F5")
    assert code == 0
    assert json.loads(out)["h1"] == 0


def test_h1_expectation_mismatch_exits_one(capsys, tmp_path):
    path = write_group(tmp_path, "S3")
    code, _, err = run(
        capsys, "h1", "--group", path, "--field", "Q", "--expect-h1", "7"
    )
    assert code == 1
    assert "expected 7" in err


def test_h1_bad_field_exits_two(capsys, tmp_path):
    path = write_group(tmp_path, "S3")
    code, _, _ = run(capsys, "h1", "--group", path, "--field", "F4")
    assert code == 2
    code, _, _ = run(capsys, "h1", "--group", path, "--field", "R")
    assert code == 2


def test_h1_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "h1", "--group", "nowhere.json", "--field", "Q")
    assert code == 2
    assert "not found" in err


def test_h1_output_is_byte_stable(capsys, tmp_path):
    path = write_group(tmp_path, "D4")
    _, out1, _ = run(capsys, "h1", "--group", path, "--field", "Q")
    _, out2, _ = run(capsys, "h1", "--group", path, "--field", "Q")
    assert out1 == out2


def test_inner_check_integral_fixture(capsys, tmp_path):
    s3 = standard_group("S3")
    path = write_group(tmp_path, "S3")
    ident = identity_endo(s3, ZZ)
    delta = inner_derivation(GroupRingElement(s3, ZZ, [1, 0, -2, 0, 1, 3]), ident, ident)
    delta_path = tmp_path / "delta.json"
    delta_path.write_text(dumps_canonical(derivation_to_json(delta)))
    code, out, _ = run(
        capsys,
        "inner-check",
        "--group", path,
        "--delta", str(delta_path),
        "--ring", "Z",
    )
    assert code == 0
    data = json.loads(out)
    assert data["inner"] is True
    assert data["gcd_criterion"] is True
    assert data["agreement"] is True


def test_inner_check_zero_map(capsys, tmp_path):
    s3 = standard_group("S3")
    path = write_group(tmp_path, "S3")
    ident = identity_endo(s3, QQ)
    delta = inner_derivation(GroupRingElement.zero(s3, QQ), ident, ident)
    delta_path = tmp_path / "zero.json"
    delta_path.write_text(dumps_canonical(derivation_to_json(delta)))
    code, out, _ = run(
        capsys,
        "inner-check",
        "--group", path,
        "--delta", str(delta_path),
        "--ring", "Q",
    )
    assert code == 0
    data = json.loads(out)
    assert data["inner"] is True
    assert all(v == 0 for v in data["witness"]["coeffs"])


def test_inner_check_invalid_derivation_exits_one(capsys, tmp_path):
    c2 = standard_group("C2")
    path = write_group(tmp_path, "C2")
    bogus = {
        "images": [
            {"ring": "Z", "coeffs": [0, 0]},
            {"ring": "Z", "coeffs": [1, 0]},
        ]
    }
    delta_path = tmp_path / "bogus.json"
    delta_path.write_text(dumps_canonical(bogus))
    code, _, err = run(
        capsys,
        "inner-check",
        "--group", path,
        "--delta", str(delta_path),
        "--ring", "Z",
    )
    assert code == 1
    assert "check failed" in err


def test_zero_denominator_coefficient_exits_two(capsys, tmp_path):
    path = write_group(tmp_path, "C2")
    sigma = {
        "images": [
            {"ring": "Q", "coeffs": [1, 0]},
            {"ring": "Q", "coeffs": ["1/0", 0]},
        ]
    }
    sigma_path = tmp_path / "sigma.json"
    sigma_path.write_text(dumps_canonical(sigma))
    code, out, err = run(
        capsys, "h1", "--group", path, "--sigma", str(sigma_path), "--field", "Q"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "zero denominator" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "table",
    [
        [[0, True], [True, 0]],
        [[0, 1], [1, 0.0]],
        [[0, 1.5], [1, 0]],
        [[0, "1"], ["1", 0]],
        [[0, 1], "10"],
    ],
    ids=["bool", "integral-float", "float", "digit-string", "string-row"],
)
def test_group_info_rejects_non_integer_entries(capsys, tmp_path, table):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"table": table}))
    code, out, err = run(capsys, "group", "info", str(path))
    assert code == 2
    assert out == ""
    assert "not an integer" in err or "not a list" in err
    assert len(err.strip().splitlines()) == 1


def test_gcd_criterion_command(capsys, tmp_path):
    s3 = standard_group("S3")
    path = write_group(tmp_path, "S3")
    ident = identity_endo(s3, ZZ)
    delta = inner_derivation(GroupRingElement(s3, ZZ, [0, 1, 0, 2, 0, 0]), ident, ident)
    delta_path = tmp_path / "delta.json"
    delta_path.write_text(dumps_canonical(derivation_to_json(delta)))
    code, out, _ = run(
        capsys, "gcd-criterion", "--group", path, "--delta", str(delta_path)
    )
    assert code == 0
    assert json.loads(out)["gcd_criterion"] is True


def test_inner_check_with_endo_files(capsys, tmp_path):
    q8 = standard_group("Q8")
    path = write_group(tmp_path, "Q8")
    from grpder import conjugation_endo

    conj = conjugation_endo(GroupRingElement.basis(q8, ZZ, 2))
    sigma_path = tmp_path / "sigma.json"
    sigma_path.write_text(dumps_canonical(endo_to_json(conj)))
    ident = identity_endo(q8, ZZ)
    delta = inner_derivation(GroupRingElement(q8, ZZ, [0, 1, 0, 0, 2, 0, 0, 0]), conj, ident)
    delta_path = tmp_path / "delta.json"
    delta_path.write_text(dumps_canonical(derivation_to_json(delta)))
    code, out, _ = run(
        capsys,
        "inner-check",
        "--group", path,
        "--sigma", str(sigma_path),
        "--delta", str(delta_path),
        "--ring", "Z",
    )
    assert code == 0
    assert json.loads(out)["agreement"] is True


def test_counterexample_level_one(capsys):
    code, out, _ = run(capsys, "counterexample", "--base", "Q8", "--n", "1")
    assert code == 0
    data = json.loads(out)
    assert data["delta_valid"] is True
    assert data["witness_full"] is not None
    assert data["sigma_by"] == "i"


def test_counterexample_level_two(capsys):
    code, out, _ = run(
        capsys, "counterexample", "--base", "Q8", "--n", "2", "--sigma-by", "i"
    )
    assert code == 0
    data = json.loads(out)
    assert data["witness_full"] is not None
    assert data["restricted_support_feasible"] is False


def test_counterexample_cap_exits_two(capsys):
    code, _, err = run(capsys, "counterexample", "--base", "Q8", "--n", "99")
    assert code == 2
    assert "cap" in err


def test_verify_paper_fast_subset(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify-paper", "--criteria", "2,6,9", "--json", str(report_path)
    )
    assert code == 0
    assert "summary:" in out
    data = json.loads(report_path.read_text())
    assert data["summary"]["failed"] == 0
    assert data["summary"]["total"] == len(data["cases"])
    claims = [c["claim"] for c in data["cases"]]
    assert claims == sorted(claims, key=lambda s: s.split(".")[0])


def test_verify_paper_unknown_criterion_exits_two(capsys):
    code, _, err = run(capsys, "verify-paper", "--criteria", "42")
    assert code == 2
    assert "unknown criteria" in err


def test_verify_paper_failure_exits_one(capsys, monkeypatch):
    import grpder.verification as verification

    def failing(seed, *, cancel=None):
        return [
            verification.VerificationCase(
                claim="2.synthetic", group="-", ring="-", params="-",
                expected="0", observed="1",
            )
        ]

    monkeypatch.setitem(
        verification.CRITERIA, "2", ("synthetic failing criterion", failing)
    )
    code, out, err = run(capsys, "verify-paper", "--criteria", "2")
    assert code == 1
    assert "FAIL" in out
    assert "check failed" in err


def test_verify_paper_output_is_byte_stable(capsys):
    _, out1, _ = run(capsys, "verify-paper", "--criteria", "2,9")
    _, out2, _ = run(capsys, "verify-paper", "--criteria", "2,9")
    assert out1 == out2


def test_usage_error_exit_code(capsys):
    assert main(["group", "make"]) == 2  # missing --name
    assert main(["nope"]) == 2


def test_counterexample_unknown_label_exits_two(capsys):
    code, out, err = run(
        capsys, "counterexample", "--base", "Q8", "--n", "2", "--sigma-by", "nope"
    )
    assert code == 2
    assert out == ""
    assert err == "error: unknown element label 'nope'\n"


@pytest.mark.parametrize(
    "doc",
    [
        {"order": 2.7, "table": [[0, 1], [1, 0]], "labels": [1, None]},
        {"order": True, "table": [[0]]},
        {"table": [[0, 1], [1, 0]], "labels": ["e", "e"]},
        {"table": [[0, 1], [1, 0]], "labels": "ab"},
    ],
    ids=["float-order", "bool-order", "duplicate-labels", "string-labels"],
)
def test_group_info_rejects_bad_order_and_labels(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "group", "info", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid group file")
    assert len(err.strip().splitlines()) == 1


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 5) | st.floats(allow_nan=False) | st.text(max_size=3)
)
_JSON = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12,
)
# Documents shaped like a group file, so that most examples reach past the
# "no table" check into the table, order and label checks.
_GROUP_LIKE = st.fixed_dictionaries(
    {"table": st.lists(st.lists(st.integers(0, 3) | _JSON_SCALARS, max_size=4), max_size=4) | _JSON},
    optional={"order": _JSON_SCALARS, "labels": st.lists(_JSON_SCALARS, max_size=4) | _JSON},
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_JSON | _GROUP_LIKE)
def test_group_info_on_arbitrary_json_exits_zero_or_two(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "group.json"
        path.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["group", "info", str(path)])
    assert code in (0, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""
