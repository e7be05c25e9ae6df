import contextlib
import hashlib
import io
import json
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grpder import (
    GroupRingElement,
    identity_endo,
    inner_derivation,
    standard_group,
)
from grpder.cli import main
from grpder.rings import GF, QQ, ZZ
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


@settings(max_examples=40, deadline=None, derandomize=True)
@given(*[st.lists(st.text(alphabet="ab,()\\", max_size=3), min_size=2, max_size=2, unique=True)] * 2)
@example(["a", "a,b"], ["b,c", "c"])
def test_group_product_of_labelled_groups_is_readable(left, right):
    # Factor labels with commas or parentheses once produced duplicate
    # product labels, which "group info" then rejected.
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"{side}.json" for side in ("left", "right", "product")]
        for path, labels in zip(paths, (left, right)):
            path.write_text(json.dumps({"table": [[0, 1], [1, 0]], "labels": labels}))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["group", "product", str(paths[0]), str(paths[1]), "-o", str(paths[2])]) == 0
            assert main(["group", "info", str(paths[2])]) == 0
        assert err.getvalue() == ""
        labels = json.loads(paths[2].read_text())["labels"]
        assert len(set(labels)) == 4


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
    for token in ("F4", "R", "Fp", "F", "", "F5x", "Z", "F02", "F\u0663"):
        code, out, err = run(capsys, "h1", "--group", path, "--field", token)
        assert code == 2
        assert out == "" and err.startswith("error: ")
        assert len(err.splitlines()) == 1
    code, out, err = run(capsys, "inner-check", "--group", path, "--delta", "unused.json", "--ring", "Fp")
    assert code == 2 and "requires a modulus" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("route", ["field", "element"])
def test_large_modulus_exits_two_quickly(capsys, tmp_path, route):
    # A prime: trial division up to its square root used to take about 0.7 s,
    # and a 20-digit prime minutes.
    p = 10**14 + 31
    path = write_group(tmp_path, "C2")
    if route == "field":
        argv = ["h1", "--group", path, "--field", f"F{p}"]
    else:
        sigma_path = tmp_path / "sigma.json"
        images = [{"ring": "Fp", "p": p, "coeffs": [1, 0]}, {"ring": "Fp", "p": p, "coeffs": [0, 1]}]
        sigma_path.write_text(json.dumps({"images": images}))
        argv = ["h1", "--group", path, "--sigma", str(sigma_path), "--field", "F5"]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "below 2^31" in err
    assert len(err.splitlines()) == 1


def test_h1_missing_file_exits_two(capsys):
    code, _, err = run(capsys, "h1", "--group", "nowhere.json", "--field", "Q")
    assert code == 2
    assert "not found" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["h1", "--group", "{dir}", "--field", "Q"],
        ["h1", "--group", "{s3}", "--sigma", "{dir}", "--field", "Q"],
        ["inner-check", "--group", "{s3}", "--delta", "{dir}", "--ring", "Q"],
        ["group", "product", "{dir}", "{s3}"],
        ["inner-check", "--group", "{s3}", "--delta", "{binary}", "--ring", "Q"],
        ["h1", "--group", "{nested}", "--field", "Q"],
        ["h1", "--group", "{s3}", "--field", "Q", "-o", "{dir}/missing-dir/out.json"],
        ["verify-paper", "--criteria", "2", "--json", "{dir}/missing-dir/x.json"],
    ],
    ids=["group-dir", "sigma-dir", "delta-dir", "product-dir", "binary", "nested", "output", "report"],
)
def test_unreadable_or_unwritable_path_exits_two(capsys, tmp_path, argv):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\x7fELF\xff\xfe\x00")
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000)
    paths = {"dir": str(tmp_path), "s3": write_group(tmp_path, "S3"), "binary": str(binary), "nested": str(nested)}
    code, _, err = run(capsys, *[arg.format(**paths) for arg in argv])
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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


@pytest.mark.parametrize("base", ["S3", "A4"])
def test_counterexample_bases_served_by_benchmark(capsys, base):
    code, out, _ = run(capsys, "counterexample", "--base", base, "--n", "2")
    assert code == 0
    assert json.loads(out)["restricted_support_feasible"] is False


@pytest.mark.parametrize(
    "base,digest",
    [
        ("Q8", "3c0c13d406204a3a09675cc6e92c19fb6f7c2db2ba05f7c40856a8109e65ee7b"),
        ("D4", "134b482b5dc56cb4b88d9172baf38384052c20a6672d9f9875cb35be2a046de4"),
    ],
)
def test_counterexample_output_is_pinned(capsys, base, digest):
    code, out, _ = run(capsys, "counterexample", "--base", base, "--n", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("base", ["C4", "C2xC2", "C1"])
def test_counterexample_abelian_base_exits_two(capsys, base):
    code, out, err = run(capsys, "counterexample", "--base", base, "--n", "2")
    assert code == 2
    assert out == ""
    assert err == "error: base group must be non-abelian\n"


def test_counterexample_cap_exits_two(capsys):
    code, _, err = run(capsys, "counterexample", "--base", "Q8", "--n", "99")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
@pytest.mark.parametrize(
    "argv",
    [["group", "make", "--name", "C2"], ["counterexample", "--base", "S3", "--n", "2"]],
    ids=["group-make", "counterexample"],
)
def test_malformed_max_order_exits_two(capsys, monkeypatch, value, argv):
    monkeypatch.setenv("GRPDER_MAX_ORDER", value)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: GRPDER_MAX_ORDER must be")


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

    def failing(seed):
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


@pytest.mark.parametrize("command", ["inner-check", "gcd-criterion"])
@pytest.mark.parametrize("images", [[], [{"ring": "Z", "coeffs": [0] * 6}] * 5], ids=["none", "five"])
def test_delta_with_wrong_image_count_exits_two(capsys, tmp_path, command, images):
    path = write_group(tmp_path, "S3")
    delta_path = tmp_path / "delta.json"
    delta_path.write_text(json.dumps({"images": images}))
    ring = ["--ring", "Z"] if command == "inner-check" else []
    code, out, err = run(capsys, command, "--group", path, "--delta", str(delta_path), *ring)
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid derivation file") and "one image per group basis element" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command", ["inner-check", "gcd-criterion", "h1"])
@pytest.mark.parametrize(
    ("doc", "message"),
    [
        ({"images": [{"ring": "Z"}, {"ring": "Z", "coeffs": [0, 1]}]}, "image 0 has no 'coeffs' field"),
        ({"images": [{"ring": "Z", "coeffs": [0, 0]}, {"coeffs": [0, 1]}]}, "image 1 has no 'ring' field"),
        ({"images": [{"ring": "Z", "coeffs": [0, 0]}, 7]}, "image 1 must be an object, got int"),
        ({"images": "ab"}, "'images' must be a list, got str"),
        ({"image": []}, "document has no 'images' field"),
        ([{"ring": "Z", "coeffs": [0, 0]}], "document must be an object with an 'images' list, got list"),
    ],
    ids=["no-coeffs", "no-ring", "int-image", "string-images", "no-images", "list-document"],
)
def test_malformed_map_document_names_the_field(capsys, tmp_path, command, doc, message):
    path = write_group(tmp_path, "C2")
    doc_path = tmp_path / "map.json"
    doc_path.write_text(json.dumps(doc))
    if command == "h1":
        argv, what = ["--sigma", str(doc_path), "--field", "Q"], "endomorphism"
        doc_path.write_text(json.dumps(doc).replace('"Z"', '"Q"'))
    else:
        argv, what = ["--delta", str(doc_path)] + (["--ring", "Z"] if command == "inner-check" else []), "derivation"
    code, out, err = run(capsys, command, "--group", path, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: invalid {what} file {doc_path}: {message}\n"


@pytest.mark.parametrize(
    "images",
    [
        [{"ring": ["F5"], "coeffs": [1, 0]}, {"ring": ["F5"], "coeffs": [0, 1]}],
        [{"ring": None, "coeffs": [1, 0]}, {"ring": None, "coeffs": [0, 1]}],
        [{"ring": "Fp", "p": 5.0, "coeffs": [1, 0]}, {"ring": "Fp", "p": 5.0, "coeffs": [0, 1]}],
        [{"ring": "Fp", "p": 5, "coeffs": "10"}, {"ring": "Fp", "p": 5, "coeffs": "01"}],
    ],
    ids=["list-token", "null-token", "float-modulus", "string-coeffs"],
)
def test_malformed_element_exits_two(capsys, tmp_path, images):
    path = write_group(tmp_path, "C2")
    sigma_path = tmp_path / "sigma.json"
    sigma_path.write_text(json.dumps({"images": images}))
    code, out, err = run(capsys, "h1", "--group", path, "--sigma", str(sigma_path), "--field", "F5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid endomorphism file")
    assert len(err.strip().splitlines()) == 1


_RING_TOKENS = st.sampled_from(["Z", "Q", "Fp", "F2", "F3", "F4", "F", "R"]) | _JSON_SCALARS | st.lists(_JSON_SCALARS, max_size=2)
_COEFFS = (
    st.integers(-2, 2)
    | st.sampled_from(["1/2", "-3", "1/0", "x", "2/4", "1e1000000", "1.5", " 3 ", "1_000"])
    | _JSON_SCALARS
)
# Element documents close to valid ones, so that most examples reach the
# endomorphism and Leibniz checks rather than stopping at the first key.
_ELEMENT = st.fixed_dictionaries(
    {"ring": _RING_TOKENS, "coeffs": st.lists(st.integers(0, 1) | _COEFFS, min_size=1, max_size=7) | _JSON},
    optional={"p": st.integers(-1, 7) | st.sampled_from([2**31 - 1, 10**14 + 31]) | _JSON_SCALARS},
) | _JSON
_MAP_DOC = st.fixed_dictionaries({"images": st.lists(_ELEMENT, max_size=7) | _JSON}) | _JSON


def _valid_map_doc(group_name, kind, ring):
    group = standard_group(group_name)
    token = ring.token
    n = group.order
    if kind == "endo":
        # Conjugation by the last basis element, a valid non-identity endomorphism.
        g = n - 1
        images = [GroupRingElement.basis(group, ring, group.table[group.table[group.inverse(g)][i]][g]) for i in range(n)]
    else:
        ident = identity_endo(group, ring)
        images = inner_derivation(GroupRingElement.basis(group, ring, n - 1), ident, ident).images
    ring_fields = {"ring": "Fp", "p": ring.characteristic} if token.startswith("F") else {"ring": token}
    return {"images": [{**ring_fields, "coeffs": ring.coeffs_to_json(img.coeffs)} for img in images]}


@st.composite
def _map_docs(draw, group_name, kind, ring):
    """Arbitrary documents, or a valid map document with one image or coefficient replaced."""
    if draw(st.integers(0, 3)) == 3:
        return draw(_MAP_DOC)
    doc = _valid_map_doc(group_name, kind, ring)
    images = doc["images"]
    i = draw(st.integers(0, len(images) - 1))
    change = draw(st.sampled_from(["integer", "coefficient", "image"]))
    if change == "image":
        images[i] = draw(_ELEMENT)
    else:
        coeffs = images[i]["coeffs"]
        coeffs[draw(st.integers(0, len(coeffs) - 1))] = draw(_COEFFS if change == "coefficient" else st.integers(-2, 2))
    return doc


_FUZZ_COMMANDS = {
    # name: (argv tail, file option, ring of the valid template)
    "h1-sigma-Q": (["h1", "--field", "Q"], "--sigma", QQ),
    "h1-tau-F3": (["h1", "--field", "F3"], "--tau", GF(3)),
    "inner-check-Z": (["inner-check", "--ring", "Z"], "--delta", ZZ),
    "inner-check-Q": (["inner-check", "--ring", "Q"], "--delta", QQ),
    "inner-check-sigma-F2": (["inner-check", "--ring", "F2", "--delta", "ZERO"], "--sigma", GF(2)),
    "gcd-criterion": (["gcd-criterion"], "--delta", ZZ),
}


@st.composite
def _fuzz_cases(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    group_name = draw(st.sampled_from(["C2", "S3"]))
    _, option, ring = _FUZZ_COMMANDS[command]
    kind = "delta" if option == "--delta" else "endo"
    return command, group_name, draw(_map_docs(group_name, kind, ring))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_fuzz_cases())
@example(("inner-check-Z", "S3", {"images": []}))
@example(("gcd-criterion", "S3", {"images": []}))
@example(("h1-sigma-Q", "S3", {"images": [{"ring": ["Q"], "coeffs": [1, 0, 0, 0, 0, 0]}]}))
def test_map_files_on_arbitrary_json_exit_with_one_line(case):
    command, group_name, doc = case
    argv, option, _ = _FUZZ_COMMANDS[command]
    group = standard_group(group_name)
    with tempfile.TemporaryDirectory() as tmp:
        group_path = Path(tmp) / "group.json"
        group_path.write_text(dumps_canonical(group_to_json(group)))
        doc_path = Path(tmp) / "map.json"
        doc_path.write_text(json.dumps(doc))
        zero_path = Path(tmp) / "zero.json"
        zero_path.write_text(json.dumps({"images": [{"ring": "Fp", "p": 2, "coeffs": [0] * group.order}] * group.order}))
        argv = [str(zero_path) if a == "ZERO" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--group", str(group_path), option, str(doc_path)])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith(("error: ", "check failed: "))
        assert len(err.getvalue().splitlines()) == 1
    else:
        assert err.getvalue() == ""
