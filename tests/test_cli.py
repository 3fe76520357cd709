import json
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acm5 import acms, cli, torsionclass
from acm5.cli import _parser as cli_parser
from acm5.acms import frame_connection
from acm5.cli import (
    _parse_rational,
    _to_float_coframe,
    _working_scale,
    classification_report,
    coframe_document,
    emit_coframe,
    load_coframe,
    main,
)
from acm5.connection import characteristic_connection, curvature
from acm5.errors import SchemaError
from acm5.exterior import stored
from acm5.frames import connection_from_structure
from acm5.groups import build, identify_group
from acm5.torsionclass import classify, intrinsic_torsion
from helpers import (
    GOLDEN,
    GOLDEN_INPUTS,
    parse_rational_oracle,
    rotate,
    scaled,
    trig_coframe,
    u2_rotation,
)

FAMILY_1000 = ["family", "--params", "1", "0", "0", "0"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "name, field, value, verdicts",
    [
        ("classify", "class_tags", ("W6",), ("generalized_quasi_sasaki is True", "['W6']")),
        ("predicates", "generalized_quasi_sasaki", False,
         ("generalized_quasi_sasaki is False", "['W4', 'W7']")),
    ],
)
def test_report_checks_the_gqs_characterization(capsys, monkeypatch, name, field, value, verdicts):
    """Generalized quasi-Sasaki iff the class lies in W3+W4+W5+W7: a report
    whose two sides disagree stops with both verdicts and the norms."""
    path = str(GOLDEN / "inputs" / "family_1_0_2_0.json")
    module = {"classify": torsionclass, "predicates": acms}[name]  # cli reads each from its layer
    real = getattr(module, name)  # one side of the comparison, with one field replaced
    monkeypatch.setattr(module, name, lambda arg: real(arg)._replace(**{field: value}))
    code, out, err = run(capsys, ["classify", path, "--json"])
    assert code == 1 and out == ""
    assert err.startswith("error: ACM5Error: internal consistency: ")
    assert all(v in err for v in verdicts) and "norms {'W3': '0'" in err


@pytest.mark.parametrize(
    "name, tag, verdict",
    [
        ("family_1_0_2_0.json", "skew", "the torsion type is skew, but N is not totally skew: "
         "N(1, 5, 3) + N(5, 1, 3) = 12, N(2, 5, 4) + N(5, 2, 4) = -12, "
         "N(3, 5, 1) + N(5, 3, 1) = -12, N(4, 5, 2) + N(5, 4, 2) = 12"),
        ("heis5_sasakian.json", "mixed",
         "the torsion type is mixed, but N is totally skew"),
    ],
)
def test_report_checks_the_friedrich_ivanov_criterion(capsys, monkeypatch, name, tag, verdict):
    """On a generalized quasi-Sasaki structure the compatible connection has
    totally skew torsion iff N is totally skew (Friedrich-Ivanov): a report
    whose torsion tag disagrees with N stops with exit 1 and renders the
    nonzero symmetrizations N(x, y, z) + N(y, x, z), x <= y, at the input's
    scale, when there are any (the family point (1, 0, 2, 0) has traceless
    cyclic torsion, the Sasakian heis5 none)."""
    from acm5 import connection

    real = connection.torsion_type
    monkeypatch.setattr(connection, "torsion_type", lambda cc: (real(cc)[0], tag))
    code, out, err = run(capsys, ["classify", str(GOLDEN / "inputs" / name), "--json"])
    assert (code, out) == (1, "")
    assert err == f"error: ACM5Error: internal consistency: {verdict}\n"


def emit(tmp_path, capsys, params=("1", "0", "0", "0")):
    path = tmp_path / "coframe.json"
    code, _, _ = run(capsys, ["family", "--params", *params, "--emit", str(path)])
    assert code == 0
    return path


def test_emit_validate_classify_roundtrip(tmp_path, capsys):
    path = emit(tmp_path, capsys)
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 0 and "ok" in out
    code, out, _ = run(capsys, ["classify", str(path), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["classification"]["strict_class"] == ["W4"]
    assert report["characteristic_connection"]["torsion_type"] == "skew"
    assert report["characteristic_connection"]["ricci_diagonal"] == ["4", "4", "4", "4", "0"]
    assert report["characteristic_connection"]["holonomy_dimension"] == 1
    assert report["characteristic_connection"]["spinor_kernel_dimension"] == 2
    assert report["characteristic_connection"]["parallel_spinors"] is True


def test_classify_mixed_class_file(tmp_path, capsys):
    path = emit(tmp_path, capsys, ("1", "0", "2", "0"))
    code, out, _ = run(capsys, ["classify", str(path), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["classification"]["strict_class"] == ["W4", "W7"]
    assert report["characteristic_connection"]["torsion_type"] == "mixed"


def test_classify_abelian_text(tmp_path, capsys):
    path = tmp_path / "abelian.json"
    doc = {
        "symbols": [{"name": f"e{i}", "kind": "metric", "index": i} for i in range(1, 6)],
        "d": {},
        "orientation": ["e1", "e2", "e3", "e4", "e5"],
    }
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["classify", str(path)])
    assert code == 0
    assert "cosymplectic (integrable)" in out


def test_validate_names_broken_generator(tmp_path, capsys):
    path = emit(tmp_path, capsys)
    doc = json.loads(path.read_text())
    # corrupt the Reeb structure equation: breaks closure
    doc["d"]["e5"][0]["coeff"] = "-3"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 1
    assert "e5" in err


def test_validate_truncated_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"symbols": [')
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 1 and "line" in err and "column" in err


def test_validate_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'\xff\xfe{"symbols": []}')
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 1 and err.startswith("schema error: not UTF-8")


def test_validate_unknown_symbol(tmp_path, capsys):
    path = emit(tmp_path, capsys)
    doc = json.loads(path.read_text())
    doc["d"]["e1"][0]["wedge"] = ["e2", "A9"]
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 1 and "A9" in err


def test_constraint_violation_exits_2(tmp_path, capsys):
    path = tmp_path / "x.json"
    code, _, err = run(capsys, ["family", "--params", "1", "0", "0", "1", "--emit", str(path)])
    assert code == 2
    assert "a1*a4" in err


def test_family_verify_and_identify(capsys):
    code, out, _ = run(capsys, [*FAMILY_1000, "--verify"])
    assert code == 0 and "all identities hold" in out
    code, out, _ = run(capsys, ["family", "--params", "3", "4", "0", "0", "--identify"])
    assert code == 0
    assert "su2+su2 (Stiefel-type W4 structure)" in out
    assert "verified" in out
    code, out, _ = run(capsys, ["family", "--params", "0", "0", "3", "4", "--identify"])
    assert code == 0 and "sl2+sl2" in out


def test_classify_deterministic_bytes(tmp_path, capsys):
    path = emit(tmp_path, capsys, ("1", "0", "2", "0"))
    _, out1, _ = run(capsys, ["classify", str(path), "--json"])
    _, out2, _ = run(capsys, ["classify", str(path), "--json"])
    assert out1 == out2


def test_float_mode_matches_exact_tags(tmp_path, capsys):
    path = emit(tmp_path, capsys, ("1", "0", "2", "0"))
    _, exact_out, _ = run(capsys, ["classify", str(path), "--json"])
    code, float_out, _ = run(capsys, ["classify", str(path), "--json", "--float"])
    assert code == 0
    exact = json.loads(exact_out)
    approx = json.loads(float_out)
    assert exact["classification"]["strict_class"] == approx["classification"]["strict_class"]
    assert exact["predicates"]["generalized_quasi_sasaki"] == approx["predicates"][
        "generalized_quasi_sasaki"
    ]
    assert (
        exact["characteristic_connection"]["torsion_type"]
        == approx["characteristic_connection"]["torsion_type"]
    )


def test_text_numbers_all_appear_in_json(tmp_path, capsys):
    path = emit(tmp_path, capsys, ("1", "0", "2", "0"))
    _, text, _ = run(capsys, ["classify", str(path), "--text"])
    _, js, _ = run(capsys, ["classify", str(path), "--json"])
    for token in re.findall(r"-?\d+(?:/\d+)?", text):
        assert token.lstrip("-") in js or token in js


ANSI = re.compile(r"\x1b\[[0-9;]*m")


@pytest.mark.parametrize(
    "argv", [["classify", "{path}", "--text"], [*FAMILY_1000, "--verify"]], ids=["classify", "verify"]
)
def test_color_adds_only_ansi_codes(tmp_path, capsys, monkeypatch, argv):
    """ACM5_COLOR=1 colours the text output and changes nothing else in it."""
    path = emit(tmp_path, capsys, ("1", "0", "2", "0"))
    argv = [str(path) if a == "{path}" else a for a in argv]
    monkeypatch.delenv("ACM5_COLOR", raising=False)
    plain = run(capsys, argv)
    monkeypatch.setenv("ACM5_COLOR", "1")
    code, out, err = run(capsys, argv)
    assert ANSI.search(out)
    assert (code, ANSI.sub("", out), err) == plain


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, ["validate", "/nonexistent/x.json"])
    assert code == 2 and "no such file" in err


@pytest.mark.parametrize(
    "argv",
    [["classify", "{dir}"], ["validate", "{dir}"], [*FAMILY_1000, "--emit", "{dir}/no/x.json"]],
    ids=["classify-directory", "validate-directory", "emit-into-missing-directory"],
)
def test_unusable_paths_are_usage_errors(tmp_path, capsys, argv):
    code, out, err = run(capsys, [a.replace("{dir}", str(tmp_path)) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize(
    "zeros", [400, 200], ids=["coefficient-overflows", "tolerance-scale-overflows"]
)
def test_float_mode_rejects_coefficients_beyond_binary64(tmp_path, capsys, zeros):
    path = tmp_path / "big.json"
    doc = {
        "symbols": [{"name": f"e{i}", "kind": "metric", "index": i} for i in range(1, 6)],
        "d": {"e5": [{"coeff": "1" + "0" * zeros, "wedge": ["e1", "e2"]}]},
        "orientation": ["e1", "e2", "e3", "e4", "e5"],
    }
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["classify", str(path), "--json", "--float"])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "binary64" in err and err.count("\n") == 1
    code, _, _ = run(capsys, ["classify", str(path), "--json"])
    assert code == 0


def _float_invariants(report):
    """What --float must state exactly as exact mode does."""
    preds = {k: v for k, v in report["predicates"].items() if k != "d_eta_vs_fundamental"}
    cc = report["characteristic_connection"]
    keys = ("torsion_type", "holonomy_dimension", "spinor_kernel_dimension", "parallel_spinors")
    return report["classification"]["strict_class"], preds, cc and {k: cc[k] for k in keys}


@pytest.mark.parametrize("k", [-6, 5, 12])
@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_float_mode_agrees_with_exact_mode_at_every_scale(tmp_path, capsys, path, k):
    doc = tmp_path / "scaled.json"
    emit_coframe(scaled(load_coframe(str(path)), Fraction(10) ** k), str(doc))
    reports = []
    for extra in ([], ["--float"]):
        code, out, _ = run(capsys, ["classify", str(doc), "--json", *extra])
        assert code == 0
        reports.append(json.loads(out))
    exact, floating = reports
    assert _float_invariants(floating) == _float_invariants(exact)
    exact_norms = {n: Fraction(v) for n, v in exact["classification"]["norms"].items()}
    bound = 1e-9 * max(exact_norms.values())
    for name, v in floating["classification"]["norms"].items():
        assert abs(float(v) - exact_norms[name]) <= bound, name


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(GOLDEN_INPUTS),
    st.lists(st.fractions(-2, 2, max_denominator=3), min_size=4, max_size=4),
    st.integers(-6, 12),
)
def test_float_mode_agrees_with_exact_mode_on_rotated_inputs(path, rotation, k):
    """A U(2)x1 rotation of a golden input, scaled by 10^k: same structure up
    to a frame change and a homothety, so --float must state every invariant
    as exact mode does."""
    c = scaled(rotate(load_coframe(str(path)), u2_rotation(*rotation)), Fraction(10) ** k)
    exact, code = classification_report(c)
    assert code == 0
    floating, code = classification_report(_to_float_coframe(c))
    assert code == 0
    assert _float_invariants(floating) == _float_invariants(exact)


def test_classify_without_compatible_connection(tmp_path, capsys):
    # su(2) block coframe: valid, but not generalized quasi-Sasaki
    path = tmp_path / "su2.json"
    doc = {
        "symbols": [{"name": f"e{i}", "kind": "metric", "index": i} for i in range(1, 6)],
        "d": {
            "e1": [{"coeff": "-1", "wedge": ["e2", "e3"]}],
            "e2": [{"coeff": "1", "wedge": ["e1", "e3"]}],
            "e3": [{"coeff": "-1", "wedge": ["e1", "e2"]}],
        },
        "orientation": ["e1", "e2", "e3", "e4", "e5"],
    }
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, ["classify", str(path), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["characteristic_connection"] is None
    assert "not" in report["note"]
    assert report["classification"]["strict_class"] == ["W6"]


def _repeat_monomial(*coeffs):
    """A mutation that makes de1 the monomial e1^e2 once per coefficient."""
    return lambda doc: doc["d"].update(e1=[{"coeff": c, "wedge": ["e1", "e2"]} for c in coeffs])


MALFORMED = [
    ("d-not-object", lambda doc: doc.update(d=[]), "'d' must be an object"),
    ("string-index", lambda doc: doc["symbols"][0].update(index="1"), "integer 'index'"),
    ("orientation-not-list", lambda doc: doc.update(orientation=5), "orientation"),
    ("wedge-string", lambda doc: doc["d"]["e1"][0].update(wedge="e2"), "'wedge' must be a list"),
    ("boolean-coeff", lambda doc: doc["d"]["e1"][0].update(coeff=True), "not a rational"),
    ("trig-list", lambda doc: doc.update(trig=[]), "trig"),
    ("duplicate-name", lambda doc: doc["symbols"][5].update(name="e1"), "duplicate symbol name"),
    ("duplicate-monomial-zero-first", _repeat_monomial(0, 3), "duplicate monomial"),
    ("duplicate-monomial-zero-last", _repeat_monomial(3, 0), "duplicate monomial"),
]


@pytest.mark.parametrize(
    "mutate,fragment", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED]
)
def test_malformed_field_types_are_schema_errors(tmp_path, capsys, mutate, fragment):
    path = emit(tmp_path, capsys)
    doc = json.loads(path.read_text())
    mutate(doc)
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["classify", str(path), "--json"])
    assert code == 1
    assert err.startswith("schema error:") and fragment in err


@pytest.mark.parametrize(
    "make",
    [lambda: build(1, 0, 2, 0).coframe, lambda: identify_group((-1, 0, 2, 0)).coframe],
    ids=["family", "trig-rules"],
)
def test_emit_load_round_trip(tmp_path, make):
    c = make()
    path = tmp_path / "coframe.json"
    emit_coframe(c, str(path))
    loaded = load_coframe(str(path))
    assert loaded.symbols == c.symbols
    assert loaded.orientation == c.orientation
    assert loaded.trig_rules == c.trig_rules
    assert loaded.d_table.keys() == c.d_table.keys()
    assert all(loaded.d_table[sid] == c.d_table[sid] for sid in c.d_table)


def test_emit_rejects_a_coefficient_load_cannot_read(tmp_path):
    c = trig_coframe()  # de1 = cos(f) e2^e3
    with pytest.raises(SchemaError, match="cos"):
        coframe_document(c)
    path = tmp_path / "trig.json"
    with pytest.raises(SchemaError):
        emit_coframe(c, str(path))
    assert not path.exists()


def _exit_code_and_stdout(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # --help and usage errors exit from the parser
        code = exc.code
    return code, capsys.readouterr().out


def test_one_parser_serves_every_call_of_a_process(capsys):
    """``main`` builds its parser once; repeating a call prints the same bytes
    with the same exit code, also after a usage error in between."""
    calls = (
        ["--help"],
        ["classify", str(GOLDEN_INPUTS[0]), "--json"],
        [*FAMILY_1000, "--verify"],
    )
    usage_errors = (["classify"], [*FAMILY_1000, "--verify", "--identify"])
    for argv in calls:
        first = _exit_code_and_stdout(capsys, argv)
        for bad in usage_errors:
            assert _exit_code_and_stdout(capsys, bad) == (2, "")
            assert _exit_code_and_stdout(capsys, argv) == first
    assert _exit_code_and_stdout(capsys, ["--help"])[0] == 0
    assert cli_parser() is cli_parser()


# -- oversized input and oversized output --------------------------------------

DIGITS = 5000  # over the interpreter's default limit of 4300 digits for int <-> str


def _heisenberg_text(coeff):
    """The text of a coframe document with de5 = coeff e1^e2 + coeff e3^e4, the
    coefficient inserted as raw JSON (a string literal or an integer literal)."""
    doc = {
        "symbols": [{"name": f"e{i}", "kind": "metric", "index": i} for i in range(1, 6)],
        "d": {"e5": [{"coeff": "@", "wedge": ["e1", "e2"]}, {"coeff": "@", "wedge": ["e3", "e4"]}]},
        "orientation": ["e1", "e2", "e3", "e4", "e5"],
    }
    return json.dumps(doc).replace('"@"', coeff)


OVERSIZED = {
    "numerator-string": _heisenberg_text(f'"{"7" * DIGITS}"'),
    "denominator-string": _heisenberg_text(f'"1/{"7" * DIGITS}"'),
    "integer-literal": _heisenberg_text("7" * DIGITS),
    "deep-nesting": _heisenberg_text("[" * 100_000 + "]" * 100_000),
}


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["classify", "--json"], ["classify", "--json", "--float"]],
    ids=["validate", "classify", "classify-float"],
)
@pytest.mark.parametrize("name", OVERSIZED)
def test_oversized_input_is_a_schema_error(tmp_path, capsys, name, argv):
    path = tmp_path / "big.json"
    path.write_text(OVERSIZED[name])
    code, out, err = run(capsys, [argv[0], str(path), *argv[1:]])
    assert code == 1 and out == ""
    assert err.startswith("schema error: ") and err.count("\n") == 1


@pytest.mark.parametrize("a1", ["1e10000000", "1e-10000000"])
def test_oversized_parameter_is_a_usage_error(capsys, a1):
    """A parameter is refused from its text, before Fraction builds a value
    of ten million digits."""
    code, out, err = run(capsys, ["family", "--params", a1, "0", "0", "0", "--identify"])
    assert code == 2 and out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("a1, exit_code", [("1e2000", 0), ("1e2500", 2), ("1e4299", 2)])
def test_emit_writes_only_what_validate_accepts(tmp_path, capsys, a1, exit_code):
    """dA2 has about twice the digits of a1: emit refuses a coefficient that
    load refuses, and writes no file."""
    path = tmp_path / "big.json"
    code, out, err = run(capsys, ["family", "--params", a1, "0", "0", "0", "--emit", str(path)])
    assert code == exit_code
    if code == 0:
        code, out, _ = run(capsys, ["validate", str(path)])
        assert (code, out) == (0, "ok: schema valid and d^2 = 0 on all generators\n")
    else:
        assert out == "" and not path.exists()
        assert err.startswith("error: cannot emit ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["validate"], ["classify", "--json"], ["classify", "--json", "--float"]],
    ids=["validate", "classify", "classify-float"],
)
def test_many_auxiliary_symbols_cost_what_their_terms_cost(tmp_path, capsys, argv):
    """400 auxiliary symbols with zero derivatives and one nonzero de5: the
    d^2-gate and the Levi-Civita solve stay within a few MB of traced
    memory, where a table over every symbol pair or every (aux, aux) pair
    would take far more."""
    doc = json.loads(_heisenberg_text('"2"'))
    doc["symbols"] += [{"name": f"A{i}", "kind": "auxiliary"} for i in range(400)]
    path = tmp_path / "aux.json"
    path.write_text(json.dumps(doc))
    tracemalloc.start()
    try:
        code, _, err = run(capsys, [argv[0], str(path), *argv[1:]])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert peak < 4_000_000


class _unlimited_int_digits:
    """Lift the interpreter's int <-> str digit limit inside a with block."""

    def __enter__(self):
        self.saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        sys.set_int_max_str_digits(self.saved)


def test_large_exact_values_print_and_parse_back(tmp_path, capsys):
    """2500-digit coefficients give norms and Ricci entries of about 5000
    digits, over the digit limit of ``str``; each printed value parses back
    to the value that the report's pipeline computes in process."""
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "big.json"
    path.write_text(_heisenberg_text(f'"{"7" * 2500}/3"'))
    code, out, err = run(capsys, ["classify", str(path), "--json"])
    assert code == 0 and err == ""
    report = json.loads(out)
    c, unit = _working_scale(load_coframe(str(path)))
    fc = frame_connection(connection_from_structure(c))
    norms = classify(intrinsic_torsion(fc)).norms
    ricci = curvature(c, characteristic_connection(fc).omega_c).ricci
    printed = report["classification"]["norms"]
    with _unlimited_int_digits():
        assert max(len(str(v)) for v in norms.values()) > DIGITS
        assert {k: Fraction(s) for k, s in printed.items()} == {
            k: v * unit * unit for k, v in norms.items()
        }
        assert [Fraction(s) for s in report["characteristic_connection"]["ricci_diagonal"]] == [
            ricci[i][i] * unit * unit for i in range(5)
        ]
    assert sys.get_int_max_str_digits() == limit


def test_validate_prints_large_residues(tmp_path, capsys):
    """de1 = n e2^e3 and de2 = n e1^e4 give d(de1) = -n^2 e1^e3^e4, whose
    coefficient of about 5000 digits is printed in full."""
    n = 7 * (10**2500 - 1) // 9
    doc = json.loads(_heisenberg_text('"0"'))
    doc["d"] = {"e1": [{"coeff": str(n), "wedge": ["e2", "e3"]}],
                "e2": [{"coeff": str(n), "wedge": ["e1", "e4"]}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 2 and lines[0].startswith("d^2 e1 = ")
    with _unlimited_int_digits():
        assert lines[0] == f"d^2 e1 = {-n * n}*e1^e3^e4 != 0"


# Unicode digits (Arabic-Indic, Devanagari, fullwidth) and spaces (no-break,
# em, ideographic) next to the ASCII ones, which both readers treat alike.
COEFFICIENT_TEXTS = st.one_of(
    st.builds(
        lambda lead, sign, num, den, trail: f"{lead}{sign}{num}{den}{trail}",
        st.sampled_from(["", " ", "\t", "\n", "\u00a0", "\u2003"]),
        st.sampled_from(["", "+", "-", "--", "+-"]),
        st.text("0123456789\u0660\u0661\u0969\uff17", max_size=5),
        st.one_of(st.just(""), st.text("0123456789\u0661/", max_size=5).map(lambda d: "/" + d)),
        st.sampled_from(["", " ", "\n", " \n", "\u3000", "x"]),
    ),
    st.text("0123456789/+-._eE \u0663", max_size=8),
    st.sampled_from(["0/7", "1/0", "-0", "007/008", "1/00", "1_000", "1/2/3", ""]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False),
)


@settings(max_examples=400, deadline=None)
@given(COEFFICIENT_TEXTS)
def test_parse_rational_accepts_what_the_pattern_and_fraction_accepted(s):
    """The one-pass coefficient reader keeps the old rule: the same strings
    and ints are accepted, with the same narrowed value and type once
    ``exterior.stored`` applies the storage rule, as the loader does (an
    exact zero is not stored, and reads back as the int 0)."""
    try:
        got = stored(1, {(0,): _parse_rational(s, "d[e5]")}).coefficient((0,))
    except SchemaError:
        got = None
    want = parse_rational_oracle(s)
    assert (type(got), got) == (type(want), want)
