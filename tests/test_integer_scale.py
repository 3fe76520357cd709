"""Exact classify runs at integer scale, and that changes no output.

``cli.classification_report`` multiplies an all-rational coframe by
lam = 4 lcm(denominators) before it computes, and scales the values back by
1/lam.  The oracle is the same report with the working-scale helper
patched to lam = 1, compared byte for byte as JSON; the type pin shows that
at integer scale the tensor kernels hold ints, not Fractions.  ``classify``
writes its working-scale coframe straight from the parsed document
(``cli._ingest``); it must equal, term by term and bit for bit, the coframe
that loading and then rescaling gives (``working_scale_oracle``, after
``to_float_coframe`` under --float).
"""

import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acm5 import cli, frames
from acm5.cli import _ingest, _working_scale, classification_report, load_coframe
from acm5.errors import ACM5Error
from acm5.exterior import coframe, e, form, wedge
from helpers import (
    GOLDEN_INPUTS,
    bits,
    classify_corpus_files,
    nested,
    rotate,
    scaled,
    to_float_coframe,
    trig_coframe,
    u2_rotation,
    working_scale_oracle,
)


def _report_bytes(c):
    try:
        report, code = classification_report(c)
    except ACM5Error as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{code}\n{json.dumps(report, indent=2, sort_keys=True)}"


def _check_scale_free(c):
    at_integer_scale = _report_bytes(c)
    with mock.patch.object(cli, "_working_scale", lambda c: (c, Fraction(1))):
        assert _report_bytes(c) == at_integer_scale


def aux_coframe():
    """A Sasakian-type coframe rotated in the e1e2-plane by an auxiliary A."""
    a = form(1, {(5,): 1})
    return coframe(
        {
            "e1": Fraction(3, 7) * wedge(a, e(2)),
            "e2": Fraction(-3, 7) * wedge(a, e(1)),
            "e5": Fraction(2, 5) * (wedge(e(1), e(2)) + wedge(e(3), e(4))),
        },
        auxiliary=("A",),
    )


@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_integer_scale_keeps_golden_reports(path):
    _check_scale_free(load_coframe(str(path)))


def test_integer_scale_keeps_the_auxiliary_channel():
    c = aux_coframe()
    assert cli._working_scale(c)[1] == Fraction(1, 140)
    assert classification_report(c)[0]["characteristic_connection"] is not None
    _check_scale_free(c)


def test_trig_coframes_run_as_given():
    c = trig_coframe()
    assert cli._working_scale(c) == (c, 1)
    _check_scale_free(c)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(GOLDEN_INPUTS),
    st.lists(st.fractions(-2, 2, max_denominator=3), min_size=4, max_size=4),
    st.integers(-9, 9).filter(bool),
    st.sampled_from([7, 11, 13, 17 * 19]),
)
def test_integer_scale_keeps_rotated_rescaled_reports(path, rotation, num, den):
    rotated = rotate(load_coframe(str(path)), u2_rotation(*rotation))
    _check_scale_free(scaled(rotated, Fraction(num, den)))


@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_report_kernels_hold_ints(path, monkeypatch):
    """The nabla Phi and N in the memo of an exact report's solved forms: every entry an int."""
    built, solve = [], frames.connection_from_structure
    monkeypatch.setattr(
        frames, "connection_from_structure", lambda c: built.append(solve(c)) or built[-1]
    )
    classification_report(load_coframe(str(path)))
    (fc,) = built
    for name in ("nabla_phi", "nijenhuis"):
        values = nested(fc._memo[name])
        assert {type(v) for m in values for r in m for v in r} == {int}, name


def _written(c, unit):
    """All that a coframe at working scale holds, in order, each value by its type and bits."""
    table = [
        (sid, f.degree, f.mode, [(idx, bits(v)) for idx, v in f.terms.items()])
        for sid, f in c.d_table.items()
    ]
    return c.symbols, table, c.trig_rules, bits(unit)


def _check_one_pass(path):
    """The table of ``classify`` and of ``classify --float``, and the one that
    ``_working_scale`` writes of a loaded coframe, equal the two-step table."""
    c = load_coframe(str(path))
    for to_float, loaded in ((False, c), (True, to_float_coframe(c))):
        want = _written(*working_scale_oracle(loaded))
        assert _written(*_ingest(str(path), to_float)) == want, to_float
        assert _written(*_working_scale(loaded)) == want, to_float


@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_one_pass_table_equals_load_then_rescale_on_golden_inputs(path):
    _check_one_pass(path)


def test_one_pass_table_equals_load_then_rescale_on_the_benchmark_corpus(tmp_path):
    files = classify_corpus_files(1, tmp_path)
    assert len(files) == 10
    for path in files:
        _check_one_pass(path)


def _document(d, **extra):
    return {
        "symbols": [{"name": f"e{i}", "kind": "metric", "index": i} for i in range(1, 6)]
        + [{"name": "A", "kind": "auxiliary"}],
        "d": {name: [{"coeff": v, "wedge": w} for v, w in terms] for name, terms in d.items()},
        "orientation": ["e1", "e2", "e3", "e4", "e5"],
        **extra,
    }


EDGE_DOCUMENTS = {
    # exact zeros, an unreduced and a negative denominator, a JSON integer, an auxiliary leg
    "zeros-unreduced": _document({
        "e5": [("0/7", ["e1", "e2"]), ("6/4", ["e3", "e4"]), (-3, ["e1", "A"])],
        "e1": [("-10/15", ["e2", "e3"]), ("0", ["e4", "e5"])],
        "A": [("9/6", ["e1", "e2"])],
    }),
    # a value that rounds to 0.0 in binary64 is a kept float term
    "underflow": _document({"e5": [("1/1" + "0" * 400, ["e1", "e2"]), ("2", ["e3", "e4"])]}),
    # no term survives: --float leaves an exact table, at unit 1/4
    "all-zero": _document({"e5": [("0", ["e1", "e2"]), ("0/3", ["e3", "e4"])]}),
    "trig-rules": _document(
        {"e5": [("1/3", ["e1", "e2"])]}, trig={"df": [{"coeff": "1/2", "wedge": ["e1"]}]}
    ),
}


@pytest.mark.parametrize("name", EDGE_DOCUMENTS)
def test_one_pass_table_equals_load_then_rescale_on_edge_documents(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(EDGE_DOCUMENTS[name]), encoding="utf-8")
    _check_one_pass(path)


# around max|c| = 2^512, where max|c|^2 leaves binary64, and far beyond it
HUGE = {
    "below": str(2**512 - 2**459),
    "at": str(2**512),
    "rounds-up": f"{2**513 - 1}/2",
    "int-overflow": "9" * 400,
}


@pytest.mark.parametrize("name", HUGE)
def test_one_pass_float_table_refuses_what_the_float_copy_refuses(tmp_path, name):
    path = tmp_path / "huge.json"
    doc = _document({"e5": [(HUGE[name], ["e1", "e2"]), ("1/3", ["e3", "e4"])]})
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        want = _written(*working_scale_oracle(to_float_coframe(load_coframe(str(path)))))
    except OverflowError:
        want = OverflowError
    try:
        got = _written(*_ingest(str(path), True))
    except OverflowError:
        got = OverflowError
    assert got == want and (want is OverflowError) == (name != "below")
    exact = working_scale_oracle(load_coframe(str(path)))
    assert _written(*_ingest(str(path), False)) == _written(*exact)
