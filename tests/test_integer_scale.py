"""Exact classify runs at integer scale, and that changes no output.

``cli.classification_report`` multiplies an all-rational coframe by
lam = 4 lcm(denominators) before it computes, and scales the values back by
1/lam.  The oracle is the same report with the working-scale helper
patched to lam = 1, compared byte for byte as JSON; the type pin shows that
at integer scale the tensor kernels hold ints, not Fractions.
"""

import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acm5 import cli, frames
from acm5.cli import classification_report, load_coframe
from acm5.errors import ACM5Error
from acm5.exterior import coframe, e, form, wedge
from helpers import (
    GOLDEN_INPUTS,
    nested,
    rotate,
    scaled,
    trig_coframe,
    u2_rotation,
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
