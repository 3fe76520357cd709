"""Invariants checked against frame changes and a theorem, not stored output.

* Frame invariance: a U(2)x1 rotation of the coframe preserves the almost
  contact metric structure, so every invariant the report states stays the
  same, while the structure constants change.
* Friedrich and Ivanov (Asian J. Math. 6, 2002): a connection preserving
  the structure with totally skew torsion exists exactly when the Nijenhuis
  tensor is totally skew and xi is Killing.  On a generalized quasi-Sasaki
  structure the compatible connection is unique, so its torsion is skew (or
  zero) exactly then.
* Homothety: multiplying every structure constant by lam gives the
  orthonormal coframe of g / lam^2, so the class, the predicates, the
  torsion tag and the holonomy and spinor data stay the same, while the
  norms, the curvature and the Ricci values scale by lam^2 and the ratio
  d eta / fundamental form by lam.
* The abstract's claim: every nonzero integrable point of the
  four-parameter family is generalized quasi-Sasaki, and neither
  quasi-Sasaki nor normal.
"""

import functools
import itertools
from fractions import Fraction

import pytest

from acm5.acms import PHI_MAT, frame_connection, nijenhuis, predicates, xi_is_killing
from acm5.cli import classification_report, load_coframe
from acm5.connection import characteristic_connection, torsion_type
from acm5.errors import IntegrabilityError
from acm5.exterior import coframe, e, wedge
from acm5.frames import connection_from_structure
from acm5.groups import build
from helpers import (
    GOLDEN,
    GOLDEN_FAMILY_POINTS,
    GOLDEN_INPUTS,
    matmul,
    rotate,
    scaled,
    u2_rotation,
)

ROTATIONS = {
    "dense": u2_rotation(1, Fraction(1, 2), -1, 2),
    "mixing": u2_rotation(0, 1, Fraction(-1, 3), Fraction(1, 2)),
}


def _invariants(c):
    report, code = classification_report(c)
    assert code == 0
    cc = report["characteristic_connection"]
    keys = ("torsion_type", "holonomy_dimension", "spinor_kernel_dimension")
    return (
        report["classification"]["norms"],
        report["classification"]["strict_class"],
        report["predicates"],
        cc and {k: cc[k] for k in keys},
    )


@pytest.mark.parametrize("rotation", ROTATIONS)
@pytest.mark.parametrize("name", ["family_1_0_2_0.json", "su2_block.json"])
def test_u2_rotation_preserves_the_invariants(name, rotation):
    q = ROTATIONS[rotation]
    qt = [list(col) for col in zip(*q)]
    assert matmul(q, qt) == [[int(r == c) for c in range(5)] for r in range(5)]
    assert matmul(q, PHI_MAT) == matmul(PHI_MAT, q)
    c = load_coframe(str(GOLDEN / "inputs" / name))
    rotated = rotate(c, q)
    assert any(rotated.d_table[i] != c.d_table[i] for i in range(5))
    assert _invariants(rotated) == _invariants(c)


def _skew_torsion_iff_friedrich_ivanov(omega):
    fc = frame_connection(omega)
    if not predicates(fc).generalized_quasi_sasaki:
        return None
    _, tag = torsion_type(characteristic_connection(fc))
    conditions = nijenhuis(fc).is_totally_skew() and xi_is_killing(fc)
    return (tag in ("skew", "zero")) == conditions


def test_friedrich_ivanov_on_golden_inputs():
    verdicts = {}
    for path in GOLDEN_INPUTS:
        c = load_coframe(str(path))
        verdicts[path.name] = _skew_torsion_iff_friedrich_ivanov(connection_from_structure(c))
    assert verdicts.pop("su2_block.json") is None
    assert verdicts == dict.fromkeys(verdicts, True) and len(verdicts) == 9


@pytest.mark.parametrize(
    "params", GOLDEN_FAMILY_POINTS, ids=["_".join(map(str, p)) for p in GOLDEN_FAMILY_POINTS]
)
def test_friedrich_ivanov_on_golden_family_points(params):
    inst = build(*params)
    assert _skew_torsion_iff_friedrich_ivanov(inst.omega_g) is True


# every golden input, and a Sasakian coframe for a nonzero d eta ratio
HOMOTHETY_SOURCES = {p.stem: functools.partial(load_coframe, str(p)) for p in GOLDEN_INPUTS}
HOMOTHETY_SOURCES["sasakian"] = lambda: coframe(
    {"e5": 2 * (wedge(e(1), e(2)) + wedge(e(3), e(4)))}
)


@functools.cache
def _base_report(name):
    report, code = classification_report(HOMOTHETY_SOURCES[name]())
    assert code == 0
    return report


SCALE_FREE_KEYS = (
    "torsion_type",
    "holonomy_dimension",
    "spinor_kernel_dimension",
    "parallel_spinors",
)


def _scale_free_part(report):
    """Everything a homothety keeps: the rest are values of degree 1 or 2."""
    cls = report["classification"]
    preds = dict(report["predicates"])
    preds.pop("d_eta_vs_fundamental")
    cc = report["characteristic_connection"]
    if cc is not None:
        cc = {k: cc[k] for k in SCALE_FREE_KEYS} | {
            "connection_forms": sorted(cc["connection_forms"]),
            "curvature_entries": sorted(cc["curvature_entries"]),
        }
    return cls["strict_class"], cls["integrable"], preds, cc


def _ricci(report):
    cc = report["characteristic_connection"]
    return cc and [[Fraction(v) for v in row] for row in cc["ricci"]]


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(1, 3), Fraction(10**5)], ids=str)
@pytest.mark.parametrize("name", HOMOTHETY_SOURCES)
def test_homothety_scales_only_the_values(name, lam):
    base = _base_report(name)
    report, code = classification_report(scaled(HOMOTHETY_SOURCES[name](), lam))
    assert code == 0
    assert _scale_free_part(report) == _scale_free_part(base)
    norms = report["classification"]["norms"]
    assert {k: Fraction(v) for k, v in norms.items()} == {
        k: lam**2 * Fraction(v) for k, v in base["classification"]["norms"].items()
    }
    ratio = base["predicates"]["d_eta_vs_fundamental"]
    expected = None if ratio is None else str(lam * Fraction(ratio))
    assert report["predicates"]["d_eta_vs_fundamental"] == expected
    ricci = _ricci(base)
    assert _ricci(report) == (ricci and [[lam**2 * v for v in row] for row in ricci])


def test_every_integrable_family_point_is_strictly_generalized_quasi_sasaki():
    seen = 0
    for params in itertools.product((-2, -1, 0, 1, 3), repeat=4):
        if not any(params):
            continue
        try:
            inst = build(*params)
        except IntegrabilityError:
            continue
        preds = predicates(frame_connection(inst.omega_g))
        assert preds.generalized_quasi_sasaki, params
        assert not preds.quasi_sasaki and not preds.normal, params
        seen += 1
    assert seen == 110
