"""Invariants checked against frame changes and a theorem, not stored output.

* Frame invariance: a U(2)x1 rotation of the coframe preserves the almost
  contact metric structure, so every invariant the report states stays the
  same, while the structure constants change.
* Friedrich and Ivanov (Asian J. Math. 6, 2002): a connection preserving
  the structure with totally skew torsion exists exactly when the Nijenhuis
  tensor is totally skew and xi is Killing.  On a generalized quasi-Sasaki
  structure the compatible connection is unique, so its torsion is skew (or
  zero) exactly then.
"""

from fractions import Fraction

import pytest

from acm5.acms import PHI_MAT, frame_connection, nijenhuis, predicates, xi_is_killing
from acm5.cli import classification_report, load_coframe
from acm5.connection import characteristic_connection, torsion_type
from acm5.family import build
from acm5.frames import connection_from_structure
from helpers import GOLDEN, GOLDEN_FAMILY_POINTS, GOLDEN_INPUTS, matmul, rotate, u2_rotation

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


def _skew_torsion_iff_friedrich_ivanov(c, omega):
    fc = frame_connection(omega)
    if not predicates(fc).generalized_quasi_sasaki:
        return None
    _, tag = torsion_type(characteristic_connection(c, fc))
    conditions = nijenhuis(fc).is_totally_skew() and xi_is_killing(fc)
    return (tag in ("skew", "zero")) == conditions


def test_friedrich_ivanov_on_golden_inputs():
    verdicts = {}
    for path in GOLDEN_INPUTS:
        c = load_coframe(str(path))
        verdicts[path.name] = _skew_torsion_iff_friedrich_ivanov(c, connection_from_structure(c))
    assert verdicts.pop("su2_block.json") is None
    assert verdicts == dict.fromkeys(verdicts, True) and len(verdicts) == 7


@pytest.mark.parametrize(
    "params", GOLDEN_FAMILY_POINTS, ids=["_".join(map(str, p)) for p in GOLDEN_FAMILY_POINTS]
)
def test_friedrich_ivanov_on_golden_family_points(params):
    inst = build(*params)
    assert _skew_torsion_iff_friedrich_ivanov(inst.coframe, inst.omega_g) is True
