"""The contract of the library's 22 value classes.

Fifteen plain records are ``typing.NamedTuple``s, and the seven classes that
validate or cache when they are built derive from ``exterior.Frozen``, three of
them through its flat-view base ``exterior.View``.  For each class, an instance
refuses assignment to every annotated field, its bases' included, two instances
built from equal (not identical) arguments are ``==`` and hash alike where the
class is hashable, and changing one argument breaks ``==``.
The validation errors are pinned by the tests of each module.
"""

import pytest

from acm5 import acms, connection, exterior, family, frames, groups, torsionclass
from acm5.acms import Z1, Z2, Predicates, Tensor3, theta
from acm5.connection import (
    GENERATORS,
    CharacteristicConnection,
    CompatibilityReport,
    CurvatureData,
    SpinorKernelReport,
    SpinorSpace,
)
from acm5.exterior import (
    CoframeData,
    Form,
    Frozen,
    ResidualReport,
    Symbol,
    TrigRules,
    View,
    coframe,
    e,
    wedge,
    zero_form,
)
from acm5.family import IdentityReplayReport
from acm5.frames import (
    CanonicalAlgebra,
    ConnectionForms,
    FrameChange,
    canonical_algebra,
)
from acm5.groups import FamilyInstance, FamilyParams, GroupIdentification, build
from acm5.torsionclass import CartanParts, ClassReport, IntrinsicTorsion, tensor_to_w

from helpers import fields


def _cube(v=0):
    return Tensor3((v,) + (0,) * 124)


def _coframe_args():
    c = coframe({"e5": wedge(e(1), e(2))})
    return c.symbols, c.d_table, c.trig_rules


def _instance_args():
    inst = build(1, 0, 2, 0)
    return inst.params, inst.coframe, inst.alpha, inst.omega_g


def _view(k):
    """The view of w[0][1] = e_k, 0-based: 1 at slot (k, 0, 1) and -1 at slot (k, 1, 0)."""
    return tuple(1 if s == 25 * k + 1 else -1 if s == 25 * k + 5 else 0 for s in range(125))


def _negated_generators():
    return tuple(tuple((c, -s) for c, s in g) for g in GENERATORS)


# class -> (fresh constructor arguments, the position of the argument to change, its new value)
CASES = {
    Form: (lambda: (2, {(0, 1): 3}), 1, lambda: {(0, 1): 4}),
    Symbol: (lambda: ("e1", "metric", 1), 0, lambda: "x"),
    TrigRules: (lambda: (e(1), e(2)), 1, lambda: e(3)),
    CoframeData: (_coframe_args, 2, lambda: TrigRules(df=e(5))),
    ResidualReport: (lambda: ({"e1": e(1)},), 0, lambda: {"e1": e(2)}),
    Tensor3: (lambda: (tuple(range(125)),), 0, lambda: tuple(range(1, 126))),
    Predicates: (lambda: (False,) * 9, 3, lambda: True),
    ConnectionForms: (lambda: (_view(2),), 0, lambda: _view(3)),
    CanonicalAlgebra: (
        lambda: ("abelian6", {i: {} for i in range(6)}),
        1,
        lambda: canonical_algebra("heis5+R").d_coeffs,
    ),
    FrameChange: (lambda: (tuple(map(e, range(1, 6))),), 0, lambda: tuple(map(e, range(5, 0, -1)))),
    IntrinsicTorsion: (
        lambda: (tensor_to_w(theta(Z1)).flat,),
        0,
        lambda: tensor_to_w(theta(Z2)).flat,
    ),
    ClassReport: (lambda: ({"W3": 1}, ("W3",), 1), 2, lambda: 2),
    CartanParts: (lambda: (_cube(), (0,) * 5, _cube(), _cube()), 1, lambda: (1, 0, 0, 0, 0)),
    CharacteristicConnection: (
        lambda: (ConnectionForms(_view(2)), _cube(), _cube(), CompatibilityReport(1, 1, 1)),
        3,
        lambda: CompatibilityReport(0, 1, 1),
    ),
    CompatibilityReport: (lambda: (True, True, True), 2, lambda: False),
    CurvatureData: (
        lambda: (((zero_form(2),) * 5,) * 5, ((0,) * 5,) * 5, ()),
        2,
        lambda: (wedge(e(1), e(2)),),
    ),
    SpinorSpace: (lambda: (tuple(map(tuple, GENERATORS)),), 0, _negated_generators),
    SpinorKernelReport: (lambda: (((1, 0),), 1), 1, lambda: 2),
    FamilyParams: (lambda: (1, 0, 2, 0), 2, lambda: 3),
    FamilyInstance: (_instance_args, 2, lambda: 0),
    IdentityReplayReport: (lambda: ((("a", True, ""),),), 0, lambda: (("a", False, ""),)),
    GroupIdentification: (lambda: ("abelian6", None, None, False, False, "n"), 4, lambda: True),
}

# the classes whose instances above hash; hashing any other raises TypeError
HASHABLE = {
    Symbol,
    Tensor3,
    Predicates,
    ConnectionForms,
    IntrinsicTorsion,
    CartanParts,
    CharacteristicConnection,
    CompatibilityReport,
    SpinorKernelReport,
    SpinorSpace,
    FamilyParams,
    IdentityReplayReport,
    GroupIdentification,
}


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:
        return None


def test_every_value_class_is_covered():
    """CASES holds every Frozen class and every NamedTuple that the layers define."""
    defined = {
        v
        for m in (acms, connection, exterior, family, frames, groups, torsionclass)
        for v in vars(m).values()
        if isinstance(v, type) and v.__module__ == m.__name__
        and (issubclass(v, Frozen) and v not in (Frozen, View) or issubclass(v, tuple))
    }
    assert defined == set(CASES) and len(CASES) == 22


@pytest.mark.parametrize("cls", CASES, ids=lambda c: c.__name__)
def test_value_class_contract(cls):
    make, position, changed = CASES[cls]
    a, b = cls(*make()), cls(*make())
    for name in fields(cls):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    assert a == b and not a != b
    assert (_hash(a), _hash(b)) == ((hash(b),) * 2 if cls in HASHABLE else (None, None))
    args = list(make())
    args[position] = changed()
    c = cls(*args)
    assert a != c and not a == c
