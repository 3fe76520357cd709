"""Each invariant of one structure is computed once.

``acms.derived`` memoizes the invariants on the frame connection, so a
classify report or an identity replay runs each two-path cross-check once
per structure.  The second nabla Phi call comes from the compatibility
check of the characteristic connection, which is a different structure;
it runs once, when the connection is built.  The projections of the five
w(e_k) to the complement of the stabilizer are read as one torsion view
per structure, shared by the intrinsic torsion and nabla Phi, dPhi is
computed once and shared by the predicates and gamma, and the module
norms need no linear solve.  The Levi-Civita solve is a closed form and
runs no elimination, and the d^2-gate contracts a constant table without
ext_d and runs once per coframe: ``CoframeData.d_squared_gate`` keeps its
report, so curvature does not gate again a coframe that ``family.build`` or
the classify report has gated.
"""

from pathlib import Path

import pytest

from acm5 import acms, frames
from acm5.cli import _to_float_coframe, classification_report, load_coframe
from acm5.exterior import d_squared_zero
from acm5.family import verify_identities
from acm5.groups import build
from acm5.torsionclass import w_subspaces
from helpers import GOLDEN_INPUTS, count_calls, trig_coframe

ONCE = (
    "acms.nijenhuis", "acms.d_phi_tensor", "acms.predicates", "acms.gamma_form", "acms.d_eta_form"
)
INPUT = Path(__file__).parent / "golden" / "inputs" / "family_1_0_2_0.json"


def test_identity_replay_computes_each_invariant_once():
    inst = build(1, 0, 2, 0)
    with count_calls("acms.nabla_phi", "connection.compatibility_report", *ONCE) as calls:
        assert verify_identities(inst).ok
    assert calls["acms.nabla_phi"] <= 2
    assert calls["connection.compatibility_report"] == 1
    assert {name: calls[name] for name in ONCE} == dict.fromkeys(ONCE, 1)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_classification_report_computes_each_invariant_once(mode):
    c = load_coframe(str(INPUT))
    if mode == "float":
        c = _to_float_coframe(c)
    with count_calls("acms.nabla_phi", *ONCE) as calls:
        report, code = classification_report(c)
    assert code == 0 and report["characteristic_connection"] is not None
    assert calls["acms.nabla_phi"] <= 2
    assert {name: calls[name] for name in ONCE} == dict.fromkeys(ONCE, 1)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize(
    "name,structures", [("family_1_0_2_0.json", 2), ("su2_block.json", 1)]
)
def test_classification_report_projects_each_connection_form_once(name, structures, mode):
    """One torsion view per structure: the Levi-Civita connection, and on a
    generalized quasi-Sasaki input the characteristic connection too; plus
    one per auxiliary symbol, whose channel must project to zero.  The
    submodule bases are built once per process, before counting."""
    c = load_coframe(str(INPUT.parent / name))
    if mode == "float":
        c = _to_float_coframe(c)
    w_subspaces()
    with count_calls("acms.complement_view", "linalg.solve_unique") as calls:
        report, code = classification_report(c)
    assert code == 0
    assert (report["characteristic_connection"] is not None) == (structures == 2)
    aux = c.n_symbols - 5
    assert calls["acms.complement_view"] == structures + aux
    assert calls["linalg.solve_unique"] == 0


def test_identity_replay_gates_the_coframe_once():
    with count_calls("exterior.d_squared_zero", "connection.curvature") as calls:
        assert verify_identities(build(1, 0, 2, 0)).ok
    assert calls == {"exterior.d_squared_zero": 1, "connection.curvature": 1}


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_classification_report_gates_the_coframe_once(mode):
    c = load_coframe(str(INPUT))
    if mode == "float":
        c = _to_float_coframe(c)
    with count_calls("exterior.d_squared_zero", "connection.curvature") as calls:
        report, code = classification_report(c)
    assert code == 0 and report["characteristic_connection"] is not None
    assert calls == {"exterior.d_squared_zero": 1, "connection.curvature": 1}


def test_gate_report_is_kept_per_coframe():
    c = load_coframe(str(INPUT))
    with count_calls("exterior.d_squared_zero") as calls:
        assert c.d_squared_gate is c.d_squared_gate
        assert c.with_trig_rules().d_squared_gate.ok  # a new coframe gates again
    assert calls["exterior.d_squared_zero"] == 2


def test_memo_computes_once_and_direct_calls_always_compute():
    fc = acms.frame_connection(build(1, 0, 2, 0).omega_g)
    with count_calls("acms.nabla_phi") as calls:
        first = acms.derived(fc, acms.nabla_phi)
        assert acms.derived(fc, acms.nabla_phi) is first
        assert acms.nabla_phi(fc) == first
    assert calls["acms.nabla_phi"] == 2
    assert fc == acms.frame_connection(build(1, 0, 2, 0).omega_g)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_levi_civita_solve_runs_no_elimination(mode):
    c = load_coframe(str(INPUT))
    if mode == "float":
        c = _to_float_coframe(c)
    with count_calls("linalg.rref", "frames.connection_from_structure") as calls:
        omega = frames.connection_from_structure(c)
    assert frames.verify_first_structure(c, omega).ok
    assert calls == {"frames.connection_from_structure": 1}


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=lambda p: p.stem)
def test_d_squared_gate_runs_no_ext_d_on_constant_tables(path, mode):
    c = load_coframe(str(path))
    if mode == "float":
        c = _to_float_coframe(c)
    with count_calls("exterior.ext_d", "exterior.wedge") as calls:
        assert d_squared_zero(c).ok
    assert calls == {}


def test_d_squared_gate_keeps_ext_d_for_trig_coefficients():
    c = trig_coframe()
    with count_calls("exterior.ext_d") as calls:
        assert not d_squared_zero(c).ok
    assert calls["exterior.ext_d"] == 2 * c.n_symbols
