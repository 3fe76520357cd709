import itertools
import random
from fractions import Fraction

import pytest

from acm5 import family
from acm5.acms import Z1, at, nijenhuis
from acm5.errors import DegenerateInputError, IntegrabilityError
from acm5.exterior import e, form, wedge
from acm5.family import verify_identities
from acm5.frames import ConnectionForms
from acm5.groups import build, family_params, identify_group, rational_sqrt
from acm5.torsionclass import classify, intrinsic_torsion

from helpers import family_table_oracle, form_items, random_fraction, t3_from_func


def random_valid_params(rng):
    """Either (a1, a2, t a1, t a2) or an axis pair; both satisfy the constraint."""
    kind = rng.randrange(3)
    if kind == 0:
        a1, a2, t = (random_fraction(rng) for _ in range(3))
        return (a1, a2, t * a1, t * a2)
    if kind == 1:
        return (random_fraction(rng), random_fraction(rng), Fraction(0), Fraction(0))
    return (Fraction(0), Fraction(0), random_fraction(rng), random_fraction(rng))


def test_build_frozen_values():
    inst = build(1, 0, 0, 0)
    a2 = form(1, {(5,): 1})
    assert inst.coframe.d_table[0] == wedge(a2, e(2)) - 2 * wedge(e(3), e(5))
    assert inst.coframe.d_table[4] == -2 * Z1
    assert inst.alpha == -4
    inst2 = build(0, 0, 1, 0)
    assert inst2.coframe.d_table[4] == 2 * Z1
    assert inst2.alpha == 2


@pytest.mark.parametrize("point, alpha", [
    ((Fraction(1, 2), 0, Fraction(-1, 2), 0), -1), ((Fraction(1, 2), 0, 1, 0), 2),
])
def test_an_integral_alpha_is_an_int_and_the_ricci_check_compares_ints(monkeypatch, point, alpha):
    """alpha is stored narrowed, so the replay's expected Ricci matrix, -alpha on the
    diagonal, holds ints where the storage rule keeps them, as the computed one does."""
    inst = build(*point)
    assert type(inst.alpha) is int and inst.alpha == alpha
    compared = []

    class Recorded(tuple):  # the computed Ricci matrix, recording what it is compared with
        __hash__ = tuple.__hash__

        def __eq__(self, other):
            compared.append(other)
            return tuple.__eq__(self, other)

    real = family.curvature
    monkeypatch.setattr(family, "curvature", lambda *args: (
        lambda cur: cur._replace(ricci=Recorded(cur.ricci)))(real(*args)))
    assert verify_identities(inst).ok
    [expected] = compared
    assert expected == ((-alpha, 0, 0, 0, 0), (0, -alpha, 0, 0, 0), (0, 0, -alpha, 0, 0),
                        (0, 0, 0, -alpha, 0), (0,) * 5)
    assert all(type(v) is int for row in expected for v in row)


# the integrable points of {0, 1, -1, 2, -3, 1/2, -3/4, 5}^4
TABLE_GRID = [
    p for p in itertools.product((0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4), 5), repeat=4)
    if p[0] * p[3] == p[1] * p[2]
]


def test_build_writes_the_table_of_the_form_chain():
    """At every integrable grid point, each entry of the structure table that ``build``
    writes term by term has the keys, key order, values, their types and the kind
    of the Form chain of wedges, scales, sums and differences that it replaced."""
    assert len(TABLE_GRID) == 334
    for point in TABLE_GRID:
        c = build(*point).coframe
        oracle = family_table_oracle(*family_params(*point).as_tuple())
        assert [c.name_of(s) for s in c.d_table] == list(oracle)
        assert [form_items(f) for f in c.d_table.values()] == [
            form_items(f) for f in oracle.values()
        ], point


def test_build_constraint_gate():
    with pytest.raises(IntegrabilityError):
        build(1, 0, 0, 1)
    with pytest.raises(IntegrabilityError):
        family_params(2, 3, 1, 1)


def test_verify_identities_spot_checks():
    rep = verify_identities(build(-5, 0, 1, 0))
    assert rep.ok
    assert dict((n, ok) for n, ok, _ in rep.items)[
        "nearly cosymplectic iff a1 = -5 a3 and a2 = -5 a4"
    ]
    rep0 = verify_identities(build(0, 0, 0, 0))
    assert rep0.ok
    assert intrinsic_torsion(build(0, 0, 0, 0).omega_g).is_zero()


def test_random_family_classification():
    rng = random.Random(83)
    for _ in range(8):
        params = random_valid_params(rng)
        inst = build(*params)
        report = classify(intrinsic_torsion(inst.omega_g))
        a1, a2, a3, a4 = params
        assert report.norms["residual"] == 0
        assert report.norms["W3"] == 0
        assert report.norms["W5"] == 0
        assert report.norms["W6"] == 0
        assert (report.norms["W4"] == 0) == (a1 == 0 and a2 == 0)
        assert (report.norms["W7"] == 0) == (a3 == 0 and a4 == 0)


def test_random_parameter_identity_replay():
    rng = random.Random(131)
    for _ in range(6):
        rep = verify_identities(build(*random_valid_params(rng)))
        assert rep.ok, rep.failing


def _failing(inst):
    return set(verify_identities(inst).failing)


def _perturb_pair(omega, i, j, f):
    """The connection with the metric 1-form f added at (i, j) and subtracted at (j, i),
    0-based, written into its view."""
    view = list(omega.flat)
    for (k,), v in f.terms.items():
        view[at(k, i, j)] += v
        view[at(k, j, i)] -= v
    return ConnectionForms(tuple(view))


def _bump(t, entry):
    """The trilinear tensor t with 1 added at one 0-based entry."""
    return t + t3_from_func(lambda *ids: 1 if ids == entry else 0)


# each replay check fails when one entry it compares is perturbed, in the
# upper triangle and, where the object has one, outside it


@pytest.mark.parametrize("pair", [(0, 1), (4, 2)])
def test_replay_fails_on_a_perturbed_levi_civita_entry(pair):
    inst = build(1, 0, 2, 0)
    bad = inst._replace(omega_g=_perturb_pair(inst.omega_g, *pair, e(3)))
    assert _failing(bad) == {"levi-civita solve matches the tabulated connection"}


@pytest.mark.parametrize("pair", [(0, 1), (3, 0)])
def test_replay_fails_on_a_perturbed_compatible_connection_entry(monkeypatch, pair):
    inst = build(1, 0, 2, 0)
    monkeypatch.setattr(  # the replay builds one connection: the expected compatible one
        family, "ConnectionForms", lambda view: _perturb_pair(ConnectionForms(view), *pair, e(2))
    )
    assert _failing(inst) == {"A2 determines the compatible connection"}


def _bump_nijenhuis(monkeypatch, entry):
    real = family.derived
    monkeypatch.setattr(
        family,
        "derived",
        lambda fc, fn: _bump(real(fc, fn), entry) if fn is nijenhuis else real(fc, fn),
    )


@pytest.mark.parametrize("entry", [(0, 1, 3), (0, 3, 1), (2, 3, 0)])
def test_replay_fails_on_a_perturbed_skew_nijenhuis_entry(monkeypatch, entry):
    inst = build(3, 4, 0, 0)
    _bump_nijenhuis(monkeypatch, entry)
    failing = _failing(inst)
    assert "skew case: N = 2 (d eta ^ eta)" in failing
    assert "skew case: N + gamma ^ eta = 0" in failing


@pytest.mark.parametrize("entry", [(0, 2, 4), (2, 4, 0), (4, 3, 1)])
def test_replay_fails_on_a_perturbed_cyclic_nijenhuis_entry(monkeypatch, entry):
    inst = build(0, 0, 1, 2)
    _bump_nijenhuis(monkeypatch, entry)
    assert "cyclic case: N = 2 eta (x) d eta + eta-weighted tail" in _failing(inst)


@pytest.mark.parametrize("params", [(1, 0, 0, 0), (1, 0, 1, 0)])
@pytest.mark.parametrize("entry", [(0, 1), (3, 1), (4, 2)])
def test_replay_fails_on_a_perturbed_curvature_entry(monkeypatch, params, entry):
    inst = build(*params)
    real = family.curvature

    def perturbed(cf, omega):
        cur = real(cf, omega)
        grid = [list(row) for row in cur.curvature]
        i, j = entry
        grid[i][j] = grid[i][j] + Z1
        return cur._replace(curvature=tuple(map(tuple, grid)))

    monkeypatch.setattr(family, "curvature", perturbed)
    assert _failing(inst) == {"curvature = alpha F (x) F"}


@pytest.mark.parametrize("entry", [(1, 1), (4, 4), (4, 2)])
def test_replay_fails_on_a_perturbed_ricci_entry(monkeypatch, entry):
    inst = build(1, 0, 0, 0)
    real = family.curvature

    def perturbed(cf, omega):
        cur = real(cf, omega)
        ricci = [list(row) for row in cur.ricci]
        i, j = entry
        ricci[i][j] += 1
        return cur._replace(ricci=tuple(map(tuple, ricci)))

    monkeypatch.setattr(family, "curvature", perturbed)
    assert _failing(inst) == {"Ricci = -alpha diag(1,1,1,1,0)"}


def test_identify_group_catalog():
    assert identify_group((3, 4, 0, 0)).tag == "su2+su2"
    assert identify_group((0, 0, 3, 4)).tag == "sl2+sl2"
    assert identify_group((1, 0, 1, 0)).tag == "abelian6"
    assert identify_group((-1, 0, 2, 0)).tag == "heis5+R"
    assert identify_group((-1, 0, 2, 0)).certificate_verified


def test_identify_group_edges():
    with pytest.raises(DegenerateInputError):
        identify_group((0, 0, 0, 0))
    g = identify_group((1, 1, 1, 1))
    assert g.tag == "unclassified-here" and g.frame_change is None
    # irrational radical: tag known, certificate withheld
    h = identify_group((1, 1, 0, 0))
    assert h.tag == "su2+su2" and h.frame_change is None and "quadratic" in h.note


def test_identify_group_swap_agreement():
    rng = random.Random(89)
    for _ in range(8):
        a2 = random_fraction(rng)
        a4 = random_fraction(rng)
        if a2 == 0 and a4 == 0:
            continue
        lhs = identify_group((0, a2, 0, a4))
        rhs = identify_group((a2, 0, a4, 0))
        assert lhs.tag == rhs.tag
        if a2 != 0 and a4 != 0:
            # genuine swapped case; axis points route through the block cases
            assert lhs.reconstructed and not rhs.reconstructed


def test_stiefel_point_is_strict_w4_not_integrable():
    from acm5.acms import nijenhuis, predicates

    inst = build(3, 4, 0, 0)
    report = classify(intrinsic_torsion(inst.omega_g))
    assert report.class_tags == ("W4",)
    preds = predicates(inst.omega_g)
    assert not preds.normal and not preds.cosymplectic
    n = nijenhuis(inst.omega_g)
    assert not n.is_zero() and n.is_totally_skew()


def test_rational_sqrt():
    assert rational_sqrt(Fraction(16, 9)) == Fraction(4, 3)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-4)) is None
