"""The identity replay of the four-parameter family of :mod:`acm5.groups`.

The replay recomputes the family's catalog of identities from first
principles, through every layer, and states each once, as a comparison of
whole objects through the library's own exact ``==``: connections by their
views, trilinear tensors over all 125 entries, tuples of forms element-wise.
No connection form is built: the tabulated and the expected compatible
connection are views (``groups.build``, ``A2_CHANNEL``).
"""

from __future__ import annotations

from itertools import chain, product
from typing import NamedTuple

from .acms import (
    ETA,
    F,
    HORIZONTAL,
    XI,
    Z1,
    Z2,
    Tensor3,
    at,
    contract,
    d_eta_form,
    derived,
    gamma_form,
    nabla_phi,
    nijenhuis,
    phi_pullback,
    predicates,
    t3_from_form3,
)
from .connection import (
    characteristic_connection,
    curvature,
    kernel_of_f,
    parallel_spinor_check,
    spinor_space,
    torsion_type,
)
from .exterior import dense2, e, ext_d, proportionality, wedge, zero_form
from .frames import ConnectionForms, connection_from_structure
# build and identify_group stay bound here: bench/tracing.LAYERS traces them as family.*
from .groups import A2_CHANNEL, FamilyInstance, build, identify_group
from .torsionclass import SKEW, VEC, classify, intrinsic_torsion


class IdentityReplayReport(NamedTuple):
    items: tuple  # (name, ok, detail)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.items)

    @property
    def failing(self):
        return [name for name, ok, _ in self.items if not ok]


def verify_identities(inst: FamilyInstance) -> IdentityReplayReport:
    """Replay the family's catalog of identities from first principles.

    Every quantity is recomputed through the generic machinery (structure
    solve, torsion projection, tensor formulas); the stored tables only
    supply expected values.
    """
    a1, a2, a3, a4 = inst.params.as_tuple()
    cf = inst.coframe
    items = []

    def check(name, ok, detail=""):
        items.append((name, bool(ok), detail))

    solved = connection_from_structure(cf)
    check("levi-civita solve matches the tabulated connection", solved == inst.omega_g)

    deta = derived(solved, d_eta_form)
    check("d eta from values matches d(e5)", deta == ext_d(e(5), cf))
    gamma = derived(solved, gamma_form)
    check("gamma + 2 d eta = 6 a3 Z1 + 6 a4 Z2", gamma + 2 * deta == (6 * a3) * Z1 + (6 * a4) * Z2)
    check("gamma - d eta = 6 a1 Z1 + 6 a2 Z2", gamma - deta == (6 * a1) * Z1 + (6 * a2) * Z2)
    check(
        "consistency: (gamma + 2 d eta) - (gamma - d eta) = 3 d eta",
        3 * deta == (-6 * (a1 - a3)) * Z1 + (-6 * (a2 - a4)) * Z2,
    )

    nij = derived(solved, nijenhuis)
    check("N(xi, ., .) = 2 d eta", nij.component_form(XI + 1) == 2 * deta)

    skew_expected = a3 == 0 and a4 == 0
    cyclic_expected = a1 == 0 and a2 == 0
    nv = nij.flat
    n_skew = nij.is_totally_skew()
    cyc_sum_zero = all(v == 0 for v in contract(SKEW, nv))  # N(x, y, z) + N(y, z, x) + N(z, x, y)
    traces_zero = all(v == 0 for v in contract(VEC, nv + (0,)))
    n_cyclic = cyc_sum_zero and traces_zero
    check("N totally skew iff a3 = a4 = 0", n_skew == skew_expected or nij.is_zero())
    check("N traceless cyclic iff a1 = a2 = 0", n_cyclic == cyclic_expected or nij.is_zero())
    if skew_expected:
        check("skew case: N = 2 (d eta ^ eta)", nij == t3_from_form3(2 * wedge(deta, ETA)))
        check("skew case: N + gamma ^ eta = 0", (nij + t3_from_form3(wedge(gamma, ETA))).is_zero())
    if cyclic_expected:
        check("cyclic case: gamma = d eta", gamma == deta)
        eta, de = [ETA.coefficient((x,)) for x in range(5)], dense2(deta)
        cyc_expected = Tensor3(
            tuple(
                2 * eta[x] * de[y][z] + eta[y] * de[x][z] - eta[z] * de[x][y]
                for x, y, z in product(range(5), repeat=3)
            )
        )
        check("cyclic case: N = 2 eta (x) d eta + eta-weighted tail", nij == cyc_expected)

    check("d F = 0", ext_d(F, cf).is_zero())
    check("d eta is phi-anti-invariant", phi_pullback(deta) == -1 * deta)

    preds = derived(solved, predicates)
    check("generalized quasi-Sasaki", preds.generalized_quasi_sasaki)
    check("semi-cosymplectic", preds.semi_cosymplectic)
    torsion = intrinsic_torsion(solved)
    gamma_zero = torsion.is_zero()
    check("normal iff integrable", preds.normal == gamma_zero)
    check("almost cosymplectic iff integrable", preds.almost_cosymplectic == gamma_zero)
    check(
        "nearly cosymplectic iff a1 = -5 a3 and a2 = -5 a4",
        preds.nearly_cosymplectic == (a1 == -5 * a3 and a2 == -5 * a4),
    )
    check(
        "quasi-cosymplectic iff a1 = -2 a3 and a2 = -2 a4",
        preds.quasi_cosymplectic == (a1 == -2 * a3 and a2 == -2 * a4),
    )

    npv = derived(solved, nabla_phi).flat
    # (nabla_xi Phi)(e_b, e_a) in slot at(XI, b, a) against entry [a][b] of the display
    disp1 = dense2((-2 * a2 - 4 * a4) * Z1 + (2 * a1 + 4 * a3) * Z2)
    check("display: nabla_xi phi", npv[at(XI, 0, 0) :] == tuple(chain(*zip(*disp1))))
    disp2 = dense2((a2 - a4) * Z1 + (-(a1 - a3)) * Z2)
    check("display: nabla phi of xi", npv[at(0, 0, XI) :: 5] == tuple(chain(*disp2)))
    check(
        "display: horizontal phi-twisted derivative vanishes",
        all(v == 0 for v in contract(HORIZONTAL, npv)),
    )

    cc = characteristic_connection(solved)
    expected_c = ConnectionForms((0,) * 125 + A2_CHANNEL)
    check("A2 determines the compatible connection", cc.omega_c == expected_c)
    check("compatible connection parallelizes xi, eta, phi", cc.compatibility.ok)

    _, tag = torsion_type(cc)
    check("torsion skew iff a3 = a4 = 0", (tag in ("skew", "zero")) == skew_expected)
    check(
        "torsion traceless cyclic iff a1 = a2 = 0",
        (tag in ("traceless-cyclic", "zero")) == cyclic_expected,
    )

    cur = curvature(cf, cc.omega_c)
    alpha_f = inst.alpha * F
    r_expected = [[zero_form(2)] * 5 for _ in range(5)]
    r_expected[0][1] = r_expected[3][2] = alpha_f
    r_expected[1][0] = r_expected[2][3] = -alpha_f
    check("curvature = alpha F (x) F", cur.curvature == tuple(map(tuple, r_expected)))
    ric_expected = tuple(
        tuple(-inst.alpha if i == j < 4 else 0 for j in range(5)) for i in range(5)
    )
    check("Ricci = -alpha diag(1,1,1,1,0)", cur.ricci == ric_expected)
    if inst.alpha != 0:
        check(
            "holonomy algebra is the line through e12 - e34",
            len(cur.holonomy_basis) == 1
            and proportionality(cur.holonomy_basis[0], F) is not None,
        )
    else:
        check("holonomy algebra is trivial (flat case)", len(cur.holonomy_basis) == 0)

    ker = kernel_of_f()
    check("spinor kernel of F has dimension 2", ker.dimension == 2)
    check(
        "spin lift annihilates the kernel",
        parallel_spinor_check(spinor_space(), cc.omega_c, ker.kernel_basis),
    )

    report = classify(torsion)
    check(
        "class is W4 + W7 with empty residual",
        report.norms["residual"] == 0
        and report.norms["W3"] == 0
        and report.norms["W5"] == 0
        and report.norms["W6"] == 0,
    )
    check("W4 component iff (a1, a2) != 0", (report.norms["W4"] != 0) == (a1 != 0 or a2 != 0))
    check("W7 component iff (a3, a4) != 0", (report.norms["W7"] != 0) == (a3 != 0 or a4 != 0))
    return IdentityReplayReport(tuple(items))
