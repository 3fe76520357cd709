import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acm5.acms import frame_connection
from acm5.cli import _to_float_coframe, emit_coframe, load_coframe, main
from acm5.errors import RankError, UnsupportedSymbolError
from acm5.exterior import (
    CoframeData,
    coframe,
    d_squared_zero,
    e,
    form,
    standard_symbols,
    wedge,
    zero_form,
)
from acm5.frames import (
    ConnectionForms,
    FrameChange,
    at,
    canonical_algebra,
    connection_from_structure,
    frame_change_verify,
    verify_first_structure,
)
from acm5.groups import build, identify_group, rational_sqrt
from acm5.scalars import COS_F, sis_zero

from helpers import (
    GOLDEN,
    GOLDEN_FAMILY_POINTS,
    GOLDEN_INPUTS,
    abelian_coframe,
    bits,
    connection_forms,
    connection_from_structure_oracle,
    entry,
    flatten_oracle,
    form_items,
    induced_d_table,
    koszul_oracle,
    pointwise_from_upper,
    random_fraction,
    structure_solve_oracle,
    trig_coframe,
)


def su2_block_coframe():
    """du1 = -u2^u3 cyclic on the first three legs, rest abelian."""
    return coframe(
        {
            "e1": -1 * wedge(e(2), e(3)),
            "e2": -1 * wedge(e(3), e(1)),
            "e3": -1 * wedge(e(1), e(2)),
        }
    )


def test_koszul_abelian_is_zero():
    om = connection_from_structure(abelian_coframe())
    assert all(om.omega[i][j].is_zero() for i in range(5) for j in range(5))


def test_koszul_su2_block_values():
    om = connection_from_structure(su2_block_coframe())
    # bi-invariant metric: nabla_X Y = [X, Y] / 2
    assert entry(om, 1, 2) == form(1, {(2,): Fraction(1, 2)})
    assert entry(om, 2, 3) == form(1, {(0,): Fraction(1, 2)})
    assert entry(om, 3, 1) == form(1, {(1,): Fraction(1, 2)})
    assert verify_first_structure(su2_block_coframe(), om).ok


def test_koszul_matches_bracket_oracle():
    rng = random.Random(41)
    # random constant structure table (not closed, but the solve is algebraic)
    d_forms = {}
    for i in range(1, 6):
        terms = {}
        for a in range(5):
            for b in range(a + 1, 5):
                c = random_fraction(rng, span=2, den=2)
                if c:
                    terms[(a, b)] = c
        d_forms[f"e{i}"] = form(2, terms)
    cf = coframe(d_forms)
    om = connection_from_structure(cf)
    oracle = koszul_oracle([cf.d_table[i] for i in range(5)])
    for b in range(5):
        for c in range(5):
            for a in range(5):
                assert om.omega[b][c].coefficient((a,)) == oracle[b][c][a]
    assert verify_first_structure(cf, om).ok


def test_family_table_satisfies_first_structure():
    # worked table at a = (1,0,0,0)
    inst = build(1, 0, 0, 0)
    om = connection_forms(
        {
            (1, 3): e(5),
            (2, 4): -1 * e(5),
            (1, 5): -1 * e(3),
            (2, 5): e(4),
            (3, 5): e(1),
            (4, 5): -1 * e(2),
            (1, 2): form(1, {(5,): 1}),
            (3, 4): form(1, {(5,): -1}),
        }
    )
    assert verify_first_structure(inst.coframe, om).ok
    # generic parameter point with the constraint satisfied
    inst2 = build(1, 2, 3, 6)
    assert verify_first_structure(inst2.coframe, inst2.omega_g).ok


def test_first_structure_fails_for_zero_connection():
    inst = build(1, 0, 0, 0)
    zero = connection_forms({})
    rep = verify_first_structure(inst.coframe, zero)
    assert not rep.ok and rep.failing


def test_koszul_output_is_unique_solution():
    cf = su2_block_coframe()
    om = connection_from_structure(cf)
    rng = random.Random(5)
    for _ in range(10):
        i = rng.randrange(5)
        j = rng.randrange(5)
        while j == i:
            j = rng.randrange(5)
        k = rng.randrange(5)
        delta = form(1, {(k,): Fraction(1, 3)})
        grid = [list(row) for row in om.omega]
        grid[i][j] = grid[i][j] + delta
        grid[j][i] = grid[j][i] - delta
        perturbed = connection_forms({})
        object.__setattr__(perturbed, "omega", tuple(tuple(r) for r in grid))
        assert not verify_first_structure(cf, perturbed).ok


def test_pointwise_values_induce_the_source_structure_table():
    cf = su2_block_coframe()
    om = connection_from_structure(cf)
    upper = {}
    for i in range(1, 6):
        for j in range(i + 1, 6):
            for k in range(1, 6):
                v = entry(om, i, j).coefficient((k - 1,))
                if v:
                    upper[(i, j, k)] = v
    induced = induced_d_table(pointwise_from_upper(upper))
    for i in range(5):
        assert induced[f"e{i + 1}"] == cf.d_table[i]


def test_structure_solver_agrees_with_koszul():
    cf = su2_block_coframe()
    assert connection_from_structure(cf) == structure_solve_oracle(cf)


@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=[p.name for p in GOLDEN_INPUTS])
def test_structure_solver_matches_dense_oracle_on_golden_inputs(path):
    c = load_coframe(str(path))
    assert connection_from_structure(c) == structure_solve_oracle(c)


@pytest.mark.parametrize(
    "params", GOLDEN_FAMILY_POINTS, ids=["_".join(map(str, p)) for p in GOLDEN_FAMILY_POINTS]
)
def test_structure_solver_matches_dense_oracle_on_golden_family_points(params):
    c = build(*params).coframe
    assert connection_from_structure(c) == structure_solve_oracle(c)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(_RATIONALS, min_size=10 * 7, max_size=10 * 7),
    n_aux=st.integers(min_value=0, max_value=2),
)
def test_structure_solver_round_trips_a_random_connection(values, n_aux):
    # any antisymmetric w is the Levi-Civita connection of the table it induces
    names = [f"A{k}" for k in range(1, n_aux + 1)]
    nsym = 5 + n_aux
    it = iter(values)
    w = connection_forms(
        {
            (i, j): form(1, {(s,): next(it) for s in range(nsym)})
            for i in range(1, 6)
            for j in range(i + 1, 6)
        }
    )
    table = {}
    for i in range(5):
        de = zero_form(2)
        for j in range(5):
            de = de + wedge(w.omega[i][j], e(j + 1))
        table[f"e{i + 1}"] = de
    c = coframe(table, auxiliary=names)
    assert connection_from_structure(c) == w
    assert verify_first_structure(c, w).ok


_EXACT = st.one_of(st.integers(-3, 3), _RATIONALS)
_FLOATS = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-2, 2, allow_nan=False, width=64))


@st.composite
def solve_tables(draw):
    """A constant table on 5 to 7 symbols, exact or float (signed zeros included):
    random terms (with an auxiliary symbol it is rarely solvable), the table that a
    random antisymmetric connection induces (always solvable), or an integrable
    table whose derivatives are wedges of generators with zero derivative."""
    nsym = 5 + draw(st.integers(0, 2))
    values, shape = draw(st.sampled_from((_EXACT, _FLOATS))), draw(st.integers(0, 2))
    monos = [(i, j) for i in range(nsym) for j in range(i + 1, nsym)]
    table = {}
    if shape == 1:
        w = connection_forms({(i, j): form(1, draw(st.dictionaries(
            st.sampled_from([(s,) for s in range(nsym)]), values, max_size=3)))
            for i in range(1, 6) for j in range(i + 1, 6)})
        for i in range(5):
            de = zero_form(2)
            for j in range(5):
                de = de + wedge(w.omega[i][j], e(j + 1))
            table[i] = de
    else:
        closed = set()  # the generators with zero derivative of an integrable table
        if shape == 2:
            closed = set(draw(st.lists(st.integers(0, nsym - 1), min_size=2, unique=True)))
            monos = [m for m in monos if set(m) <= closed]
        for sid in range(nsym):
            terms = {} if sid in closed else draw(st.dictionaries(st.sampled_from(monos), values, max_size=6))
            table[sid] = form(2, terms)
    for sid in range(nsym):
        table.setdefault(sid, zero_form(2))
    return CoframeData(standard_symbols([f"A{k}" for k in range(nsym - 5)]), table)


def _check_solve(c):
    """The solve against the forms and flatten it replaced: the same RankError, or the
    same view (type and bits per slot, one block per coframe symbol) and forms (item by
    item), the forms built only when first read, and frame_connection returning the
    solve itself."""
    try:
        ref = connection_from_structure_oracle(c)
    except RankError as exc:
        with pytest.raises(RankError) as info:
            connection_from_structure(c)
        assert str(info.value) == str(exc)
        return
    cf = connection_from_structure(c)
    assert [bits(v) for v in cf.view] == [bits(v) for v in flatten_oracle(ref.omega, c.n_symbols)]
    assert "omega" not in vars(cf)
    assert frame_connection(cf) is cf
    assert "omega" not in vars(cf)
    for i in range(5):
        for j in range(5):
            assert form_items(cf.omega[i][j]) == form_items(ref.omega[i][j])
    assert cf == ref


@settings(max_examples=200, deadline=None)
@given(solve_tables())
def test_solve_writes_the_view_of_the_forms_it_replaced(c):
    _check_solve(c)


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("path", GOLDEN_INPUTS, ids=[p.name for p in GOLDEN_INPUTS])
def test_solve_writes_the_view_of_the_forms_it_replaced_on_golden_inputs(path, mode):
    c = load_coframe(str(path))
    _check_solve(c if mode == "exact" else _to_float_coframe(c))


@pytest.mark.parametrize(
    "table, auxiliary, message",
    [
        ({"e5": form(2, {(5, 6): 1})}, ("A", "B"), "de5 has a term in A^B"),
        ({"e1": wedge(e(2), form(1, {(5,): 1}))}, ("A",), "de1, de2 disagree on the A channel"),
        ({"e3": wedge(e(3), form(1, {(5,): 1})), "e4": form(2, {(5, 6): 2})}, ("A", "B"),
         "de4 has a term in A^B"),
        ({"e2": wedge(e(4), form(1, {(6,): 1}))}, ("A", "B"), "de2, de4 disagree on the B channel"),
    ],
    ids=["aux-wedge-aux", "channels-disagree", "aux-wedge-aux-first", "second-channel"],
)
def test_solve_keeps_each_rank_error_message(table, auxiliary, message):
    c = coframe(table, auxiliary=auxiliary)
    with pytest.raises(RankError) as info:
        connection_from_structure(c)
    assert str(info.value) == f"no Levi-Civita solution: {message}"


@pytest.mark.parametrize("make", [
    lambda: connection_from_structure(trig_coframe()),  # de1 = cos(f) e2^e3
    # cos(f) at slot (0, 1, 2) and -cos(f) at (1, 0, 2): antisymmetric, but trig-valued
    lambda: ConnectionForms(tuple({7: COS_F, 27: -COS_F}.get(s, 0) for s in range(125))),
], ids=["solve", "ConnectionForms"])
def test_trig_value_is_refused_when_the_connection_is_built(make):
    with pytest.raises(UnsupportedSymbolError) as info:
        make()
    assert str(info.value) == "trig-valued connection entries are out of scope"


SKEW01 = (0, 1, 0, 0, 0, -1) + (0,) * 19  # the block M with M[0][1] = 1, M[1][0] = -1


@pytest.mark.parametrize("i, j", [(0, 1), (3, 3), (4, 2)])
def test_view_antisymmetric_in_its_metric_slots_but_not_in_a_channel_is_refused(i, j):
    """The one check of ConnectionForms reads the auxiliary blocks as well as the metric ones."""
    view = connection_forms({(1, 2): form(1, {(0,): 2, (5,): 1})}).view
    assert view[125:] == SKEW01
    assert ConnectionForms(view).view == view
    bad = list(view)
    bad[at(5, i, j)] += 1
    with pytest.raises(ValueError, match=r"^pointwise data must be antisymmetric in \(i, j\)$"):
        ConnectionForms(tuple(bad))


@pytest.mark.parametrize("a, b", [
    (Fraction(1, 3), Fraction(-1, 3)), (Fraction(1, 3), Fraction(-1, 3) + Fraction(1, 10**12)),
    (2, -2), (2, -1), (1, -1.0), (0.1, -0.1), (0.1, -0.1 + 1e-12), (0.1, -0.1 + 2e-9),
    (Fraction(1, 10**12), 0.0), (0.0, -0.0), (float("nan"), float("nan")),
])
def test_antisymmetry_verdict_is_that_of_the_sum(a, b):
    """The constructor tests a == -b first and sis_zero(a + b) after it: on a slot pair of a
    metric block and of an auxiliary block, of finite values or NaN, it accepts exactly the
    pairs whose sum sis_zero accepts (only inf and -inf, equal to -b but summing to NaN,
    would differ)."""
    metric, aux = [0] * 125, [0] * 150
    metric[at(2, 0, 1)], metric[at(2, 1, 0)] = a, b
    aux[at(5, 1, 3)], aux[at(5, 3, 1)] = a, b
    for view in (tuple(metric), tuple(aux)):
        if sis_zero(a + b):
            assert ConnectionForms(view).view == view
        else:
            with pytest.raises(ValueError, match="antisymmetric"):
                ConnectionForms(view)


HEIS5 = GOLDEN / "inputs" / "heis5_sasakian.json"


@pytest.mark.parametrize("n", [124, 126, 0, 100, 160],
                         ids=["short", "long", "empty", "four-blocks", "not-whole-blocks"])
def test_malformed_view_is_refused(n):
    """A view is 25 values per symbol, the five metric symbols' blocks at least: a length
    that is not a positive multiple of 25, or is below 125, is refused."""
    with pytest.raises(ValueError, match=r"^a connection view is 25 values per symbol, the 5 "):
        ConnectionForms((0,) * n)


def test_a_block_is_a_symbol_s_and_a_coframe_solves_to_one_block_per_symbol():
    """With auxiliary symbols A and B, de1 = B ^ e2 and de2 = -B ^ e1, only B has a
    nonzero block: the solve writes the zero block 5 of A and w[1][2](B) = 1 in block 6."""
    b = form(1, {(6,): 1})
    c = coframe({"e1": wedge(b, e(2)), "e2": -1 * wedge(b, e(1))}, auxiliary=("A", "B"))
    view = connection_from_structure(c).view
    assert view == (0,) * 150 + SKEW01


def test_view_equality_reads_a_block_that_one_side_lacks_as_zeros():
    """== holds across a missing trailing zero block, both ways, and fails across a
    nonzero one."""
    view = connection_from_structure(load_coframe(str(HEIS5))).view
    short, padded = ConnectionForms(view), ConnectionForms(view + (0,) * 25)
    assert short == padded and padded == short
    assert short != ConnectionForms(view + SKEW01) and ConnectionForms(view + SKEW01) != short


A_WEDGE = {"e1": wedge(e(2), form(1, {(5,): 1}))}
AUX_PAIR = {"e5": form(2, {(5, 6): 1})}


@pytest.mark.parametrize(
    "table, auxiliary",
    [(A_WEDGE, ("A",)), (AUX_PAIR, ("A", "B"))],
    ids=["channels-disagree", "aux-wedge-aux"],
)
def test_unsolvable_structure_raises_rank_error(table, auxiliary, tmp_path, capsys):
    c = coframe(table, auxiliary=auxiliary)
    assert d_squared_zero(c).ok
    with pytest.raises(RankError):
        connection_from_structure(c)
    with pytest.raises(RankError):
        structure_solve_oracle(c)
    path = tmp_path / "unsolvable.json"
    emit_coframe(c, str(path))
    capsys.readouterr()
    assert main(["classify", str(path), "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: RankError:")


def test_first_structure_in_float_mode():
    c = _to_float_coframe(load_coframe(str(GOLDEN / "inputs" / "family_1_0_2_0.json")))
    omega = connection_from_structure(c)
    assert omega.omega[0][2].mode == "float"
    assert verify_first_structure(c, omega).ok
    assert not verify_first_structure(c, connection_forms({})).ok


def test_structure_solver_reproduces_family_table():
    inst = build(3, 4, 0, 0)
    solved = connection_from_structure(inst.coframe)
    assert all(
        (solved.omega[i][j] - inst.omega_g.omega[i][j]).is_zero()
        for i in range(5)
        for j in range(5)
    )


# -- canonical algebras and certificates -------------------------------------


@pytest.mark.parametrize("tag", ["su2+su2", "sl2+sl2", "abelian6", "heis5+R"])
def test_canonical_algebras_are_closed(tag):
    alg = canonical_algebra(tag)
    d_table = {}
    names = [f"g{i}" for i in range(1, 7)]
    for i in range(6):
        terms = {}
        for (j, k), coef in alg.d_coeffs.get(i, {}).items():
            terms[(j, k)] = coef
        d_table[names[i]] = form(2, terms)
    # embed on a 6-symbol coframe: five metric slots plus one auxiliary
    cf = coframe(
        {f"e{i + 1}": d_table[names[i]] for i in range(5)} | {"A2": d_table[names[5]]},
        auxiliary=("A2",),
    )
    assert d_squared_zero(cf).ok


def test_frame_change_verify_pythagorean_su2():
    g = identify_group((3, 4, 0, 0))
    assert g.tag == "su2+su2" and g.certificate_verified


def test_frame_change_verify_pythagorean_sl2():
    g = identify_group((0, 0, 3, 4))
    assert g.tag == "sl2+sl2" and g.certificate_verified


def test_frame_change_verify_trig_abelian():
    g = identify_group((1, 0, 1, 0))
    assert g.tag == "abelian6" and g.certificate_verified


def test_frame_change_verify_trig_heisenberg():
    g = identify_group((-1, 0, 2, 0))
    assert g.tag == "heis5+R" and g.certificate_verified


def test_frame_change_rank_error_on_dependent_forms():
    inst = build(3, 4, 0, 0)
    dep = FrameChange((e(1), e(1), e(2), e(3), e(4), e(5)))
    with pytest.raises(RankError):
        frame_change_verify(inst.coframe, dep, canonical_algebra("abelian6"))


def test_frame_change_false_on_wrong_target():
    g = identify_group((3, 4, 0, 0))
    assert not frame_change_verify(g.coframe, g.frame_change, canonical_algebra("sl2+sl2"))


def test_block_swap_invariance():
    g = identify_group((3, 4, 0, 0))
    u = g.frame_change.new_forms
    swapped = FrameChange((u[3], u[4], u[5], u[0], u[1], u[2]))
    assert frame_change_verify(g.coframe, swapped, canonical_algebra("su2+su2"))
    h = identify_group((0, 0, 3, 4))
    v = h.frame_change.new_forms
    swapped_h = FrameChange((v[3], v[4], v[5], v[0], v[1], v[2]))
    assert frame_change_verify(h.coframe, swapped_h, canonical_algebra("sl2+sl2"))


def test_rescaled_diagonal_case_by_integer_search():
    # search the smallest (a1, a3) with a3 not in {a1, -2 a1, 0} making
    # 2 (a1 - a3)(2 a1 + a3) a perfect square
    found = None
    for a1 in range(1, 8):
        for a3 in range(1, 8):
            if a3 in (a1,) or a3 == -2 * a1:
                continue
            disc = 2 * (a1 - a3) * (2 * a1 + a3)
            if disc > 0 and rational_sqrt(Fraction(disc)) is not None:
                found = (a1, a3)
                break
        if found:
            break
    assert found == (3, 2)
    g = identify_group((found[0], 0, found[1], 0))
    assert g.tag == "su2+su2" and g.certificate_verified
