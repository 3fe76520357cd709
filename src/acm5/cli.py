"""Command line front end.

Subcommands:

* ``acm5 validate <file>`` -- schema check plus the d^2 = 0 gate;
* ``acm5 classify <file> [--json|--text] [--float]`` -- full structure
  report (torsion class, predicates, compatible-connection data);
* ``acm5 family --params a1 a2 a3 a4 (--emit <file> | --verify |
  --identify)`` -- generate, replay or identify a family coframe.

Exit codes: 0 success, 1 verification or validation failure, 2 usage or
constraint error.  All numbers are exact rational strings unless --float
is given; float mode runs at unit scale against one fixed tolerance, 1e-9
(see :func:`classification_report`).  Set ACM5_COLOR=1 to colorize text
output.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import os
import re
import sys
from fractions import Fraction

from .errors import (
    ACM5Error,
    DegenerateInputError,
    IntegrabilityError,
    SchemaError,
)
from .exterior import (
    CoframeData,
    Form,
    Symbol,
    TrigRules,
    proportionality,
    render_form,
    stored,
    zero_form,
)
from .scalars import FLOAT, fmt_scalar, is_rational, sis_zero

_RAT = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")


def _parse_rational(s, where):
    """A coefficient: a JSON integer or a 'p/q' string, read as an int or a
    Fraction (``exterior.stored`` applies the storage rule); SchemaError for
    anything else, and for a numerator or denominator over the interpreter's
    digit limit."""
    if type(s) is int:  # JSON true/false are bools, not coefficients
        return s
    m = _RAT.match(s.strip()) if isinstance(s, str) else None
    if m is None:
        raise SchemaError(f"{where}: not a rational 'p/q' string: {s!r}")
    p, q = m.groups()
    try:
        return int(p) if q is None else Fraction(int(p), int(q))
    except ValueError as exc:  # more digits than int() may read
        raise SchemaError(f"{where}: coefficient over the integer digit limit") from exc


def _is_name_list(x):
    return isinstance(x, list) and {*map(type, x)} <= {str}  # JSON strings are str


def load_coframe(path: str) -> CoframeData:
    """Parse and schema-check a coframe document."""
    import json  # only the commands that read or write a document load it

    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(
                f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except UnicodeDecodeError as exc:
            raise SchemaError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
        except ValueError as exc:  # an integer literal over the digit limit
            raise SchemaError("parse error: integer literal over the digit limit") from exc
        except RecursionError as exc:
            raise SchemaError("parse error: nesting too deep") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top-level document must be an object")
    for key in ("symbols", "d", "orientation"):
        if key not in doc:
            raise SchemaError(f"missing required key {key!r}")
    if not isinstance(doc["symbols"], list):
        raise SchemaError("'symbols' must be a list")
    if not isinstance(doc["d"], dict):
        raise SchemaError("'d' must be an object mapping symbol names to term lists")
    symbols = {}  # by name
    for i, entry in enumerate(doc["symbols"]):
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise SchemaError(f"symbols[{i}]: need objects with 'name' and 'kind'")
        sym = Symbol(entry["name"], entry["kind"], entry.get("index"))
        if not isinstance(sym.name, str):
            raise SchemaError(f"symbols[{i}]: 'name' must be a string")
        if sym.name in symbols:
            raise SchemaError(f"symbols[{i}]: duplicate symbol name {sym.name!r}")
        if sym.kind == "metric" and type(sym.index) is not int:
            raise SchemaError(f"symbols[{i}]: a metric symbol needs an integer 'index'")
        symbols[sym.name] = sym
    metric = [s for s in symbols.values() if s.kind == "metric"]
    auxiliary = [s for s in symbols.values() if s.kind == "auxiliary"]
    if len(metric) != 5 or sorted(s.index for s in metric) != [1, 2, 3, 4, 5]:
        raise SchemaError("need exactly five metric symbols with indices 1..5")
    if any(s.kind not in ("metric", "auxiliary") for s in symbols.values()):
        raise SchemaError("symbol kind must be 'metric' or 'auxiliary'")
    ordered = sorted(metric, key=lambda s: s.index) + auxiliary
    ids = {s.name: i for i, s in enumerate(ordered)}

    def parse_form(terms, degree, where):
        if not isinstance(terms, list):
            raise SchemaError(f"{where}: expected a list of terms")
        out = {}
        for t in terms:
            if not isinstance(t, dict) or "coeff" not in t or "wedge" not in t:
                raise SchemaError(f"{where}: terms need 'coeff' and 'wedge'")
            names = t["wedge"]
            if not _is_name_list(names):
                raise SchemaError(f"{where}: 'wedge' must be a list of symbol names")
            if len(names) != degree:
                raise SchemaError(f"{where}: wedge list must have length {degree}")
            try:
                idx = tuple(map(ids.__getitem__, names))
            except KeyError as exc:
                raise SchemaError(f"{where}: unknown symbol {exc.args[0]!r}") from exc
            if degree == 2 and idx[0] >= idx[1]:  # the degree is 1 or 2
                raise SchemaError(f"{where}: wedge list must be strictly increasing")
            coef = _parse_rational(t["coeff"], where)
            if idx in out:
                raise SchemaError(f"{where}: duplicate monomial {names}")
            out[idx] = coef
        return stored(degree, out)

    if set(doc["d"].keys()) - set(ids):
        raise SchemaError(f"d-table names unknown symbols: {sorted(set(doc['d']) - set(ids))}")
    d_table = {}
    for name, terms in doc["d"].items():
        d_table[ids[name]] = parse_form(terms, 2, f"d[{name}]")
    for name, sid in ids.items():
        d_table.setdefault(sid, zero_form(2))
    orientation = doc["orientation"]  # checked, then dropped: the structure fixes it
    if not _is_name_list(orientation) or sorted(orientation) != sorted(s.name for s in metric):
        raise SchemaError("orientation must list the five metric symbols")
    trig_rules = None
    if "trig" in doc:
        tr = doc["trig"]
        if not isinstance(tr, dict) or set(tr) - {"df", "dg"}:
            raise SchemaError("trig: expected an object with optional 'df' and 'dg' term lists")
        rules = {k: parse_form(tr[k], 1, f"trig.{k}") for k in ("df", "dg") if k in tr}
        trig_rules = TrigRules(**rules)
    return CoframeData(tuple(ordered), d_table, trig_rules)


def emit_coframe(c: CoframeData, path: str):
    import json

    doc = coframe_document(c)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def coframe_document(c: CoframeData):
    """The JSON document of a coframe; SchemaError on a coefficient load cannot read."""

    def coeff(v, where):
        _parse_rational(s := fmt_scalar(v), where)  # refuses what load_coframe refuses
        return s

    def term_list(f: Form, where):
        return [
            {"coeff": coeff(f.terms[idx], where), "wedge": [c.name_of(i) for i in idx]}
            for idx in sorted(f.terms)
        ]

    doc = {
        "symbols": [
            {"name": s.name, "kind": s.kind, **({"index": s.index} if s.index else {})}
            for s in c.symbols
        ],
        "d": {
            c.name_of(sid): term_list(c.d_table[sid], f"d[{c.name_of(sid)}]")
            for sid in range(c.n_symbols)
        },
        "orientation": [s.name for s in c.symbols[:5]],
    }
    if c.trig_rules is not None:
        doc["trig"] = {
            k: term_list(f, f"trig.{k}") for k, f in c.trig_rules._asdict().items() if f is not None
        }
    return doc


def _with_coefficients(c: CoframeData, fn) -> CoframeData:
    """c with every coefficient v replaced by fn(v), under the storage rule."""
    table = {
        sid: stored(f.degree, {idx: fn(v) for idx, v in f.terms.items()})
        for sid, f in c.d_table.items()
    }
    return CoframeData(c.symbols, table, c.trig_rules)


def _largest_coefficient(c: CoframeData):
    return max((abs(v) for f in c.d_table.values() for v in f.terms.values()), default=0.0)


def _to_float_coframe(c: CoframeData) -> CoframeData:
    """The binary64 coframe; OverflowError when max|c|^2 is not finite."""
    out = _with_coefficients(c, float)
    m = _largest_coefficient(out)
    if not math.isfinite(m * m):
        raise OverflowError("max|c|^2 is not finite")
    return out


# ---------------------------------------------------------------------------
# report assembly


def _working_scale(c: CoframeData):
    """(c at its working scale, unit): the coframe that the report computes on
    and the exact factor that takes its degree-1 values back to c."""
    if c.mode() == FLOAT:
        e = math.frexp(_largest_coefficient(c))[1]
        scaled = _with_coefficients(c, lambda v: math.ldexp(v, -e)) if e else c
        return scaled, Fraction(2) ** e
    values = [v for f in c.d_table.values() for v in f.terms.values()]
    if not all(map(is_rational, values)):
        return c, Fraction(1)
    lam = 4 * math.lcm(*(v.denominator for v in values))
    return _with_coefficients(c, lambda v: v.numerator * (lam // v.denominator)), Fraction(1, lam)


def classification_report(c: CoframeData):
    """The full pipeline: solve, project, classify, predicates, connection.

    It runs on a homothetic copy of c (``_working_scale``), which keeps every
    class, predicate, tag and dimension.  A float coframe runs at unit scale,
    scaled by 2^-e so that its largest coefficient lies in [1/2, 1), where one
    FLOAT_RTOL serves every check; powers of two scale binary64 exactly.  An
    all-rational coframe runs at integer scale, times lam = 4 lcm(denominators):
    every Levi-Civita value (the Koszul 1/2) and every coordinate of the
    complement projection (its 1/2) is then an integer, so the tensor kernels
    add ints.  Any other table (trig coefficients) runs as given.  Degree-1
    values come back times the unit, degree-2 values times the unit twice
    (its square alone can exceed binary64).
    """
    c, unit = _working_scale(c)  # unit is exact, so an exact zero still prints "0"
    failing = c.d_squared_gate.failing  # read once: each read zero-tests every residual
    report = {
        "symbols": [s.name for s in c.symbols],
        "validation": {"d_squared_zero": not failing, "failing_generators": failing},
    }
    if failing:
        return report, 1
    from . import acms, frames, torsionclass  # the classify pipeline, imported on its first run
    fc = frames.connection_from_structure(c)
    cls = torsionclass.classify(torsionclass.intrinsic_torsion(fc))
    report["classification"] = {
        "norms": {k: fmt_scalar(v * unit * unit) for k, v in cls.norms.items()},
        "strict_class": list(cls.class_tags),
        "integrable": cls.integrable,
    }
    preds = acms.derived(fc, acms.predicates)
    # the paper's characterization: generalized quasi-Sasaki iff the class lies in W3+W4+W5+W7
    if preds.generalized_quasi_sasaki != (set(cls.class_tags) <= {"W3", "W4", "W5", "W7"}):
        raise ACM5Error(
            f"internal consistency: generalized_quasi_sasaki is {preds.generalized_quasi_sasaki}"
            f" but the class is {list(cls.class_tags)}, norms {report['classification']['norms']}"
        )
    report["predicates"] = preds.as_dict()
    deta = acms.derived(fc, acms.d_eta_form)
    prop = proportionality(deta, acms.PHI)
    report["predicates"]["d_eta_vs_fundamental"] = (
        fmt_scalar(prop * unit) if (preds.quasi_sasaki and prop is not None) else None
    )
    if not preds.generalized_quasi_sasaki:
        report["characteristic_connection"] = None
        report["note"] = (
            "no compatible connection section: the structure is not "
            "generalized quasi-Sasaki"
        )
        return report, 0
    from . import connection  # imported only for a generalized quasi-Sasaki structure
    cc = connection.characteristic_connection(fc)
    parts, tag = connection.torsion_type(cc)
    nij = acms.derived(fc, acms.nijenhuis)  # Friedrich-Ivanov: skew torsion iff N is totally skew
    if (tag in ("skew", "zero")) != nij.is_totally_skew():
        sums = acms.contract(acms.SYM_12, nij.flat)
        failing = [f"N{x, y, z} + N{y, x, z} = {fmt_scalar(v * unit)}" for (x, y, z), v in
                   zip(itertools.product(range(1, 6), repeat=3), sums) if x <= y and not sis_zero(v)]
        why = f"not totally skew: {', '.join(failing)}" if failing else "totally skew"
        raise ACM5Error(f"internal consistency: the torsion type is {tag}, but N is {why}")
    cur = connection.curvature(c, cc.omega_c)
    ker, spinors = connection.kernel_of_f(), connection.spinor_space()
    parallel = connection.parallel_spinor_check(spinors, cc.omega_c, ker.kernel_basis)
    names = [s.name for s in c.symbols]
    report["characteristic_connection"] = {
        "connection_forms": {
            f"w({i + 1},{j + 1})": render_form(cc.omega_c.omega[i][j].scale(unit), names)
            for i in range(5)
            for j in range(i + 1, 5)
            if not cc.omega_c.omega[i][j].is_zero()
        },
        "torsion_type": tag,
        "curvature_entries": {
            f"R({i + 1},{j + 1})": render_form(cur.curvature[i][j].scale(unit).scale(unit), names)
            for i in range(5)
            for j in range(i + 1, 5)
            if not cur.curvature[i][j].is_zero()
        },
        "ricci_diagonal": [fmt_scalar(cur.ricci[i][i] * unit * unit) for i in range(5)],
        "ricci": [[fmt_scalar(v * unit * unit) for v in row] for row in cur.ricci],
        "holonomy_dimension": len(cur.holonomy_basis),
        "spinor_kernel_dimension": ker.dimension,
        "parallel_spinors": parallel,
    }
    return report, 0


def _color(s, code, enabled):
    return f"\x1b[{code}m{s}\x1b[0m" if enabled else s


def render_text(report, color=False):
    lines = []
    lines.append(_color("coframe: " + " ".join(report["symbols"]), "1", color))
    v = report["validation"]
    lines.append(f"d^2 = 0: {v['d_squared_zero']}")
    if not v["d_squared_zero"]:
        lines.append("failing generators: " + ", ".join(v["failing_generators"]))
        return "\n".join(lines)
    cls = report["classification"]
    if cls["integrable"]:
        lines.append("class: cosymplectic (integrable); torsion vanishes")
    else:
        lines.append("strict class: " + (" + ".join(cls["strict_class"]) or "none"))
    lines.append("norms: " + "  ".join(f"{k}={v}" for k, v in cls["norms"].items()))
    lines.append("predicates:")
    for k, val in report["predicates"].items():
        if k == "d_eta_vs_fundamental":
            if val is not None:
                lines.append(f"  d eta = {val} * fundamental form")
            continue
        lines.append(f"  {k}: {val}")
    cc = report.get("characteristic_connection")
    if cc is None:
        lines.append(report.get("note", ""))
    else:
        lines.append("compatible connection:")
        for k, val in cc["connection_forms"].items():
            lines.append(f"  {k} = {val}")
        lines.append(f"  torsion type: {cc['torsion_type']}")
        for k, val in cc["curvature_entries"].items():
            lines.append(f"  {k} = {val}")
        lines.append("  ricci diagonal: " + " ".join(cc["ricci_diagonal"]))
        lines.append(f"  holonomy dimension: {cc['holonomy_dimension']}")
        lines.append(f"  spinor kernel dimension: {cc['spinor_kernel_dimension']}")
        lines.append(f"  parallel spinors: {cc['parallel_spinors']}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommands


def _load_or_exit_code(path):
    """(coframe, None), or (None, exit code) after printing why the file cannot be read."""
    try:
        return load_coframe(path), None
    except OSError as exc:
        missing = isinstance(exc, FileNotFoundError)
        why = "no such file" if missing else f"cannot read ({exc.strerror})"
        print(f"error: {why}: {path}", file=sys.stderr)
        return None, 2
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return None, 1


def cmd_validate(args):
    c, code = _load_or_exit_code(args.path)
    if c is None:
        return code
    gate = c.d_squared_gate
    if gate.ok:
        print("ok: schema valid and d^2 = 0 on all generators")
        return 0
    names = [s.name for s in c.symbols]
    for name in gate.failing:
        res = gate.residuals[name]
        print(f"d^2 {name} = {render_form(res, names)} != 0", file=sys.stderr)
    return 1


def cmd_classify(args):
    c, code = _load_or_exit_code(args.path)
    if c is None:
        return code
    if args.float:
        try:
            c = _to_float_coframe(c)
        except OverflowError:
            print("error: --float: a coefficient is too large for binary64", file=sys.stderr)
            return 2
    try:
        report, code = classification_report(c)
    except ACM5Error as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        color = bool(os.environ.get("ACM5_COLOR"))
        print(render_text(report, color))
    return code


def _written_digits(text):
    """The digits that a Fraction text writes in its numerator and in its
    denominator, its exponent included: (10, 1) for '1e9'; (0, 0) when the
    exponent is not an integer, which Fraction then refuses."""
    mantissa, _, exp = text.lower().partition("e")
    num, _, den = mantissa.partition("/")
    whole, _, frac = num.partition(".")
    try:
        exp = int(exp or 0)
    except ValueError:
        return 0, 0
    numerator = sum(ch.isdecimal() for ch in whole + frac) + max(exp, 0)
    return numerator, (sum(ch.isdecimal() for ch in den) or len(frac) + 1) + max(-exp, 0)


def _family_params(args):
    """The parameters as Fractions; SchemaError for a text that Fraction does
    not read, and, before its value is built, for one that writes a numerator
    or a denominator over the interpreter's int <-> str digit limit."""
    limit = sys.get_int_max_str_digits()
    for p in args.params:
        if limit and max(_written_digits(p)) > limit:
            raise SchemaError(f"parameter {p!r} has more than {limit} digits")
    try:
        return [Fraction(p) for p in args.params]
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"parameters must be rationals: {exc}") from exc


def cmd_family(args):
    from .groups import build, identify_group  # only --verify loads the replay and its layers
    try:
        params = _family_params(args)
    except SchemaError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        inst = build(*params) if args.emit or args.verify else None
        if args.verify:
            from .family import verify_identities
            rep = verify_identities(inst)
        elif args.identify:
            g = identify_group(tuple(params))
    except (DegenerateInputError, IntegrabilityError) as exc:
        print(f"constraint error: {exc}", file=sys.stderr)
        return 2
    except ACM5Error as exc:  # a failed internal check: one line, as classify prints it
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.emit:
        try:
            emit_coframe(inst.coframe, args.emit)
        except OSError as exc:
            print(f"error: cannot write {args.emit}: {exc.strerror}", file=sys.stderr)
            return 2
        except SchemaError as exc:
            print(f"error: cannot emit {args.emit}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.emit}")
        return 0
    if args.verify:
        color = bool(os.environ.get("ACM5_COLOR"))
        for name, ok, detail in rep.items:
            mark = _color("PASS", "32", color) if ok else _color("FAIL", "31", color)
            print(f"{mark} {name}" + (f" ({detail})" if detail else ""))
        print("all identities hold" if rep.ok else "verification failed")
        return 0 if rep.ok else 1
    a1, a2, a3, a4 = params
    flavor = ""
    if g.tag == "su2+su2" and a3 == 0 and a4 == 0:
        flavor = " (Stiefel-type W4 structure)"
    print(f"{g.tag}{flavor}")
    if g.frame_change is None:
        print(f"certificate: not emitted ({g.note})")
    else:
        status = "verified" if g.certificate_verified else "FAILED"
        extra = ", reconstructed by parameter swap" if g.reconstructed else ""
        print(f"certificate: {status} ({g.note}{extra})")
    return 0


@functools.cache
def _parser():
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="acm5",
        description="exact computations with almost contact metric 5-coframes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="schema check plus the d^2 = 0 gate")
    p_val.add_argument("path")
    p_val.set_defaults(func=cmd_validate)

    p_cls = sub.add_parser("classify", help="full structure report for a coframe file")
    p_cls.add_argument("path")
    fmt = p_cls.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--text", action="store_true")
    p_cls.add_argument("--float", action="store_true", help="binary64 cross-check mode")
    p_cls.set_defaults(func=cmd_classify)

    p_fam = sub.add_parser("family", help="generate, replay or identify a family coframe")
    p_fam.add_argument("--params", nargs=4, required=True, metavar=("a1", "a2", "a3", "a4"))
    action = p_fam.add_mutually_exclusive_group(required=True)
    action.add_argument("--emit", metavar="path")
    action.add_argument("--verify", action="store_true")
    action.add_argument("--identify", action="store_true")
    p_fam.set_defaults(func=cmd_family)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
