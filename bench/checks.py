"""Output checks that hold for every seed.

Each check derives the expected answer from the request's parameters in
closed form, or compares two outputs that must agree, so it does not have
to trust the program's own results.  A check returns the list of its
failures; an empty list means the request's outputs are correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

FLOAT_RTOL = 1e-9


def _report(code, out, errors, what):
    if code != 0:
        errors.append(f"{what}: exit code {code}, expected 0")
        return None
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        errors.append(f"{what}: output is not JSON ({exc})")
        return None


def _close(x, y):
    return abs(x - y) <= FLOAT_RTOL * max(abs(x), abs(y), 1.0)


class GenericChecker:
    """Exact against float mode, and each file against its U(2)x1-rotated partner."""

    def __init__(self):
        self.exact = {}

    def __call__(self, item, outputs):
        errors = []
        (c_exact, o_exact), (c_float, o_float) = outputs
        exact = _report(c_exact, o_exact, errors, "classify --json")
        flt = _report(c_float, o_float, errors, "classify --json --float")
        if exact is None or flt is None:
            return errors
        ce, cf = exact["classification"], flt["classification"]
        if ce["strict_class"] != cf["strict_class"]:
            errors.append(f"float class {cf['strict_class']} != exact {ce['strict_class']}")
        if exact["predicates"] != flt["predicates"]:
            errors.append("float predicates differ from exact")
        for k, v in ce["norms"].items():
            if not _close(float(Fraction(v)), float(cf["norms"][k])):
                errors.append(f"float norm {k} = {cf['norms'][k]}, exact {v}")
        view = (ce["strict_class"], ce["norms"], exact["predicates"])
        if item.partner_of:
            base = self.exact.pop(item.partner_of, None)
            if base is None:
                errors.append(f"no result for {item.partner_of} to compare with")
            elif base != view:
                errors.append(f"differs from {item.partner_of} under a U(2)x1 rotation")
        else:
            self.exact[item.name] = view
        return errors


def expected_identity(a1, a2, a3, a4):
    """(tag, certificate emitted, reconstructed) by the identification rule."""
    def square(q):
        if q < 0:
            return False
        n, d = q.numerator, q.denominator
        return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d

    if 0 not in (a1, a2, a3, a4):
        return "unclassified-here", False, False
    if a3 == a4 == 0:
        return "su2+su2", square(a1 * a1 + a2 * a2), False
    if a1 == a2 == 0:
        return "sl2+sl2", square(a3 * a3 + a4 * a4), False
    x1, x3, swapped = (a1, a3, False) if a2 == a4 == 0 else (a2, a4, True)
    if x1 == x3:
        return "abelian6", True, swapped
    if x3 == -2 * x1:
        return "heis5+R", True, swapped
    disc = (x1 - x3) * (2 * x1 + x3)
    if disc > 0:
        return "su2+su2", square(2 * disc), swapped
    return "sl2+sl2", square(-disc), swapped


def check_replay(params, outputs):
    errors = []
    (c_ver, o_ver), (c_id, o_id) = outputs
    lines = o_ver.splitlines()
    if c_ver != 0 or not lines or lines[-1] != "all identities hold":
        errors.append(f"--verify exit code {c_ver}, last line {lines[-1:]}")
    bad = [ln for ln in lines[:-1] if not ln.startswith("PASS ")]
    if bad or len(lines) < 2:
        errors.append(f"--verify lines not PASS: {bad[:3]}")
    if all(p == 0 for p in params):
        if c_id != 2:
            errors.append(f"--identify on the abelian point exited {c_id}, expected 2")
        return errors
    tag, emitted, reconstructed = expected_identity(*params)
    id_lines = o_id.splitlines()
    if c_id != 0 or len(id_lines) != 2:
        errors.append(f"--identify exit code {c_id}, output {id_lines}")
        return errors
    got_tag = id_lines[0].split(" (")[0]
    status = "certificate: verified (" if emitted else "certificate: not emitted ("
    if got_tag != tag:
        errors.append(f"--identify tag {got_tag}, expected {tag}")
    if not id_lines[1].startswith(status):
        errors.append(f"--identify certificate line {id_lines[1]!r}, expected {status!r}")
    if ("reconstructed by parameter swap" in id_lines[1]) != (reconstructed and emitted):
        errors.append(f"--identify reconstruction flag wrong: {id_lines[1]!r}")
    return errors


def checker(workload):
    """A callable (item, outputs) -> list of failures for the workload."""
    if workload == "classify-generic":
        return GenericChecker()
    return lambda item, outputs: check_replay(item.params, outputs)
