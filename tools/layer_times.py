#!/usr/bin/env python3
"""In-process time of each pipeline stage, one stage at a time.

Runs over a fixed list of family points, one per branch of
``groups.identify_group``, and over the golden inputs whose structure is
generalized quasi-Sasaki, exact and, in a second table, under ``--float`` at
the working scale that ``classify`` computes on.  Each stage is timed on its
own, RUNS times, on inputs that the earlier stages prepared once: ``build``,
``verify_first_structure``, ``connection_from_structure``, the ``acms``
invariants (nabla Phi, N, the predicates, gamma and d eta, each run on a
fresh connection: a new ``ConnectionForms`` of the solve's view, checked
as the solve's own, with an empty memo), ``characteristic_connection`` (on a
connection that already holds those invariants), ``torsion_type``,
``curvature`` (on a coframe that has passed its d^2-gate), ``parallel_spinor_check`` and
``identify_group``.  ``curvature`` and ``parallel_spinor_check`` read the
nonzero blocks M_s of the connection's view, which its memo keeps after the
first read.  A
golden input has no ``build`` or ``identify_group`` stage.  ``build`` writes
the structure table term by term and runs the d^2-gate and
``verify_first_structure``, which reads the residuals off the connection's
view: no stage here builds the forms of the Levi-Civita connection, so the
``verify_first_structure`` column times that read alone.  ``identify_group``
refuses the degenerate point (0, 0, 0, 0) with DegenerateInputError; that
refusal is what is timed there.

It prints each stage's median, one row per structure, then the column
medians, for the exact rows and for the float rows.  Then it times the
ingest of ``classify`` the same way: the d^2-gate
(``exterior.d_squared_zero``), ``frames.connection_from_structure``
and ``acms.frame_connection`` of the solved connection (which returns it as
it is: the solve wrote its view, and its forms are never built), on each
golden input turned by one fixed SO(5) Cayley rotation (``fixed_so5_rotation`` of
``tests/helpers.py``, the rotation of ``tests/test_kernels.py``), exact and
float, each at the working scale that ``classify`` computes on.  Last it
prints all the numbers as one JSON object: each time a [raw, normalised]
pair, the column medians under "raw" and "normalised" (the float rows under
"float_median" and "float_structures").

Each median is given twice, as two tables: raw, in microseconds as measured,
and normalised to the host's speed as the benchmark harness normalises
(``normalised`` of ``bench/run.py``): the harness's reference task is timed
before a stage's runs and after each block of BLOCK of them, and the raw
median is scaled by REFERENCE_S over the median of those reference times, so
a slowdown of the host within a stage's runs moves the reference times with
it.  Raw medians of the same code move with the host's speed from run to run;
compare normalised columns between two trees.

Run from the repository root:  python3 tools/layer_times.py
"""

import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "tests"))
sys.path.insert(2, str(ROOT / "bench"))

from acm5 import acms, connection, exterior, frames, groups  # noqa: E402
from acm5.cli import _to_float_coframe, _working_scale, load_coframe  # noqa: E402
from acm5.errors import DegenerateInputError  # noqa: E402
from helpers import fixed_so5_rotation, rotate  # noqa: E402
from run import REFERENCE_S, normalised, timed_reference  # noqa: E402

RUNS = 101
BLOCK = 10  # runs of a stage between two timings of the reference task
STAGES = (
    "build", "verify_first_structure", "connection_from_structure", "acms_invariants",
    "characteristic_connection", "torsion_type", "curvature", "parallel_spinor_check",
    "identify_group",
)
INGEST = ("d_squared_gate", "connection_from_structure", "frame_connection")
INVARIANTS = (acms.nabla_phi, acms.nijenhuis, acms.predicates, acms.gamma_form, acms.d_eta_form)
POINTS = {  # identify_group branch -> family point
    "su2+su2 block": (6, 8, 0, 0),
    "sl2+sl2 block": (0, 0, 8, 6),
    "abelian6": (2, 0, 2, 0),
    "heis5+R": (2, 0, -4, 0),
    "su2+su2 diagonal": (2, 0, -2, 0),
    "sl2+sl2 diagonal": (2, 0, 4, 0),
    "reconstructed": (0, 2, 0, 2),
    "no certificate": (2, 2, 0, 0),
    "unclassified": (2, 4, 1, 2),
    "degenerate": (0, 0, 0, 0),
}


def median_us(fn):
    """(raw, normalised) median of RUNS runs of fn, in us; see the module docstring."""
    references, samples = [timed_reference()], []
    for block in range(0, RUNS, BLOCK):
        for _ in range(min(BLOCK, RUNS - block)):
            start = time.perf_counter_ns()
            fn()
            samples.append(time.perf_counter_ns() - start)
        references.append(timed_reference())
    raw = statistics.median(samples) / 1000
    return raw, normalised((raw, statistics.median(references)))


def identify(point):
    try:
        groups.identify_group(point)
    except DegenerateInputError:
        pass


def invariants(omega):
    fc = acms.frame_connection(omega)
    for fn in INVARIANTS:
        acms.derived(fc, fn)
    return fc


def stage_times(c, omega, point=None):
    """{stage: median us} of one structure."""
    times = {}
    if point is not None:
        times["build"] = median_us(lambda: groups.build(*point))
        times["identify_group"] = median_us(lambda: identify(point))
    times["verify_first_structure"] = median_us(lambda: frames.verify_first_structure(c, omega))
    times["connection_from_structure"] = median_us(lambda: frames.connection_from_structure(c))
    times["acms_invariants"] = median_us(
        lambda: invariants(frames.ConnectionForms(omega.view))
    )
    fc = invariants(omega)
    if not acms.derived(fc, acms.predicates).generalized_quasi_sasaki:
        return times
    cc = connection.characteristic_connection(fc)
    assert c.d_squared_gate.ok
    space, ker = connection.spinor_space(), connection.kernel_of_f()
    times["characteristic_connection"] = median_us(lambda: connection.characteristic_connection(fc))
    times["torsion_type"] = median_us(lambda: connection.torsion_type(cc))
    times["curvature"] = median_us(lambda: connection.curvature(c, cc.omega_c))
    times["parallel_spinor_check"] = median_us(
        lambda: connection.parallel_spinor_check(space, cc.omega_c, ker.kernel_basis)
    )
    return times


def ingest_times(c):
    """{stage: median us} of the ingest of one coframe at its working scale."""
    c = _working_scale(c)[0]
    solved = frames.connection_from_structure(c)
    return {
        "d_squared_gate": median_us(lambda: exterior.d_squared_zero(c)),
        "connection_from_structure": median_us(lambda: frames.connection_from_structure(c)),
        "frame_connection": median_us(lambda: acms.frame_connection(solved)),
    }


def print_table(rows, stages, title):
    """Print the raw and the normalised table, one row per structure and the column medians;
    return {"raw": medians, "normalised": medians}."""
    width = max(map(len, rows))
    out = {}
    for col, kind in enumerate(("raw", "normalised")):
        print(f"{title}, {kind}")
        print(f"{'structure':{width}}" + "".join(f" {s[:12]:>12}" for s in stages))
        for name, times in rows.items():
            print(f"{name:{width}}" + "".join(
                f" {times[s][col]:12.1f}" if s in times else f" {'-':>12}" for s in stages))
        medians = {
            s: statistics.median(t[s][col] for t in rows.values() if s in t) for s in stages
        }
        print(f"{'median':{width}}" + "".join(f" {medians[s]:12.1f}" for s in stages))
        out[kind] = medians
    return out


def main():
    rows = {}
    for name, point in POINTS.items():
        inst = groups.build(*point)
        rows[f"family {name} {point}"] = stage_times(inst.coframe, inst.omega_g, point)
    floats = {}
    for path in sorted((ROOT / "tests" / "golden" / "inputs").glob("*.json")):
        c = load_coframe(str(path))
        omega = frames.connection_from_structure(c)
        if acms.predicates(acms.frame_connection(omega)).generalized_quasi_sasaki:
            rows[f"golden {path.stem}"] = stage_times(c, omega)
            cf = _working_scale(_to_float_coframe(c))[0]
            omega = frames.connection_from_structure(cf)
            floats[f"golden {path.stem} float"] = stage_times(cf, omega)
    medians = print_table(rows, STAGES, f"median of {RUNS} runs per stage, in us")
    float_medians = print_table(floats, STAGES[1:-1], "the same stages under --float, in us")
    ingest = {}
    for path in sorted((ROOT / "tests" / "golden" / "inputs").glob("*.json")):
        turned = rotate(load_coframe(str(path)), fixed_so5_rotation())
        ingest[f"{path.stem} exact"] = ingest_times(turned)
        ingest[f"{path.stem} float"] = ingest_times(_to_float_coframe(turned))
    ingest_medians = print_table(ingest, INGEST, "ingest of the SO(5)-rotated golden inputs, in us")
    print(json.dumps({"runs": RUNS, "reference_s": REFERENCE_S, "median": medians,
                      "structures": rows, "float_median": float_medians,
                      "float_structures": floats, "ingest_median": ingest_medians,
                      "ingest": ingest}))


if __name__ == "__main__":
    main()
