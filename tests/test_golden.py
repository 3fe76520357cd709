"""Byte-for-byte pins of the command line output on a committed corpus.

``golden/cases.json`` lists each command with its exit code; the expected
stdout of case ``id`` is ``golden/expected/<id>.out``.  Inputs live in
``golden/inputs``: six family coframes (W4-only, W7-only, mixed, flat,
nearly- and quasi-cosymplectic), an su(2)-block coframe that is not
generalized quasi-Sasaki, the abelian coframe, and the Iwasawa group of
complex hyperbolic space times R (``ch2_x_R.json``): cosymplectic, with
zero torsion, 4-dimensional holonomy and no parallel spinors; and a
Sasakian coframe on the 5-dimensional Heisenberg group
(``heis5_sasakian.json``, de5 = 2 e1^e2 + 2 e3^e4): class W3, d eta twice
the fundamental form, skew torsion, 1-dimensional holonomy.  The expected
files were produced before any refactoring of the library and are never
regenerated by the tests: a change that alters them changes the program's
output.

The declared ``"orientation"`` decides nothing: the structure fixes the
orientation, so an input whose list is an odd permutation of its metric
names prints the same bytes.
"""

import json
from pathlib import Path

import pytest

from acm5.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_golden_output(case, capsys, monkeypatch):
    monkeypatch.delenv("ACM5_COLOR", raising=False)
    argv = [
        str(GOLDEN / "inputs" / case["input"]) if a == "{input}" else a for a in case["argv"]
    ]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode("utf-8") == (GOLDEN / "expected" / f"{case['id']}.out").read_bytes()


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name", sorted({c["input"] for c in CASES if "input" in c}))
def test_declared_orientation_decides_nothing(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("ACM5_COLOR", raising=False)
    source = GOLDEN / "inputs" / name
    doc = json.loads(source.read_text(encoding="utf-8"))
    first, second, *rest = doc["orientation"]
    doc["orientation"] = [second, first, *rest]  # one transposition: the opposite orientation
    flipped = tmp_path / name
    flipped.write_text(json.dumps(doc), encoding="utf-8")
    assert _run(["validate", str(flipped)], capsys) == _run(["validate", str(source)], capsys)
    cases = [c for c in CASES if c.get("input") == name and c["argv"][2:] in (
        ["--json"], ["--json", "--float"])]
    assert len(cases) == 2
    for case in cases:
        code, out, _ = _run(["classify", str(flipped), *case["argv"][2:]], capsys)
        assert code == case["exit"]
        assert out.encode("utf-8") == (GOLDEN / "expected" / f"{case['id']}.out").read_bytes()
