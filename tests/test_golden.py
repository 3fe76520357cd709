"""Byte-for-byte pins of the command line output on a committed corpus.

``golden/cases.json`` lists each command with its exit code; the expected
stdout of case ``id`` is ``golden/expected/<id>.out``.  Inputs live in
``golden/inputs``: six family coframes (W4-only, W7-only, mixed, flat,
nearly- and quasi-cosymplectic), an su(2)-block coframe that is not
generalized quasi-Sasaki, and the abelian coframe.  The expected files were
produced before any refactoring of the library and are never regenerated
by the tests: a change that alters them changes the program's output.
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
