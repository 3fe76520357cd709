"""Malformed coframe documents end in the README's exit codes, never in a traceback.

Each example takes a golden input and mutates it 1 to 3 times: a field is
deleted, retyped, swapped with a sibling or perturbed.  ``validate``,
``classify --json`` and ``classify --float`` then run on it in process.  No
exception may escape ``cli.main``, and every exit code is 0, 1 or 2.  A
document that ``load_coframe`` refuses is a schema failure: each command
exits 1 with exactly one stderr line, which starts with ``schema error:``,
and prints nothing on stdout.  ``validate`` and ``classify`` read a document
through the same reader, so the three commands print the same line.
"""

import contextlib
import copy
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from acm5.cli import load_coframe, main
from acm5.errors import SchemaError
from helpers import GOLDEN_INPUTS

DOCUMENTS = [json.loads(p.read_text(encoding="utf-8")) for p in GOLDEN_INPUTS]
COMMANDS = (["validate"], ["classify", "--json"], ["classify", "--json", "--float"])
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10**6, 10**6),
    st.floats(allow_nan=False),
    st.text("e1/-+ 0x", max_size=6),  # a fixed alphabet builds no unicode table on a fresh checkout
    st.sampled_from(["1/0", "1/2", "-3", "x/y", "e1", "e9", "metric", "auxiliary", "0"]),
    st.builds(list),
    st.builds(dict),
)


def _paths(node, prefix=()):
    """The path of every node below the root, as key and index tuples."""
    if isinstance(node, dict):
        items = node.items()
    else:
        items = enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _perturbed(data, value):
    """A nearby value of the same type where there is one."""
    if type(value) is int:
        return value + data.draw(st.sampled_from([-1, 1, -value, 10**12]))
    if isinstance(value, str):
        edit = data.draw(st.sampled_from(["drop", "double", "slash", "sign", "space"]))
        return {
            "drop": value[1:],
            "double": value + value,
            "slash": value + "/0" if "/" not in value else value.replace("/", "//"),
            "sign": "-" + value,
            "space": f" {value} ",
        }[edit]
    if isinstance(value, list):
        return value[::-1] + value[:1]
    if isinstance(value, dict):
        return {**value, data.draw(st.sampled_from(["zz", "name", "e1"])): data.draw(LEAVES)}
    return data.draw(LEAVES)


def _mutate(data, doc):
    paths = list(_paths(doc))
    if not paths:
        return data.draw(LEAVES)
    path = data.draw(st.sampled_from(paths))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = data.draw(st.sampled_from(["delete", "retype", "swap", "perturb"]))
    if op == "delete":
        del parent[key]
    elif op == "retype":
        parent[key] = data.draw(LEAVES)
    elif op == "swap":
        keys = list(parent) if isinstance(parent, dict) else range(len(parent))
        other = data.draw(st.sampled_from(keys))
        parent[key], parent[other] = parent[other], parent[key]
    else:
        parent[key] = _perturbed(data, parent[key])
    return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DOCUMENTS), st.integers(1, 3), st.data())
def test_mutated_documents_end_in_an_exit_code(tmp_path_factory, doc, mutations, data):
    doc = copy.deepcopy(doc)
    for _ in range(mutations):
        doc = _mutate(data, doc)
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_coframe(str(path))
        schema_failure = False
    except SchemaError:
        schema_failure = True
    errors = set()
    for command in COMMANDS:
        code, out, err = _run([command[0], str(path), *command[1:]])
        assert code in (0, 1, 2), (command, code, err)
        if schema_failure:
            lines = err.splitlines()
            assert (code, out, len(lines)) == (1, "", 1), (command, err)
            assert lines[0].startswith("schema error:")
            errors.add(err)
    assert len(errors) == schema_failure, errors  # one reader: the same line from each command
