"""Every top-level definition and every value class field in the library has a reader.

A function, class or constant defined at module level in ``src/acm5`` must
be referenced by name somewhere in ``src/`` or ``bench/``: as a name, an
attribute, an imported name, a public name in the surface table
``_SURFACE`` of ``__init__``, or a function name that
``bench/tracing.LAYERS`` wraps by name.  A definition only tests use belongs
in ``tests/helpers.py``.

A value class in ``src/acm5`` is a class that declares annotated fields in
its body, or derives from a value class by name: the ``NamedTuple`` records
and the ``exterior.Frozen`` classes, ``exterior.View`` and its subclasses.
Each such field must be read as an attribute somewhere in ``src/``,
``bench/`` or ``tests/``.  A class that serializes itself with
``self._asdict()`` reads all of its fields.  Each method that a value class
defines, dunder methods aside (operators call them), must be read as an
attribute in ``src/`` or ``bench/``, or named in a ``_compared`` tuple.

Every check matches by name only, so it cannot see a method whose name
another reader in ``src/`` shares.  One method that only tests reach
passes that way: ``IdentityReplayReport.failing`` (``ResidualReport.failing``).
Only the standard library ``ast`` module is used.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "acm5"


def _definitions(tree):
    """Names bound by top-level def, class and assignment statements."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(t.id for t in targets if isinstance(t, ast.Name))
    return [name for name in out if not (name.startswith("__") and name.endswith("__"))]


def _references(tree):
    """Every use of a name: loads, attribute accesses and imported names."""
    refs = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                refs[alias.name] += 1
    return refs


def _names_by_module(path, table):
    """The names of the literal table ``table`` (module -> names) at the top level of ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    value = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == table for t in node.targets)
    )
    return Counter(name for names in ast.literal_eval(value).values() for name in names)


def test_every_top_level_definition_is_referenced():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    refs = _names_by_module(ROOT / "bench" / "tracing.py", "LAYERS")
    refs.update(_names_by_module(PACKAGE / "__init__.py", "_SURFACE"))
    defined = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        refs.update(_references(tree))
        if path.parent == PACKAGE:
            defined.extend((path.stem, name) for name in _definitions(tree))
    unused = sorted(f"{module}.{name}" for module, name in defined if not refs[name])
    assert not unused, f"defined but never referenced: {unused}"


def _serializes_itself(node):
    """True when the class body calls self._asdict()."""
    return any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "_asdict"
        and isinstance(n.func.value, ast.Name)
        and n.func.value.id == "self"
        for n in ast.walk(node)
    )


def _fields(node):
    return [
        s.target.id
        for s in node.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
    ]


def _value_classes():
    """(module, class node) for each value class of the package, in file order."""
    nodes = [
        (path.stem, node)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.ClassDef)
    ]
    names = {node.name for _, node in nodes if _fields(node)}
    while more := {
        node.name
        for _, node in nodes
        if node.name not in names and any(getattr(b, "id", None) in names for b in node.bases)
    }:
        names |= more
    return [(module, node) for module, node in nodes if node.name in names]


def test_every_value_class_field_is_read():
    reads = Counter()
    for top in ("src", "bench", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            reads.update(
                n.attr
                for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            )
    unread, inspected = [], []
    for module, node in _value_classes():
        inspected.append(node.name)
        if _serializes_itself(node):
            continue
        unread.extend(f"{module}.{node.name}.{name}" for name in _fields(node) if not reads[name])
    assert len(inspected) >= 23, f"only {len(inspected)} value classes found: {inspected}"
    assert not unread, f"value class fields never read: {sorted(unread)}"


def _methods(node):
    """The methods that a class body defines, dunder methods aside."""
    return [
        s.name
        for s in node.body
        if isinstance(s, ast.FunctionDef) and not (s.name.startswith("__") and s.name.endswith("__"))
    ]


def test_every_value_class_method_is_reached_outside_tests():
    """A method of a value class is read as an attribute somewhere in ``src/``
    or ``bench/``, or named in a ``_compared`` tuple (``Frozen`` reads those
    by name); one that only tests reach belongs in ``tests/helpers.py``."""
    reads = Counter()
    for top in ("src", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for n in ast.walk(tree):
                if isinstance(n, ast.Attribute):
                    reads[n.attr] += 1
                elif isinstance(n, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "_compared" for t in n.targets
                ):
                    reads.update(ast.literal_eval(n.value))
    unreached, inspected = [], 0
    for module, node in _value_classes():
        inspected += len(_methods(node))
        unreached.extend(
            f"{module}.{node.name}.{name}" for name in _methods(node) if not reads[name]
        )
    assert inspected >= 24, f"only {inspected} value class methods found"
    assert not unreached, f"value class methods that only tests reach: {sorted(unreached)}"


SRC_LINE_BUDGET = 3314  # the line budget of src/acm5, lowered to its line count as that falls


def test_src_line_budget():
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in PACKAGE.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET, f"src/acm5 has {lines} lines, over the budget of {SRC_LINE_BUDGET}"
