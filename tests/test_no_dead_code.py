"""Every top-level definition and every dataclass field in the library has a reader.

A function, class or constant defined at module level in ``src/acm5`` must
be referenced by name somewhere in ``src/`` or ``bench/``: as a name, an
attribute, or an imported name (so the re-exports in ``__init__`` count),
or as a function name that ``bench/tracing.LAYERS`` wraps by name.  A
definition only tests use belongs in ``tests/helpers.py``.

A field of a dataclass in ``src/acm5`` must be read as an attribute
somewhere in ``src/``, ``bench/`` or ``tests/``.  A class that serializes
itself with ``asdict(self)`` reads all of its fields.  Both checks match
by name only.  Only the standard library ``ast`` module is used.
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


def _traced_names():
    """The function names listed in ``LAYERS`` of ``bench/tracing.py``."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    layers = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    )
    return Counter(name for names in ast.literal_eval(layers).values() for name in names)


def test_every_top_level_definition_is_referenced():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py"))
    refs = _traced_names()
    defined = []
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        refs.update(_references(tree))
        if path.parent == PACKAGE:
            defined.extend((path.stem, name) for name in _definitions(tree))
    unused = sorted(f"{module}.{name}" for module, name in defined if not refs[name])
    assert not unused, f"defined but never referenced: {unused}"


def _is_dataclass(node):
    """True when the class is decorated with @dataclass or @dataclass(...)."""
    for d in node.decorator_list:
        target = d.func if isinstance(d, ast.Call) else d
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _serializes_itself(node):
    """True when the class body calls asdict(self)."""
    return any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id == "asdict"
        and n.args
        and isinstance(n.args[0], ast.Name)
        and n.args[0].id == "self"
        for n in ast.walk(node)
    )


def _fields(node):
    return [
        s.target.id
        for s in node.body
        if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
    ]


def test_every_dataclass_field_is_read():
    reads = Counter()
    for top in ("src", "bench", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            reads.update(
                n.attr
                for n in ast.walk(tree)
                if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            )
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            if _serializes_itself(node):
                continue
            unread.extend(
                f"{path.stem}.{node.name}.{name}" for name in _fields(node) if not reads[name]
            )
    assert not unread, f"dataclass fields never read: {sorted(unread)}"


SRC_LINE_BUDGET = 3495  # the line budget of src/acm5, lowered to its line count as that falls


def test_src_line_budget():
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in PACKAGE.glob("*.py"))
    assert lines <= SRC_LINE_BUDGET, f"src/acm5 has {lines} lines, over the budget of {SRC_LINE_BUDGET}"
