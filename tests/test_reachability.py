"""Every library function and method is reached from an entry point: the
command line (``cli.main``), the acceptance battery (``ALL_CRITERIA`` and
``run_criterion``) or a script under ``scripts/``; and every field the
library stores is read.

The scan reads ``src/cliffdegen`` with ``ast`` and follows names, not types:
a reached body that reads a name, as a variable or as an attribute, reaches
every top-level function, class, module-level assignment and method of that
name in the library.  Reaching a class runs its bases, decorators,
class-level statements and dunder methods, which Python calls implicitly;
dunder methods are never reported themselves.

A field is a dataclass field or an attribute that a method sets as
``self.name``; it is read when library or script code reads ``.name`` of
anything.  Tests do not count: a field only they read is dead weight on
every object that carries it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cliffdegen"

ENTRY_POINTS = ("cli.main", "acceptance.ALL_CRITERIA", "acceptance.run_criterion")

# methods that code outside the library calls by name
ALLOWLIST = {
    "cli._Parser.error",  # argparse reports a bad command line through it
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(modules: dict) -> dict:
    """Qualified name -> node of each top-level function, class and
    module-level assignment ("mod.f", "mod.C", "mod.NAME") of each module
    {name: source}, and of each method of its top-level classes
    ("mod.C.f")."""
    out = {}
    for mod, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, FUNCTIONS):
                out[f"{mod}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                out[f"{mod}.{node.name}"] = node
                for item in node.body:
                    if isinstance(item, FUNCTIONS):
                        out[f"{mod}.{node.name}.{item.name}"] = item
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        out[f"{mod}.{target.id}"] = node
    return out


def _runs_with(node) -> list:
    """What runs when a definition is reached, methods aside: all of a
    function or an assignment; of a class, its bases, decorators and
    class-level statements."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    statements = [item for item in node.body if not isinstance(item, FUNCTIONS)]
    return [*node.bases, *node.keywords, *node.decorator_list, *statements]


def names_read(nodes) -> set:
    found = set()
    for node in nodes:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Name):
                found.add(inner.id)
            elif isinstance(inner, ast.Attribute):
                found.add(inner.attr)
    return found


def reached(defs: dict, roots, names=()) -> set:
    """Qualified names reached from the definitions ``roots`` and from the
    bare ``names`` (read by code outside the library)."""
    by_name: dict = {}
    for qual in defs:
        by_name.setdefault(qual.rsplit(".", 1)[1], []).append(qual)
    todo = list(roots) + [q for n in names for q in by_name.get(n, ())]
    seen = set()
    while todo:
        qual = todo.pop()
        if qual in seen:
            continue
        seen.add(qual)
        node = defs[qual]
        if isinstance(node, ast.ClassDef):  # Python calls these implicitly
            todo.extend(
                f"{qual}.{item.name}"
                for item in node.body
                if isinstance(item, FUNCTIONS) and _dunder(item.name)
            )
        for name in names_read(_runs_with(node)):
            todo.extend(by_name.get(name, ()))
    return seen


def unreached(defs: dict, seen: set) -> list:
    """Functions and methods, dunders aside, that the scan did not reach."""
    return sorted(
        qual
        for qual, node in defs.items()
        if isinstance(node, FUNCTIONS) and not _dunder(node.name) and qual not in seen
    )


def stale_allowlist(defs: dict, seen: set, allowlist) -> list:
    """Allowlist entries that name nothing, or that the scan reaches."""
    return sorted(q for q in allowlist if q not in defs or q in seen)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def fields(modules: dict) -> set:
    """Qualified names ("mod.C.name") of the fields of each top-level class
    of each module {name: source}: its annotated class-level names if it is
    a dataclass, and each ``self.name`` its methods assign."""
    out = set()
    for mod, source in modules.items():
        for node in ast.parse(source).body:
            if not isinstance(node, ast.ClassDef):
                continue
            dataclass = _is_dataclass(node)
            for item in node.body:
                if dataclass and isinstance(item, ast.AnnAssign):
                    out.add(f"{mod}.{node.name}.{item.target.id}")
                elif isinstance(item, FUNCTIONS):
                    for inner in ast.walk(item):
                        if (
                            isinstance(inner, ast.Attribute)
                            and isinstance(inner.ctx, ast.Store)
                            and isinstance(inner.value, ast.Name)
                            and inner.value.id == "self"
                        ):
                            out.add(f"{mod}.{node.name}.{inner.attr}")
    return out


def attributes_read(trees) -> set:
    """Every ``.name`` that the parsed ``trees`` read (not assign)."""
    return {
        inner.attr
        for tree in trees
        for inner in ast.walk(tree)
        if isinstance(inner, ast.Attribute) and isinstance(inner.ctx, ast.Load)
    }


def unread(field_names, read: set) -> list:
    return sorted(q for q in field_names if q.rsplit(".", 1)[1] not in read)


def _sources():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    scripts = [ast.parse(path.read_text()) for path in sorted((ROOT / "scripts").glob("*.py"))]
    return modules, scripts


def library_scan():
    modules, scripts = _sources()
    defs = definitions(modules)
    return defs, reached(defs, ENTRY_POINTS, names_read(scripts))


def field_scan() -> list:
    """The library's fields that neither it nor a script reads."""
    modules, scripts = _sources()
    trees = [ast.parse(source) for source in modules.values()] + scripts
    return unread(fields(modules), attributes_read(trees))


SYNTHETIC = {
    "app": (
        "from .lib import Box, helper\n"
        "TABLE = [helper]\n"
        "def main():\n"
        "    return Box(1).size\n"
    ),
    "lib": (
        "class Base:\n"
        "    def __eq__(self, other):\n"
        "        return shared(other)\n"
        "class Box(Base):\n"
        "    def __init__(self, v):\n"
        "        self.v = v\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def unused_method(self):\n"
        "        return dead()\n"
        "def helper():\n"
        "    return 2\n"
        "def shared(x):\n"
        "    return x\n"
        "def dead():\n"
        "    return 3\n"
        "def by_script():\n"
        "    return 4\n"
    ),
}


def test_the_scan_finds_an_unreached_function():
    defs = definitions(SYNTHETIC)
    seen = reached(defs, ["app.main"])
    # helper is listed only in TABLE, which main does not read
    assert unreached(defs, seen) == [
        "lib.Box.unused_method",
        "lib.by_script",
        "lib.dead",
        "lib.helper",
    ]
    # a root list reaches what it names; a class reaches its base's dunders
    seen = reached(defs, ["app.main", "app.TABLE"], names={"by_script"})
    assert unreached(defs, seen) == ["lib.Box.unused_method", "lib.dead"]
    assert "lib.shared" in seen and "lib.Base.__eq__" in seen


SYNTHETIC_FIELDS = {
    "lib": (
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class Pair:\n"
        "    left: int\n"
        "    right: int = field(default=0)\n"
        "    LIMIT = 3\n"
        "class Box:\n"
        "    def __init__(self, v):\n"
        "        self.v = v\n"
        "        self.w = v\n"
        "    def grow(self):\n"
        "        self.w = self.v + 1\n"
        "def use(p):\n"
        "    p.right = 1\n"
        "    return p.left\n"
    ),
}


def test_the_field_scan_finds_an_unread_field():
    found = fields(SYNTHETIC_FIELDS)
    # an unannotated class attribute is no dataclass field
    assert found == {"lib.Pair.left", "lib.Pair.right", "lib.Box.v", "lib.Box.w"}
    read = attributes_read([ast.parse(SYNTHETIC_FIELDS["lib"])])
    # assigning a field, to self or to another object, does not read it
    assert unread(found, read) == ["lib.Box.w", "lib.Pair.right"]


def test_the_scan_refuses_a_stale_allowlist_entry():
    defs = definitions(SYNTHETIC)
    seen = reached(defs, ["app.main"])
    assert stale_allowlist(defs, seen, {"lib.dead"}) == []
    assert stale_allowlist(defs, seen, {"lib.gone", "lib.Box.size", "lib.dead"}) == [
        "lib.Box.size",
        "lib.gone",
    ]


def test_every_library_function_is_reached_from_an_entry_point():
    defs, seen = library_scan()
    assert [q for q in unreached(defs, seen) if q not in ALLOWLIST] == []


def test_the_allowlist_names_only_unreached_functions():
    defs, seen = library_scan()
    assert stale_allowlist(defs, seen, ALLOWLIST) == []


def test_every_library_field_is_read():
    assert field_scan() == []
