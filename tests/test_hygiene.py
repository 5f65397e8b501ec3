"""The package holds only what a command runs, and imports only what it uses.

Both checks read the source with ``ast``; neither imports the package.  A
module-level definition counts as referenced when its name is read as a
global (a bare name that the scope's symbol table, from ``symtable``,
resolves to module scope) or as an attribute; a method or property only
when its name is read as an attribute.  A local variable or parameter that
shares a definition's name is not a use of it, and importing it is not a
use either.  What remains is matching by name: a method name read as an
attribute of any object counts, so an unused ``Graph.sign`` would read as
referenced through ``FieldElement.sign``.
"""

import ast
import symtable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qpolykit"

# Reached only from the tests, on purpose: krein_oracle is the independent
# oracle for the Krein table (it must call nothing it checks), and
# f_polynomials is the public form of the recurrence's polynomials.
KEPT = {"schemes.krein_oracle", "tridiagonal.f_polynomials"}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
# symbol-table names of the scopes that are not named definitions
SCOPE_NAMES = {
    ast.Lambda: "lambda",
    ast.GeneratorExp: "genexpr",
    ast.ListComp: "listcomp",
    ast.SetComp: "setcomp",
    ast.DictComp: "dictcomp",
}


def _is_global(name: str, scopes: list[symtable.SymbolTable]) -> bool:
    """name, read in the innermost of scopes, resolves to module scope.

    The innermost table that has the name decides; a name no table has is
    never evaluated (an annotation under ``from __future__ import
    annotations``).
    """
    for table in reversed(scopes):
        try:
            symbol = table.lookup(name)
        except KeyError:
            continue
        return table.get_type() == "module" or symbol.is_global()
    return False


def _child(table: symtable.SymbolTable, node: ast.AST, used: set[int]) -> symtable.SymbolTable:
    """The scope node opens: table's first child not in used with node's name and first line."""
    key = (getattr(node, "name", None) or SCOPE_NAMES[type(node)], node.lineno)
    return next(t for t in table.get_children() if (t.get_name(), t.get_lineno()) == key and t.get_id() not in used)


def _references(nodes: list[ast.AST], scopes: list[symtable.SymbolTable]) -> tuple[set[str], set[str]]:
    """(globals, attributes): the names nodes read as globals and as attributes.

    scopes holds the symbol tables around nodes, innermost last.  A nested
    scope's table is its parent's child of the same name and first line; a
    definition's decorators, defaults and bases are read in the enclosing
    scope, its body in its own.
    """
    found: tuple[set[str], set[str]] = (set(), set())
    used = set()

    def enter(node: ast.AST, scopes: list) -> list:
        table = _child(scopes[-1], node, used)
        used.add(table.get_id())
        return scopes + [table]

    def visit(node: ast.AST, scopes: list) -> None:
        if isinstance(node, ast.Attribute):
            found[1].add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and _is_global(node.id, scopes):
            found[0].add(node.id)
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            if isinstance(node, ast.ClassDef):
                outer = node.bases + node.keywords
            else:
                outer = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
            for n in node.decorator_list + outer:
                visit(n, scopes)
            inner = enter(node, scopes)
            for n in node.body:
                visit(n, inner)
            return
        if type(node) in SCOPE_NAMES:
            # a comprehension's first iterable is no symbol of its table: it resolves outside
            scopes = enter(node, scopes)
        for n in ast.iter_child_nodes(node):
            visit(n, scopes)

    for node in nodes:
        visit(node, scopes)
    return found


def _module(path: Path) -> tuple[ast.Module, symtable.SymbolTable]:
    source = path.read_text()
    return ast.parse(source, str(path)), symtable.symtable(source, str(path), "exec")


def _unreferenced(package=PACKAGE, live_dirs=("scripts", "perfbench")) -> set[str]:
    """Module-level functions and classes of the package, and their methods and properties, that nothing live references.

    Live code is the package's module-level statements outside its
    definitions, every file under live_dirs, and every definition that
    live code references, found by removing unreferenced definitions until
    none is left.  A class's own references are its bases, decorators and
    the statements of its body outside its methods; a method of an
    unreferenced class is unreferenced too.  Dunder methods are left out:
    the language calls them.
    """
    defs: dict[str, tuple[str, tuple[set[str], set[str]], str | None]] = {}  # key: (name, its references, owner key)
    live: tuple[set[str], set[str]] = (set(), set())

    def add(key: str, name: str, refs: tuple[set[str], set[str]], owner: str | None) -> None:
        defs[key] = (name, (refs[0] - {name}, refs[1] - {name}), owner)  # a definition does not keep itself alive

    for path in sorted(package.glob("*.py")):
        tree, top = _module(path)
        for node in tree.body:
            key = f"{path.stem}.{getattr(node, 'name', '')}"
            if isinstance(node, FUNCTIONS):
                add(key, node.name, _references([node], [top]), None)
            elif isinstance(node, ast.ClassDef):
                table = _child(top, node, set())
                own = _references(node.decorator_list + node.bases + node.keywords, [top])
                for item in node.body:
                    refs = _references([item], [top, table])
                    if isinstance(item, FUNCTIONS) and not (item.name.startswith("__") and item.name.endswith("__")):
                        add(f"{key}.{item.name}", item.name, refs, key)
                    else:
                        own = (own[0] | refs[0], own[1] | refs[1])
                add(key, node.name, own, None)
            else:
                refs = _references([node], [top])
                live = (live[0] | refs[0], live[1] | refs[1])
    for directory in live_dirs:
        for path in sorted((package.parents[1] / directory).rglob("*.py")):
            tree, top = _module(path)
            refs = _references(tree.body, [top])
            live = (live[0] | refs[0], live[1] | refs[1])
    dead: set[str] = set()
    while True:
        alive = [refs for key, (_, refs, _) in defs.items() if key not in dead]
        names = live[0].union(*(g for g, _ in alive))
        attributes = live[1].union(*(a for _, a in alive))
        now_dead = {
            key
            for key, (name, _, owner) in defs.items()
            if owner in dead or name not in (attributes if owner else names | attributes)
        }
        if now_dead == dead:
            return dead
        dead = now_dead


def test_every_package_definition_is_reached_outside_the_tests():
    assert sorted(_unreferenced()) == sorted(KEPT)


def test_locals_parameters_and_bare_method_names_are_not_references(tmp_path):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "def helper():\n"
        "    return 1\n"
        "\n"
        "def shadowed():\n"
        "    return 2\n"
        "\n"
        "def main(shadowed=3):\n"
        "    local = [helper for helper in range(shadowed)]\n"
        "    return local, Box().used()\n"
        "\n"
        "class Box:\n"
        "    def used(self):\n"
        "        return only_by_bare_name(self)\n"
        "\n"
        "    def only_by_bare_name(self):\n"
        "        return 0\n"
        "\n"
        "    def sign(self):\n"
        "        return 0\n"
    )
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "run.py").write_text("from pkg.mod import main\n\nmain()\n\ndef report(x):\n    return x.sign()\n")
    # Box.sign stays: a method name read as an attribute of any object counts (the module docstring's limit)
    assert _unreferenced(package, ("scripts",)) == {"mod.helper", "mod.shadowed", "mod.Box.only_by_bare_name"}


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source, str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        # names a module re-exports through __all__
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]:
                unused.append(f"{path.relative_to(ROOT)}:{alias.lineno}: {bound}")
    return unused


def test_no_unused_import_in_the_package_or_scripts():
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert [u for path in paths for u in _unused_imports(path)] == []
