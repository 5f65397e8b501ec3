"""The package holds only what a command runs, and imports only what it uses.

Both checks read the source with ``ast``; neither imports the package.  A
definition counts as referenced when its bare name is used as a name or an
attribute; importing it is not a use.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qpolykit"

# Reached only from the tests, on purpose: krein_oracle is the independent
# oracle for the Krein table (it must call nothing it checks), and
# f_polynomials is the public form of the recurrence's polynomials.
KEPT = {"schemes.krein_oracle", "tridiagonal.f_polynomials"}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def _names(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _unreferenced() -> set[str]:
    """Module-level functions and classes of the package, and their methods and properties, that nothing live references.

    Live code is the package's module-level statements outside its
    definitions, every file under scripts/ and perfbench/, and every
    definition that live code references, found by removing unreferenced
    definitions until none is left.  A class's own references are those
    outside its methods; a method of an unreferenced class is unreferenced
    too.  Dunder methods are left out: the language calls them.
    """
    defs: dict[str, tuple[str, set[str], str | None]] = {}  # key: (name, its references, owning class key)
    live = set()
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _tree(path).body:
            key = f"{path.stem}.{node.name}" if isinstance(node, (*functions, ast.ClassDef)) else None
            if isinstance(node, ast.ClassDef):
                own = set()
                for item in node.body:
                    if isinstance(item, functions) and not (item.name.startswith("__") and item.name.endswith("__")):
                        defs[f"{key}.{item.name}"] = (item.name, _names(item) - {item.name}, key)
                    else:
                        own |= _names(item)
                own |= set().union(*(_names(n) for n in node.bases + node.decorator_list))
                defs[key] = (node.name, own - {node.name}, None)
            elif key:
                defs[key] = (node.name, _names(node) - {node.name}, None)
            else:
                live |= _names(node)
    for directory in ("scripts", "perfbench"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            live |= _names(_tree(path))
    dead: set[str] = set()
    while True:
        referenced = live.union(*(refs for key, (_, refs, _) in defs.items() if key not in dead))
        now_dead = {key for key, (name, _, owner) in defs.items() if name not in referenced or owner in dead}
        if now_dead == dead:
            return dead
        dead = now_dead


def test_every_package_definition_is_reached_outside_the_tests():
    assert sorted(_unreferenced()) == sorted(KEPT)


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
