"""Source hygiene: no unused imports, no unreferenced private names, no public
name without a caller, no unreferenced private class members, no
``assert`` statements, no accumulator loops over ``Expr`` or ``KForm`` and no
error class without a raise site in ``src/diracgeom``, every module of it
importable on its own, and no syntax newer than Python 3.10 in any Python
file.  Outside the tests, the package, the benchmark and the demos must read
every public member of a public class, read every static or class method of
one through its own class, and pass every parameter and ``NamedTuple`` field
that has a default.  Importing the
command line and the suite loads neither ``dataclasses`` nor ``inspect``.
Immutability has one mechanism: only ``symalg._Frozen`` defines
``__setattr__``, only ``_Value`` and the types with their own fast paths
define ``__eq__`` or ``__hash__``, and every class with ``__slots__`` or a
cached property derives from ``_Frozen``.

Standard library and pytest only, so it runs with the rest of the tier-1 tests.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "diracgeom"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _used_names(tree: ast.AST) -> set[str]:
    """Every bare name read or bound in the module, plus names listed in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {node.value.id for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return used


def _imported(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = _tree(path)
        used = _used_names(tree)
        unused += [f"{path.name}: {name}" for name in _imported(tree) if name not in used]
    assert unused == []


def _private_definitions(stmt: ast.stmt) -> list[str]:
    """Private names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _references(node: ast.AST) -> set[str]:
    """Names a statement reads, attributes it reads, and names it imports."""
    refs = {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    refs |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
    refs |= {alias.name for n in ast.walk(node) if isinstance(n, ast.ImportFrom) for alias in n.names}
    return refs


def test_private_module_names_are_referenced():
    # a definition's own body (recursion) does not count as a use
    statements = [(path, stmt, _references(stmt)) for path in MODULES for stmt in _tree(path).body]
    unreferenced = []
    for path, stmt, _ in statements:
        for name in _private_definitions(stmt):
            if not any(name in refs for _, other, refs in statements if other is not stmt):
                unreferenced.append(f"{path.name}: {name}")
    assert unreferenced == []


def test_every_public_name_has_a_caller():
    # a public module-level function or class that nothing in the package reads is a test
    # helper and belongs in the tests; names are matched as in the private-name test
    statements = [(path, stmt, _references(stmt)) for path in MODULES for stmt in _tree(path).body]
    uncalled = []
    for path, stmt, _ in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
            if not any(stmt.name in refs for _, other, refs in statements if other is not stmt):
                uncalled.append(f"{path.name}: {stmt.name}")
    assert uncalled == []


def _class_members(cls: ast.ClassDef) -> list[tuple[str, ast.stmt]]:
    """Members a class body defines: methods, cached properties and class attributes or fields."""
    members = []
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef):
            members.append((stmt.name, stmt))
        elif isinstance(stmt, ast.Assign):
            members += [(t.id, stmt) for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            members.append((stmt.target.id, stmt))
    return members


def _mentions(node: ast.AST) -> Counter:
    """How often each attribute is read and each bare name loaded inside ``node``."""
    found = Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))
    found.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    return found


def test_private_class_members_are_referenced():
    # private: a private member name, or any member of a private class.  Attributes are
    # matched by name alone, and a member's own definition does not count as a use.
    trees = [(path, _tree(path)) for path in MODULES]
    everywhere = sum((_mentions(tree) for _, tree in trees), Counter())
    unreferenced = []
    for path, tree in trees:
        for cls in (stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)):
            for name, stmt in _class_members(cls):
                private = name.startswith("_") or cls.name.startswith("_")
                if private and not name.startswith("__") and everywhere[name] <= _mentions(stmt)[name]:
                    unreferenced.append(f"{path.name}: {cls.name}.{name}")
    assert unreferenced == []


# the programs that may call into the package: everything outside the tests
PROGRAMS = sorted(path for top in ("src", "bench", "demos") for path in (ROOT / top).rglob("*.py"))


def _decorators(node: ast.FunctionDef | ast.ClassDef) -> set[str]:
    """Names of a definition's decorators, called or not."""
    return {ast.unparse(d.func if isinstance(d, ast.Call) else d) for d in node.decorator_list}


def _options(tree: ast.Module):
    """Yield (callee, position, name) for every parameter and every ``NamedTuple`` field with a default.

    ``position`` is the number of arguments a call passes before it, None for a keyword-only
    parameter.  A call to a class is a call to its ``__init__``.
    """
    owners = {id(stmt): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for stmt in cls.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            callee = owners[id(node)] if node.name == "__init__" else node.name
            bound = id(node) in owners and "staticmethod" not in _decorators(node)
            positional = (node.args.posonlyargs + node.args.args)[int(bound) :]
            first = len(positional) - len(node.args.defaults)
            yield from ((callee, i, arg.arg) for i, arg in enumerate(positional) if i >= first)
            yield from ((callee, None, a.arg) for a, d in zip(node.args.kwonlyargs, node.args.kw_defaults) if d)
        elif isinstance(node, ast.ClassDef) and "NamedTuple" in {ast.unparse(b) for b in node.bases}:
            fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            yield from ((node.name, i, stmt.target.id) for i, stmt in enumerate(fields) if stmt.value is not None)


def _passed(tree: ast.Module) -> set[tuple[str, object]]:
    """(callee, position or keyword) for every argument a call passes; (callee, "*") for ``*args`` or ``**kwargs``."""
    passed = set()
    for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        func = call.func
        name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
        passed |= {(name, i) for i in range(len(call.args))} | {(name, k.arg or "*") for k in call.keywords}
        if any(isinstance(a, ast.Starred) for a in call.args):
            passed.add((name, "*"))
    return passed


def test_every_option_has_a_program_caller():
    # a parameter or NamedTuple field with a default that no program passes has one value in use,
    # so it is a constant; callees and keywords are matched by bare name, as in the tests above
    passed = set().union(*(_passed(_tree(path)) for path in PROGRAMS))
    unpassed = [
        f"{callee}({name})"
        for path in MODULES
        for callee, position, name in _options(_tree(path))
        if not {(callee, position), (callee, name), (callee, "*")} & passed
    ]
    assert unpassed == []


def test_public_class_members_are_read():
    # a public member of a public class must be read by the package, the benchmark or a demo;
    # matched as in the private-member test, so a read of any attribute of that name counts
    everywhere = sum((_mentions(_tree(path)) for path in PROGRAMS), Counter())
    unread = []
    for path in MODULES:
        for cls in (stmt for stmt in _tree(path).body if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_")):
            for name, stmt in _class_members(cls):
                if not name.startswith("_") and everywhere[name] <= _mentions(stmt)[name]:
                    unread.append(f"{path.name}: {cls.name}.{name}")
    assert unread == []


def _qualified_reads(node: ast.AST) -> Counter:
    """How often each ``Class.member`` is read inside ``node``, keyed by (class name, member name)."""
    return Counter((n.value.id, n.attr) for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name))


def test_static_members_are_read_through_their_class():
    # a static or class method of a public class must be read as Class.member by the package, the
    # benchmark or a demo: a read of another class's member of that name does not count, nor does
    # the member's own definition
    everywhere = sum((_qualified_reads(_tree(path)) for path in PROGRAMS), Counter())
    unread = []
    for path in MODULES:
        for cls in (stmt for stmt in _tree(path).body if isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_")):
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef) and _decorators(stmt) & {"staticmethod", "classmethod"}:
                    key = (cls.name, stmt.name)
                    if everywhere[key] <= _qualified_reads(stmt)[key]:
                        unread.append(f"{path.name}: {cls.name}.{stmt.name}")
    assert unread == []


def test_no_assert_statements():
    # python -O strips asserts, so a condition the engine relies on must raise instead
    found = []
    for path in MODULES:
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert found == []


def _raised_names(tree: ast.AST) -> set[str]:
    """Classes raised by name: ``raise X(...)`` or ``raise X``, and every name passed to ``.require(...)``."""
    raised = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                raised.add(exc.id)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "require":
            raised |= {arg.id for arg in node.args if isinstance(arg, ast.Name)}
    return raised


def test_every_error_class_is_raised():
    # one class per condition, raised where the condition is found: a class whose last raise
    # site goes must go with it, so no two classes are left naming one condition
    defined = {stmt.name for stmt in _tree(SRC / "errors.py").body if isinstance(stmt, ast.ClassDef)}
    raised = set().union(*(_raised_names(_tree(path)) for path in MODULES))
    assert sorted(defined - {"EngineError"} - raised) == []


def _is_zero_call(node: ast.AST) -> bool:
    """Whether ``node`` is ``Expr.zero(...)`` or ``KForm.zero(...)``."""
    func = node.func if isinstance(node, ast.Call) else None
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "zero"
        and isinstance(func.value, ast.Name)
        and func.value.id in ("Expr", "KForm")
    )


def _accumulations(fn: ast.FunctionDef) -> set[int]:
    """Lines in loops of ``fn`` that add to or subtract from a name ``fn`` starts at ``Expr.zero(...)`` or ``KForm.zero(...)``."""
    zeros = {t.id for n in ast.walk(fn) if isinstance(n, ast.Assign) and _is_zero_call(n.value) for t in n.targets if isinstance(t, ast.Name)}
    found = set()
    for loop in (n for n in ast.walk(fn) if isinstance(n, (ast.For, ast.While))):
        for n in ast.walk(loop):
            if isinstance(n, ast.AugAssign) and isinstance(n.op, (ast.Add, ast.Sub)):
                target = n.target
            elif isinstance(n, ast.Assign) and len(n.targets) == 1 and isinstance(n.value, ast.BinOp) and isinstance(n.value.op, (ast.Add, ast.Sub)):
                target = n.targets[0]
                if not (isinstance(n.value.left, ast.Name) and isinstance(target, ast.Name) and n.value.left.id == target.id):
                    continue
            else:
                continue
            if isinstance(target, ast.Name) and target.id in zeros:
                found.add(n.lineno)
    return found


def test_no_accumulator_loops():
    # acc = acc + a * b copies the whole term map at every step, and a KForm sum copies every
    # coefficient; symalg.dot (products of polynomials) and symalg._combine (rational
    # coefficients) build a sum in one map
    found = set()
    for path in MODULES:
        for fn in ast.walk(_tree(path)):
            if isinstance(fn, ast.FunctionDef):
                found |= {f"{path.name}:{line}" for line in _accumulations(fn)}
    assert sorted(found) == []


# __main__ runs the command line when imported; tests/test_cli.py runs it through python -m diracgeom
@pytest.mark.parametrize("module", [path.stem for path in MODULES if path.stem != "__main__"])
def test_each_module_imports_alone(module):
    # a fresh interpreter per module: an import cycle fails only when one of its modules is imported first
    name = "diracgeom" if module == "__init__" else f"diracgeom.{module}"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", f"import {name}"], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr


def test_options_cover_named_tuple_fields():
    # the defaults of NamedTuple fields count as options, with their position among the fields
    tree = ast.parse("class T(NamedTuple):\n    a: int\n    b: int = 0\n\n    def f(self, c=1):\n        pass\n")
    assert set(_options(tree)) == {("T", 1, "b"), ("f", 0, "c")}


def test_start_up_generates_no_code():
    # dataclasses builds each class's methods with exec at import, and it pulls in inspect:
    # together about a fifth of a short command's wall time
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    code = "import sys, diracgeom.cli, diracgeom.suite; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


# the types whose equality keeps an identity or hash fast path, compares with numbers or hashes a frozenset
OWN_EQUALITY = {f"{cls}.{name}" for cls in ("_Value", "Patch", "Expr", "_AntisymTensor") for name in ("__eq__", "__hash__")}


def test_immutability_has_one_mechanism():
    # a class refusing assignment or comparing its fields by hand repeats what _Frozen and _Value hold once;
    # a _Value without its own _FIELDS would compare equal to every other instance of its type
    classes = {cls.name: cls for path in MODULES for cls in ast.walk(_tree(path)) if isinstance(cls, ast.ClassDef)}

    def derives(name: str, base: str) -> bool:
        return name == base or name in classes and any(derives(ast.unparse(b), base) for b in classes[name].bases)

    defined, loose = set(), []
    for cls in classes.values():
        members = {name for name, _ in _class_members(cls)}
        for name, stmt in _class_members(cls):
            if name in ("__setattr__", "__eq__", "__hash__"):
                defined.add(f"{cls.name}.{name}" + ("" if isinstance(stmt, ast.FunctionDef) else f" = {ast.unparse(stmt.value)}"))
        cached = any("cached_property" in _decorators(stmt) for stmt in cls.body if isinstance(stmt, ast.FunctionDef))
        if ("__slots__" in members or cached) and not derives(cls.name, "_Frozen"):
            loose.append(cls.name)
        if derives(cls.name, "_Value") and cls.name != "_Value" and "_FIELDS" not in members:
            loose.append(f"{cls.name} has no _FIELDS")
    assert defined == {"_Frozen.__setattr__", "AlgebroidPatch.__hash__ = None"} | OWN_EQUALITY
    assert loose == []


def test_python_files_parse_as_python_3_10():
    # the package supports Python 3.10 (pyproject.toml), so no file may use newer syntax
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    files = sorted(path for top in ("src", "tests", "bench", "demos") for path in (ROOT / top).rglob("*.py"))
    refused = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            refused.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert files and refused == []
