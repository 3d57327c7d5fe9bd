"""Rules the package source keeps, checked on its syntax trees."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "zonotutte"
SOURCES = sorted(PACKAGE.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert statements, so no invariant may rest on one
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_imports_are_standard_library_or_relative():
    # the package has no runtime dependency: each import is relative, from
    # __future__, or of a standard-library module
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_exact_arithmetic_only():
    # every number stays exact: no true division, no float and no
    # fractions, whose slope keys would be the shortcut in the oracle's
    # envelopes; integer code divides with // and divmod
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append(f"{path.name}:{node.lineno} /")
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(f"{path.name}:{node.lineno} float")
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
            elif isinstance(node, ast.Import):
                found += [
                    f"{path.name}:{node.lineno} {alias.name}"
                    for alias in node.names
                    if alias.name.partition(".")[0] == "fractions"
                ]
            elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
                found.append(f"{path.name}:{node.lineno} fractions")
    assert found == []


def _classes_defined(name):
    tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def test_one_exception_class_per_exit_code():
    # every class errors.py defines, but the base, is raised in the package;
    # each except clause of cli.main that returns an EXIT_* code names one
    # class and returns its own code, and every error class but the
    # library-only UnboundedCone has such a clause.  The other clauses catch
    # classes of cli's own
    errors = _classes_defined("errors.py") - {"ZonotutteError"}
    raised = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert errors - raised == set()

    cli = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    main = next(
        node for node in cli.body if isinstance(node, ast.FunctionDef) and node.name == "main"
    )
    pairs = []
    for handler in ast.walk(main):
        if not isinstance(handler, ast.ExceptHandler):
            continue
        codes = [
            node.value.id
            for node in ast.walk(handler)
            if isinstance(node, ast.Return)
            and isinstance(node.value, ast.Name)
            and node.value.id.startswith("EXIT_")
        ]
        if codes:
            assert isinstance(handler.type, ast.Name), ast.unparse(handler.type)
            pairs += [(handler.type.id, code) for code in codes]
    caught = {name for name, _ in pairs}
    assert len(pairs) == len(caught) == len({code for _, code in pairs})
    assert set(caught) - errors <= _classes_defined("cli.py")
    assert errors - caught == {"UnboundedCone"}


def test_no_dataclasses():
    # dataclasses imports inspect, ast and dis, about 10 ms of every CLI
    # call's start-up; the records are plain classes with __slots__
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name == "dataclasses"]
    assert found == []


def test_no_cache_outlives_a_call():
    # the kernel and the sums keep no state between calls, so a benchmark
    # that repeats its inputs times the work every call does; the cli
    # parser cache is the one allowed
    names = ("exact_linalg", "tutte_core", "ehrhart", "polynomials", "geometry_oracle")
    found = []
    for name in names:
        path = PACKAGE / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                label = getattr(target, "attr", getattr(target, "id", None))
                if label in ("cache", "lru_cache"):
                    found.append(f"{path.name}:{decorator.lineno} {label}")
    assert found == []


def _relative_imports(name):
    """{module: names} of the relative imports of one package module."""
    path = PACKAGE / f"{name}.py"
    found = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module is None:
                # from . import x: each name is a module
                for alias in node.names:
                    found.setdefault(alias.name, set()).add("*")
            else:
                found.setdefault(node.module, set()).update(a.name for a in node.names)
    return found


def test_the_two_ehrhart_routes_stay_apart():
    # the Tutte sum and the lattice kernel take nothing from the k-vector
    # route, and that route takes only the list record and the input check,
    # so verify's comparison of the two sees a fault on either side
    for name in ("tutte_core", "exact_linalg"):
        assert "ehrhart" not in _relative_imports(name), name
    imports = _relative_imports("ehrhart")
    assert imports.get("exact_linalg", set()) <= {"VectorList"}
    assert imports.get("tutte_core", set()) <= {"MAX_LIST_SIZE", "TutteResult", "check_input"}
