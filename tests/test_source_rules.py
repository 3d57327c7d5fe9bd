"""Rules the package source keeps, checked on its syntax trees."""

import ast
import sys
from pathlib import Path

from code_lines import code_lines

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


def test_no_assertion_errors_raised():
    # a failed check is a FAIL row or a documented exit code, so no code
    # path of the package ends in an AssertionError traceback
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
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
    # class and returns its own code, and every error class has such a
    # clause.  The other clauses catch classes of cli's own
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
    assert errors - caught == set()


def test_no_dataclasses():
    # dataclasses imports inspect, ast and dis, about 10 ms of every CLI
    # call's start-up; the records are plain classes with __slots__ or
    # collections.namedtuple subclasses
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


def test_the_oracle_takes_only_its_listed_names_from_the_kernel():
    # the oracle's facet normals and point counts share no elimination with
    # the polynomial side: of exact_linalg it takes the list record and the
    # rank check alone, by a from-import or as an exact_linalg.<name>
    # attribute
    path = PACKAGE / "geometry_oracle.py"
    taken = _relative_imports("geometry_oracle").get("exact_linalg", set()) - {"*"}
    taken |= {
        node.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "exact_linalg"
    }
    assert taken == {"VectorList", "check_full_rank"}


# defaults no call in src passes, each with the reason it stays
DEFAULTS_WITHOUT_A_CALLER = {
    # cli._cmd_tutte calls it through the name compute, with max_list_size
    ("classical_tutte", "max_list_size"),
    # the entry point: run() passes no argv, and tests and the benchmark do
    ("main", "argv"),
}


def _defaulted(function, skip):
    """{parameter: its position among a call's arguments, None if
    keyword-only} for each defaulted parameter of function; skip is the
    number of leading parameters a call does not pass (self or cls)."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = {a.arg: i - skip for i, a in enumerate(positional[first:], first)}
    found.update(
        (a.arg, None)
        for a, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    return found


def test_every_default_has_a_caller():
    # a defaulted parameter of a module-level function, or of a method of a
    # module-level class, that no call in the package sets is an option with
    # one value; it becomes a constant.  A call sets it by keyword or by
    # position, and names its callee by an ast.Name id or an ast.Attribute
    # attr; a call of class C is a call of C.__init__
    defaults = {}  # (callee, parameter): (its position, what defines it)
    passed = set()  # (callee, parameter name or position)
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            functions = []  # (callee, definition, label, parameters a call skips)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((node.name, node, node.name, 0))
            elif isinstance(node, ast.ClassDef):
                for method in node.body:
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        static = any(
                            getattr(d, "id", None) == "staticmethod" for d in method.decorator_list
                        )
                        callee = node.name if method.name == "__init__" else method.name
                        label = f"{node.name}.{method.name}"
                        functions.append((callee, method, label, 0 if static else 1))
            for callee, function, label, skip in functions:
                for name, i in _defaulted(function, skip).items():
                    defaults[callee, name] = (i, label)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed.update((callee, k.arg) for k in node.keywords)
                passed.update((callee, i) for i in range(len(node.args)))
    assert DEFAULTS_WITHOUT_A_CALLER <= defaults.keys()
    found = [
        f"{label}.{name}"
        for (callee, name), (i, label) in defaults.items()
        if not {(callee, name), (callee, i)} & passed
        and (callee, name) not in DEFAULTS_WITHOUT_A_CALLER
    ]
    assert found == []


def test_every_definition_is_referenced():
    # a module-level function or class that nothing in the package names,
    # outside its own body, and that __init__ does not export is dead code.
    # A name counts as an ast.Name id or an ast.Attribute attr, not as an
    # import of it; module dunders such as __getattr__ are exempt
    init = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    exports = next(
        node.value
        for node in init.body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "_EXPORTS"
    )
    exported = {name for names in ast.literal_eval(exports).values() for name in names}
    defined = []  # (file, definition)
    referenced = {}  # name: the nodes that name it
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node))
        for node in ast.walk(tree):
            name = getattr(node, "id", None) if isinstance(node, ast.Name) else None
            if isinstance(node, ast.Attribute):
                name = node.attr
            if name is not None:
                referenced.setdefault(name, []).append(node)
    assert {"lattice_multiplicity", "hnf_insert"} <= {node.name for _, node in defined}
    found = []
    for file, definition in defined:
        name = definition.name
        if name in exported or (name.startswith("__") and name.endswith("__")):
            continue
        inside = {id(node) for node in ast.walk(definition)}
        if not any(id(node) not in inside for node in referenced.get(name, ())):
            found.append(f"{file}:{definition.lineno} {name}")
    assert found == []


def test_code_line_counter():
    # the counter ROADMAP's line figure comes from: docstrings, comments
    # and blank lines do not count, and a statement over two lines counts
    # two
    sample = '''"""Module docstring,
over two lines."""

import math  # a trailing comment


def area(r):
    """Docstring."""
    # a comment line
    return (math.pi
            * r * r)
'''
    assert code_lines(sample) == 4
