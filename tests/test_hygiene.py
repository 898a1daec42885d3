"""Source rules for src/adicspec, checked on the syntax tree: no floats
(every result is exact), no bare ValueError (every error is an AdicError
with a code), no assert (checks must survive python -O), no call that
changes a process-wide interpreter limit (an in-process caller, such as a
test run or the CLI under CliRunner, would inherit it), no import inside
a function (a module's dependencies are read from its top), and no work
cap but errors.MAX_WORK (every refusal for work is one check_work)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "adicspec"

# (module, function) -> why its assert stays
ASSERT_ALLOWED = {
    ("valuation", "equivalent"):
        "cross-check of the structural answer on a probe family; moving it "
        "into the tests waits for a prime pool the spv benchmark cannot "
        "exhaust",
}

# sys functions that change a limit of the whole interpreter
PROCESS_GLOBAL = {"set_int_max_str_digits", "setrecursionlimit"}


def _work_cap(module: str, name: str) -> bool:
    """A module-level name that would be a second work limit."""
    return (name.endswith("_WORK") and (module, name) != ("errors", "MAX_WORK")
            or name == "MAX_EXPANSION_BITS")


def _called_name(call: ast.Call):
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _findings(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    module = path.stem
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        where = f"{module}.py:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Constant) and type(node.value) is float:
            out.append(f"{where}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            out.append(f"{where}: float() call")
        elif isinstance(node, ast.Call) and _called_name(node) in PROCESS_GLOBAL:
            out.append(f"{where}: {_called_name(node)}() call")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                out.append(f"{where}: raise ValueError")
        elif isinstance(node, ast.Assert) and (module, func) not in ASSERT_ALLOWED:
            out.append(f"{where}: assert in {func}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and func is not None:
            out.append(f"{where}: import in {func}")
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and func is None:
            out.extend(f"{where}: work cap {n.id}" for n in ast.walk(node)
                       if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                       and _work_cap(module, n.id))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_follows_the_source_rules(path):
    assert _findings(path) == []


def test_allowed_asserts_still_exist():
    # an entry whose assert is gone must leave the allowlist too
    for module, func in ASSERT_ALLOWED:
        tree = ast.parse((SRC / f"{module}.py").read_text())
        body = next(n for n in ast.walk(tree)
                    if isinstance(n, ast.FunctionDef) and n.name == func)
        assert any(isinstance(n, ast.Assert) for n in ast.walk(body))


def test_the_rules_catch_each_kind(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import sys\n"
                   "from sys import setrecursionlimit\n"
                   "def f(x):\n"
                   "    from math import gcd\n"
                   "    assert x\n"
                   "    y = float(x) + 0.5\n"
                   "    sys.set_int_max_str_digits(0)\n"
                   "    setrecursionlimit(10 ** 6)\n"
                   "    raise ValueError('no')\n"
                   "MAX_SHIFT_WORK = MAX_EXPANSION_BITS = 5\n"
                   "MAX_WORK, MAX_DEGREE = 10 ** 9, 10000\n"
                   "KEY_WORK: int = 1\n")
    found = _findings(bad)
    assert [f.split(": ", 1)[1] for f in found] == [
        "import in f", "assert in f", "float() call", "float literal 0.5",
        "set_int_max_str_digits() call", "setrecursionlimit() call",
        "raise ValueError", "work cap MAX_SHIFT_WORK",
        "work cap MAX_EXPANSION_BITS", "work cap MAX_WORK",
        "work cap KEY_WORK"]


def _unused_imports(path: Path):
    """Names an import binds in the module that no expression there reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.stem}.py:{line}: {name} imported, never used"
            for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path) == []


def test_the_import_scan_catches_a_planted_case(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("from __future__ import annotations\n"
                   "import os.path\n"
                   "from math import gcd, lcm as least\n"
                   "def f(x):\n"
                   "    return gcd(x, 2)\n")
    assert _unused_imports(bad) == ["bad.py:2: os imported, never used",
                                    "bad.py:3: least imported, never used"]
