"""Report-first checks: one raise path, and no strict knob left behind."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from dataclasses import replace
from pathlib import Path

import pytest

import dyadica
from dyadica.dyadic import build_system, check_partition
from dyadica import errors, policy
from dyadica.errors import CheckFailed, DyadicaError
from dyadica.maximal import MaximalParams
from dyadica.policy import CheckReport, outcome, require
from dyadica.space import generate_space


class TestRequire:
    def test_fail_raises_recorded_error_with_witness(self):
        witness = {"x": 3, "side": "upper"}
        rep = outcome("shifted_sandwich", True, witness)
        assert rep.status == "fail"
        with pytest.raises(CheckFailed) as info:
            require(rep)
        assert info.value.check == "shifted_sandwich"
        assert info.value.witness == witness

    @pytest.mark.parametrize("status", ["pass", "vacuous"])
    def test_non_failing_report_returned_unchanged(self, status):
        rep = CheckReport("shifted_sandwich", status, witness=None,
                          details={"m": 2})
        before = CheckReport("shifted_sandwich", status, witness=None,
                             details={"m": 2})
        assert require(rep) is rep
        assert rep == before

    def test_real_check_failure_is_catchable(self):
        space, _ = generate_space("integer_segment_counting", n=8)
        sys = build_system(space)
        # point 0's finest label names point 1's cube one generation up,
        # so two cubes of that generation hold point 0
        label = sys.label.copy()
        label[-1, 0] = sys.containing_cube(sys.k_max - 1, 1)
        rep = check_partition(replace(sys, label=label))
        assert rep.status == "fail"
        assert rep.witness["multiplicity"] == 2
        with pytest.raises(CheckFailed) as info:
            require(rep)
        assert isinstance(info.value, DyadicaError)
        assert info.value.check == "partition"
        assert info.value.witness == rep.witness


def _public_modules():
    for info in pkgutil.iter_modules(dyadica.__path__):
        yield importlib.import_module(f"dyadica.{info.name}")


def _callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != \
                module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{module.__name__}.{name}", obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                fn = getattr(member, "__func__", member)
                if inspect.isfunction(fn):
                    yield f"{module.__name__}.{name}.{attr}", fn


def test_no_strict_parameter_anywhere():
    offenders = [name for module in _public_modules()
                 for name, fn in _callables(module)
                 if "strict" in inspect.signature(fn).parameters]
    assert offenders == []


def test_no_tolerance_or_derivable_inputs():
    # tolerances are read from TOLERANCES where they are used; ``close``
    # takes its tolerance as a required argument because its callers
    # compare against different table entries
    offenders = [name for module in _public_modules()
                 for name, fn in _callables(module)
                 for pname, param in inspect.signature(fn).parameters.items()
                 if pname == "rel" and param.default is not param.empty]
    assert offenders == []
    assert not hasattr(policy, "leq")
    # the doubling constant is measured from (space, mu), never passed in
    assert [f.name for f in dataclasses.fields(MaximalParams)] == \
        ["space", "mu", "gamma"]


def test_every_check_returns_a_report():
    # a check returns its outcome: one report, a list of them, or a tuple
    # led by one (check_ball_coverage adds its certificate)
    checks = {name: inspect.signature(fn).return_annotation
              for module in _public_modules()
              for name, fn in _callables(module)
              if name.rsplit(".", 1)[-1].startswith("check_")}
    assert "dyadica.maximal.check_maximal_equivalence" in checks
    offenders = {name: ann for name, ann in checks.items()
                 if not re.fullmatch(r"CheckReport|list\[CheckReport\]|"
                                     r"tuple\[CheckReport, .+\]", ann)}
    assert offenders == {}


def _unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports_in_the_package():
    # the test modules are scanned too
    roots = (Path(dyadica.__file__).parent, Path(__file__).parent)
    found = [f"{root.name}/{path.name}:{entry}" for root in roots
             for path in sorted(root.glob("*.py"))
             if path.name != "__init__.py"
             for entry in _unused_imports(ast.parse(path.read_text()))]
    assert found == []


def test_one_error_class_per_role():
    # a new failure is a CheckFailed naming its check, not a new class
    roles = ("DyadicaError", "ConfigError", "BadParams", "CheckFailed")
    defined = {f"{module.__name__}.{name}" for module in _public_modules()
               for name, obj in vars(module).items()
               if inspect.isclass(obj) and obj.__module__ == module.__name__
               and (module is errors or issubclass(obj, DyadicaError))}
    assert defined == {f"dyadica.errors.{name}" for name in roles}
    assert sorted(c.__name__ for c in DyadicaError.__subclasses__()) == \
        sorted(roles[1:])


def test_no_catch_all_except_in_the_package():
    # an error nobody expected propagates as raised
    root = Path(dyadica.__file__).parent
    found = []
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            if any(c is None or getattr(c, "id", None) in
                   ("Exception", "BaseException") for c in caught):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a check written as one would
    # vanish; the package raises its typed errors instead
    root = Path(dyadica.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(root.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
