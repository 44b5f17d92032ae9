"""negmono.errors holds only the classes whose type the program acts on; bad
input raises a plain ValueError, so a new input check cannot bring back a
class that nothing catches."""

import ast
import inspect
import pickle
from pathlib import Path

import pytest

from negmono import errors

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, Exception) and cls.__module__ == errors.__name__]
SOURCES = sorted(Path(errors.__file__).parent.glob("*.py"))


def _trees():
    return [ast.parse(path.read_text(), str(path)) for path in SOURCES]


def test_every_error_class_is_listed():
    assert sorted(cls.__name__ for cls in CLASSES) == ["NoConvergenceError", "StepFailedError"]


def test_every_error_class_is_raised_and_none_is_a_value_error():
    raised = set()
    for node in (n for tree in _trees() for n in ast.walk(tree)):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            func = node.exc.func
            raised.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", None))
    assert {cls.__name__ for cls in CLASSES} <= raised
    assert not [cls for cls in CLASSES if issubclass(cls, ValueError)]


def test_no_module_subclasses_value_error():
    bases = {(node.name, ast.unparse(base)) for tree in _trees() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) for base in node.bases}
    assert not [name for name, base in bases if base.split(".")[-1] == "ValueError"]


@pytest.mark.parametrize("cls", CLASSES, ids=[cls.__name__ for cls in CLASSES])
def test_errors_survive_pickle(cls):
    # an error raised in a worker process crosses to the parent by pickle
    if cls is errors.StepFailedError:
        instance = {"rows": 1, "cols": 1, "data": [[0.5, -1.0]]}
        exc = cls("step_c_weyl", "lhs=1.0 rhs=0.0", instance)
    else:
        exc = cls("a message")
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is cls
    assert back.args == exc.args
    assert str(back) == str(exc)
    if cls is errors.StepFailedError:
        assert back.step == "step_c_weyl"
        assert back.instance == instance
        assert str(back) == "lhs=1.0 rhs=0.0"  # cli.main names the step
