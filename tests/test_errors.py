import inspect
import pickle

import pytest

from negmono import errors

CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if issubclass(cls, Exception) and cls.__module__ == errors.__name__]


def test_every_error_class_is_listed():
    assert errors.StepFailedError in CLASSES and len(CLASSES) == 18


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
