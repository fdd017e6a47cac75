"""The traced benchmark's target list still names lpmech functions.

``perfbench/tracing.py`` rebinds each ``(module, attribute)`` pair of its
``TARGETS`` from outside the package, so without this check a rename under
``src/`` would break ``perfbench/run.py --trace 1`` with no test failing.
"""

import importlib
import importlib.util
import pathlib

import pytest

_TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(target[0], target[1]) for target in module.TARGETS]


@pytest.mark.parametrize("module, attr", _targets())
def test_trace_target_resolves_to_a_callable(module, attr):
    owner = importlib.import_module(f"lpmech.{module}")
    if "." in attr:
        # methods are wrapped where the class itself defines them
        cls_name, meth = attr.split(".")
        fn = vars(getattr(owner, cls_name)).get(meth)
    else:
        fn = getattr(owner, attr, None)
    assert callable(fn)
