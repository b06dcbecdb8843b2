"""The benchmark's trace hooks name code that exists in the package.

``bench/spans.py`` wraps the methods in ``METHODS`` and records extra
information for the functions named in ``INFO`` and ``BEFORE``.  A name
that no longer resolves crashes ``bench/run.py --trace 1`` at install, or
silently records nothing; these tests catch both when a refactor renames
or removes the code behind a hook.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402


def resolve(dotted: str):
    """``module.name`` or ``module.Class.method`` inside ``cavityblockade``."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"cavityblockade.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


@pytest.mark.parametrize("module, cls, method", spans.METHODS)
def test_wrapped_methods_exist(module, cls, method):
    assert module in spans.MODULES
    assert inspect.isfunction(resolve(f"{module}.{cls}.{method}"))


@pytest.mark.parametrize("name", sorted({*spans.INFO, *spans.BEFORE}))
def test_hooked_names_are_wrapped(name):
    # Tracer.install wraps the public functions defined in each traced
    # module and the listed methods; a hook on anything else never runs.
    obj = resolve(name)
    module, *attrs = name.split(".")
    assert module in spans.MODULES
    if len(attrs) == 2:
        assert (module, *attrs) in spans.METHODS
    else:
        assert inspect.isfunction(obj)
        assert not attrs[0].startswith("_")
        assert obj.__module__ == f"cavityblockade.{module}"
