"""Every name a module exports through ``__all__`` resolves.

A name that moves between modules can leave a stale entry behind in the
package root or in its old module; ``from fracfield import *`` would then
fail while ordinary imports of other names keep working.
"""

import importlib
import pkgutil

import pytest

import fracfield

MODULES = ["fracfield"] + sorted(
    f"fracfield.{info.name}"
    for info in pkgutil.iter_modules(fracfield.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
