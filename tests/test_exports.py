"""Every name a ``repro`` module lists in ``__all__`` must resolve.

A stale ``__all__`` entry fails only on ``from module import *``, which
no other test runs, so this walks every module of the package.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = sorted(
    ["repro"] + [info.name for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro.")])


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []
