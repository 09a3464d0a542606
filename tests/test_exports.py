"""Every ``__all__`` names what its module exports, once.

Walks every ``repro.*`` package and module (``__main__`` is an entry
point and is skipped): each name in ``__all__`` must resolve on the
module, and none may repeat, so deleting a definition cannot leave a
dangling export behind.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _modules() -> list[str]:
    return [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if not info.name.endswith(".__main__")
    ]


@pytest.mark.parametrize("name", _modules())
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = list(getattr(module, "__all__", ()))
    assert len(exported) == len(set(exported)), sorted(
        n for n in set(exported) if exported.count(n) > 1
    )
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing
