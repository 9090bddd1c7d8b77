import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(f) wraps f in every eulerclass module that binds it by
    name and returns the list that each call appends its arguments to."""

    def install(original):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("eulerclass") and getattr(mod, original.__name__, None) is original:
                monkeypatch.setattr(mod, original.__name__, counting)
        return calls

    return install
