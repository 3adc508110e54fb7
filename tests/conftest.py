import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def chain_builds(monkeypatch):
    """(group, base prefix as a tuple) for every StabilizerChain built while
    the test runs, in build order. It patches the class's ``__init__``, so it
    sees the builds made through every module's name for the class,
    ``autgrp``'s included."""
    from subsym.groups import StabilizerChain

    built = []
    init = StabilizerChain.__init__

    def recording(self, G, base_prefix=()):
        init(self, G, base_prefix)
        built.append((G, tuple(base_prefix)))

    monkeypatch.setattr(StabilizerChain, "__init__", recording)
    return built
