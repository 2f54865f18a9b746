import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def scanned_heights(monkeypatch):
    """The height counts of the grids handed to ``schwarz._run_blocks``, in call order."""
    from chordalqc import schwarz

    seen = []
    run_blocks = schwarz._run_blocks

    def spy(run, xs, ys):
        seen.append(ys.size)
        return run_blocks(run, xs, ys)

    monkeypatch.setattr(schwarz, "_run_blocks", spy)
    return seen
