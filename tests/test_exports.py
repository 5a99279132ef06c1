"""Every name a module exports must exist on it."""

import pytest

import liqgames
from liqgames import bvp


@pytest.mark.parametrize("module", [liqgames, bvp], ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
