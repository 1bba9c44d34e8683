"""Ensures the tests directory itself is importable (helpers, oracles); shared fixtures."""

import pytest

from locclab import protocols


@pytest.fixture
def fresh_protocol_caches():
    """Empties the per-process caches of instrument specs and bundled scripts.

    A test that counts kernel calls or validations parses everything afresh:
    a bundled script cached earlier would hold instruments that equal specs
    parsed later no longer share, so the counts would depend on test order.
    """
    protocols._spec_instrument.cache_clear()
    protocols.load_bundled_script.cache_clear()
