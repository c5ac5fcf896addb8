import pytest

from hypergf import audit


@pytest.fixture
def field():
    """The audit's field cache, shared across the whole test session."""
    return lambda p, r=1: audit.cached_field(p, r)
