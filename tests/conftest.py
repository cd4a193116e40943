from __future__ import annotations

import pytest

from alcove import affine_weyl, herzig, oracle, presentation_scan, root_data, weights_dl
from alcove.root_data import RootDatum


@pytest.fixture(scope="session")
def d2():
    return RootDatum(2, 1, 7)


@pytest.fixture(scope="session")
def d2_13():
    return RootDatum(2, 1, 13)


@pytest.fixture(scope="session")
def d3():
    return RootDatum(3, 1, 37)


@pytest.fixture(scope="session")
def d22():
    return RootDatum(2, 2, 7)


@pytest.fixture
def clear_caches():
    """A function that empties every memo of the package, so that the next
    call computes from cold."""

    def clear() -> None:
        for module in (
            affine_weyl, herzig, oracle, presentation_scan, root_data, weights_dl
        ):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    return clear
