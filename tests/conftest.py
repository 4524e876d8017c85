"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.explore.uxs import UXSProvider


@pytest.fixture(scope="session")
def provider() -> UXSProvider:
    """One shared sequence provider (sequences are cached per size)."""
    return UXSProvider()


def pytest_configure(config) -> None:
    config.addinivalue_line(
        "markers", "slow: a test that takes seconds rather than milliseconds"
    )
