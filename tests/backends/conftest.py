"""Fixtures shared by the backend tests."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_backend_thread_outlives_its_test():
    """A runner joins its workers before it returns or raises: a
    ``repro-backend*`` thread still alive after a test is a leak."""
    yield
    alive = [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("repro-backend")
    ]
    assert not alive, f"backend worker threads outlived the test: {alive}"
