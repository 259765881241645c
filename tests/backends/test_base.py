"""Tests for the error taxonomy of the driver protocol."""

from repro.backends.base import ERROR_FINAL_STATE, ErrorKind
from repro.engine.query import QueryState


class TestErrorKind:
    def test_only_transient_is_retryable(self):
        assert ErrorKind.TRANSIENT.retryable
        for kind in (ErrorKind.TIMEOUT, ErrorKind.CONSTRAINT, ErrorKind.FATAL):
            assert not kind.retryable

    def test_every_kind_has_a_final_state(self):
        assert set(ERROR_FINAL_STATE) == set(ErrorKind)

    def test_kills_and_aborts_partition_the_taxonomy(self):
        assert ERROR_FINAL_STATE[ErrorKind.TIMEOUT] is QueryState.KILLED
        assert ERROR_FINAL_STATE[ErrorKind.FATAL] is QueryState.KILLED
        assert ERROR_FINAL_STATE[ErrorKind.TRANSIENT] is QueryState.ABORTED
        assert ERROR_FINAL_STATE[ErrorKind.CONSTRAINT] is QueryState.ABORTED

