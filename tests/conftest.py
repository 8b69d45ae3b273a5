"""Shared fixtures for the test suite."""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.datalog.plans import JoinPlan, execution_mode

#: The executors the mode cross-products run every cell under.  ``"rows"``
#: is the columnar mode with the batch executor declined for every plan, so
#: the runtime's firing loops take the compiled row fallback throughout --
#: the path ``_SHAPE_NEVER`` plans and discarded verify batches take.
EXECUTORS = ("rows", "interpreted", "columnar")


@contextmanager
def use_executor(name):
    """Run the block under one of :data:`EXECUTORS`."""
    if name != "rows":
        with execution_mode(name):
            yield
        return
    with execution_mode("columnar"), mock.patch.object(
        JoinPlan, "head_batch", lambda self, *args, **kwargs: None
    ):
        yield


@pytest.fixture
def executor():
    """The :func:`use_executor` context-manager factory."""
    return use_executor
