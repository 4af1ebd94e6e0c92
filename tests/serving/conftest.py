"""Shared serving-tier fixtures: one tiny compiled session per test
session (32x32, width 0.25 — milliseconds per batch), a canonical valid
image, a saved artifact of the tiny session (for worker-pool scenarios),
and the :func:`eventually` deadline-poll helper the chaos suite uses
instead of fixed sleeps."""

import asyncio
import time

import numpy as np
import pytest

from repro.inference.testing import integer_network_from_spec
from repro.models.model_zoo import mobilenet_v1_spec
from repro.runtime import Session

SPEC = mobilenet_v1_spec(32, 0.25, num_classes=5)


@pytest.fixture(scope="session")
def tiny_session():
    net = integer_network_from_spec(SPEC, np.random.default_rng(3))
    return Session(net, input_hw=(32, 32))


@pytest.fixture(scope="session")
def tiny_artifact(tiny_session, tmp_path_factory):
    """The tiny session saved to disk — what pooled servers mmap."""
    path = tmp_path_factory.mktemp("serving") / "tiny.artifact"
    tiny_session.save(path)
    return path


@pytest.fixture(scope="session")
def image():
    return np.random.default_rng(4).uniform(0.0, 1.0, size=(3, 32, 32))


async def eventually(predicate, timeout: float = 5.0,
                     interval: float = 0.01, desc: str = ""):
    """Poll ``predicate`` until truthy or ``timeout`` elapses.

    The chaos suite's replacement for fixed ``asyncio.sleep`` waits:
    on an unloaded box it returns as soon as the condition holds, and
    on a saturated CI runner it keeps waiting up to the (generous)
    deadline instead of flaking.  Returns the truthy value.
    """
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() >= deadline:
            raise AssertionError(
                f"condition not met within {timeout:.1f}s"
                + (f": {desc}" if desc else "")
            )
        await asyncio.sleep(interval)


@pytest.fixture
def wait_until():
    """Fixture handle on :func:`eventually` for scenario closures."""
    return eventually
