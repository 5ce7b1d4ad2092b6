import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import fluxrecon

# numerical property tests legitimately take milliseconds per example;
# the default deadline trips on shared CI boxes
settings.register_profile("numeric", deadline=None,
                          suppress_health_check=(HealthCheck.too_slow,))
settings.load_profile("numeric")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def src_env():
    """os.environ with this checkout's src first on PYTHONPATH, for a
    subprocess that must import the package under test."""
    src = str(Path(fluxrecon.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.fixture
def linspace_out_of_memory(monkeypatch):
    """np.linspace raising MemoryError, as numpy does when an array cannot
    be had, for more than 10**6 points: a test of a huge grid asks for no
    memory."""
    linspace = np.linspace

    def failing(start, stop, num, *args, **kwargs):
        if num > 10 ** 6:
            raise MemoryError(f"cannot allocate {num} doubles")
        return linspace(start, stop, num, *args, **kwargs)
    monkeypatch.setattr(np, "linspace", failing)
