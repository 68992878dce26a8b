import os
import subprocess
import sys

import numpy as np
import pytest

import dppkit
from dppkit import Symbol

SRC = os.path.dirname(os.path.dirname(dppkit.__file__))


@pytest.fixture
def fresh_python():
    """Runs ``python *flags *args`` in a fresh interpreter, with ``path`` (the
    package's own by default) first on PYTHONPATH and ``env`` over this
    process's environment; returns the finished process, its output as text."""
    def run(*args, flags=(), path=SRC, timeout=300, **env):
        env["PYTHONPATH"] = os.pathsep.join([str(path), os.environ.get("PYTHONPATH", "")])
        return subprocess.run([sys.executable, *flags, *args], capture_output=True, text=True,
                              env=dict(os.environ, **env), timeout=timeout)

    return run


@pytest.fixture
def fair():
    return Symbol.constant(0.5)


@pytest.fixture
def rc_half():
    return Symbol.raised_cosine(0.5, 0.5)


@pytest.fixture
def poi_half():
    return Symbol.poisson(0.5, 0.25)


@pytest.fixture
def poi_high():
    return Symbol.poisson(0.75, 0.125)


def random_interior_symbol(rng: np.random.Generator, max_bandwidth: int = 4) -> Symbol:
    """A random symbol with range inside (0.05, 0.95) (valid for every hypothesis)."""
    kind = rng.integers(0, 3)
    if kind == 0:
        b = rng.uniform(-0.35, 0.35)
        a = rng.uniform(abs(b) + 0.05, 0.95 - abs(b))
        return Symbol.raised_cosine(a, b)
    if kind == 1:
        r = rng.uniform(-0.5, 0.5)
        hi = (1 + abs(r)) / (1 - abs(r))
        c = rng.uniform(0.05, 0.9) / hi
        return Symbol.poisson(c, r)
    bw = int(rng.integers(1, max_bandwidth + 1))
    raw = rng.uniform(-1, 1, bw) + 1j * rng.uniform(-1, 1, bw)
    raw *= rng.uniform(0.02, 0.15) / np.abs(raw).sum()
    spread = 2 * np.abs(raw).sum()
    c0 = rng.uniform(spread + 0.05, 0.95 - spread)
    return Symbol.trig_poly(np.concatenate([[c0], raw]))
