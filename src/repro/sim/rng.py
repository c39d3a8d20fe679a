"""Deterministic named random-number streams.

Every stochastic element of the simulation (arrival processes, link jitter,
interrupt costs, dataset synthesis, ...) draws from its own named stream so
that adding randomness to one subsystem never perturbs another.  Stream
seeds are derived from a master seed and the stream name with SHA-256, so
the mapping is stable across processes and Python versions.
"""

from __future__ import annotations

import hashlib
import math
import random
from math import cos as _cos, exp as _exp, log as _log, sin as _sin, sqrt as _sqrt, tau
from typing import Dict

import numpy as np


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit child seed from ``master_seed`` and ``name``."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class RngStreams:
    """A factory for per-name deterministic stdlib RNGs."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._py: Dict[str, random.Random] = {}

    def py(self, name: str) -> random.Random:
        """The stdlib :class:`random.Random` stream called ``name``."""
        rng = self._py.get(name)
        if rng is None:
            rng = random.Random(derive_seed(self.master_seed, name))
            self._py[name] = rng
        return rng

    def spawn(self, name: str) -> "RngStreams":
        """A child factory whose streams are independent of this one's."""
        return RngStreams(derive_seed(self.master_seed, f"spawn:{name}"))


def seeded_py(seed: int) -> random.Random:
    """A stdlib RNG from an explicit seed.

    The only sanctioned way to construct a :class:`random.Random` outside
    this module (tests/test_rng_audit.py greps the tree for violations).
    Callers must derive ``seed`` from a named :class:`RngStreams` stream
    (e.g. ``cluster.rng.py("hds:dataset").randrange(2**31)``) so that every
    stochastic component remains attributable and reproducible.
    """
    return random.Random(seed)


def seeded_np(seed: int) -> np.random.Generator:
    """A numpy generator from an explicit seed (see :func:`seeded_py`)."""
    return np.random.default_rng(seed)


def exponential(rng: random.Random, mean: float) -> float:
    """An exponential variate with the given mean (mean=0 gives 0)."""
    if mean <= 0:
        return 0.0
    return -mean * math.log(1.0 - rng.random())


def lognormal_from_median_sigma(rng: random.Random, median: float, sigma: float) -> float:
    """A lognormal variate parameterized by its median and log-space sigma.

    Latency-shaped noise: the bulk sits near ``median`` with a right tail
    controlled by ``sigma``.  Used for interrupt-handler and wakeup-path
    cost models, once per simulated interrupt, so the body of
    ``rng.gauss(0.0, 1.0)`` is inlined: the same Box-Muller pair and the
    same ``gauss_next`` cache, so the draws are bit-equal to
    ``median * math.exp(sigma * rng.gauss(0.0, 1.0))`` (``0.0 + z * 1.0``
    is ``z``, up to the sign of a zero that ``exp`` maps to 1.0 either way).
    """
    if median <= 0:
        return 0.0
    z = rng.gauss_next
    rng.gauss_next = None
    if z is None:
        x2pi = rng.random() * tau
        g2rad = _sqrt(-2.0 * _log(1.0 - rng.random()))
        z = _cos(x2pi) * g2rad
        rng.gauss_next = _sin(x2pi) * g2rad
    return median * _exp(sigma * z)
