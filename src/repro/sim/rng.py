"""Seeded random-number management.

Every stochastic component (packet-spraying switches, latency samplers,
workload generators) draws from its own named ``random.Random`` stream,
derived deterministically from the run's master seed.  This keeps runs
reproducible *and* makes streams independent: adding a new random consumer
does not perturb the draws seen by existing ones.
"""

from __future__ import annotations

import random
import zlib

#: The one sanctioned RNG type.  Annotate with this (and construct via
#: :func:`derive_stream` / :meth:`RngRegistry.stream`) instead of importing
#: :mod:`random` directly — ``python -m repro lint`` flags raw imports.
SimRandom = random.Random

_SEED_MASK = 0xFFFFFFFFFFFFFFFF


def _derive_seed(seed: int, name: str) -> int:
    """Mix a master seed with a CRC of the stream name (64-bit)."""
    return (seed * 0x9E3779B1 + zlib.crc32(name.encode())) & _SEED_MASK


def derive_stream(seed: int, name: str) -> SimRandom:
    """A one-off named substream, without going through a registry.

    Uses the same (seed, name) -> seed derivation as
    :meth:`RngRegistry.stream`, so ``derive_stream(s, n)`` and
    ``RngRegistry(s).stream(n)`` produce identical draw sequences.  Intended
    for components that take a plain integer seed (workload generators,
    measurement harnesses) rather than a :class:`~repro.sim.simulator.Simulator`.
    """
    return random.Random(_derive_seed(seed, name))


class RngRegistry:
    """Hands out independent, deterministically-seeded RNG streams."""

    __slots__ = ("_seed", "_streams")

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        self._streams: dict[str, random.Random] = {}

    @property
    def seed(self) -> int:
        """The master seed the registry was created with."""
        return self._seed

    def stream(self, name: str) -> random.Random:
        """Return the RNG stream for ``name``, creating it on first use.

        The stream's seed mixes the master seed with a CRC of the name, so
        the same (seed, name) pair always yields the same sequence.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(_derive_seed(self._seed, name))
            self._streams[name] = rng
        return rng

    def __len__(self) -> int:
        """How many named streams have been seeded so far."""
        return len(self._streams)

    def fork(self, salt: int) -> "RngRegistry":
        """A registry whose streams are independent of this one (e.g. per rep)."""
        return RngRegistry((self._seed * 1_000_003 + salt) & 0xFFFFFFFFFFFFFFFF)
