"""Deterministic random-number plumbing.

Every stochastic routine in this package draws from a numpy ``Generator``
backed by the Philox counter-based bit generator.  Philox is a fixed,
platform-independent algorithm, so a (seed, call sequence) pair produces the
same stream on every machine and at every parallelism degree.

Per-trial seeds are derived from a 64-bit master seed and a trial index with
the splitmix64 finalizer (Steele, Lea, Vigna).  The exact derivation is

    derived = mix64(master XOR (GOLDEN_GAMMA * (index + 1) mod 2^64))

where ``mix64`` is the splitmix64 avalanche function.  Nearby indices map to
statistically unrelated seeds, so trials can run in any order or in parallel
without sharing state.
"""

from __future__ import annotations

import os

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

# Fixed tags so that distinct per-trial streams (growth vs. anonymization)
# never collide even though they share one derived trial seed.
STREAM_GROW = 0x67726F77
STREAM_ANON = 0x616E6F6E

ENV_SEED_VAR = "SEEDTRACE_RNG_SEED"


class ConfigError(ValueError):
    """A malformed configuration value: a config file entry, a command-line
    flag or the ``SEEDTRACE_RNG_SEED`` environment variable."""


def mix64(x: int) -> int:
    """splitmix64 finalizer: avalanche-quality 64-bit mixing."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def derive_seed(master_seed: int, index: int, stream_tag: int = 0) -> int:
    """Derive the 64-bit seed for one trial (and optional sub-stream)."""
    x = (master_seed & MASK64) ^ ((GOLDEN_GAMMA * ((index & MASK64) + 1)) & MASK64)
    if stream_tag:
        x = mix64(x) ^ stream_tag
    return mix64(x)


def make_rng(seed: int) -> np.random.Generator:
    """Philox-backed generator for a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & MASK64))


def resolve_master_seed(explicit: int | None, default: int = 0) -> int:
    """Pick the master seed: explicit flag, else SEEDTRACE_RNG_SEED, else default."""
    if explicit is not None:
        return int(explicit)
    env = os.environ.get(ENV_SEED_VAR)
    if env is not None:
        try:
            return int(env, 0)
        except ValueError:
            raise ConfigError(f"{ENV_SEED_VAR} must be an integer, got {env!r}") from None
    return default
