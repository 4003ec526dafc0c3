"""Deterministic, portable randomness.

Every random decision in this package flows from a single 64-bit seed
through SplitMix64 (Steele, Lea & Flood's mixer).  The generator is
counter-based and splittable: ``derive_seed(seed, *keys)`` produces
independent child seeds from integer key paths, so parallel trials and
re-runs are reproducible bit-for-bit, independent of Python's ``random``
module and of scheduling.

Scheme version 1.  Test vectors (seed 0):
    0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
``randrange(n)`` maps one 64-bit draw to [0, n) via the multiply-shift
``(u * n) >> 64``.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

SCHEME_VERSION = 1


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a bijective 64-bit mixer."""
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return (x ^ (x >> 31)) & MASK64


def derive_seed(seed: int, *keys: int) -> int:
    """Fold integer keys into a seed, one mixing round per key."""
    s = seed & MASK64
    for k in keys:
        s = mix64((s + GOLDEN) ^ mix64(k & MASK64))
    return s


class SplitMix64:
    """The SplitMix64 sequence generator."""

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)


class Stream(SplitMix64):
    """SplitMix64 plus the sampling helpers the generators need."""

    def randrange(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return (self.next_u64() * n) >> 64

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], both ends inclusive."""
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randrange(len(seq))]

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def sample(self, seq, k: int) -> list:
        pool = list(seq)
        self.shuffle(pool)
        return pool[:k]

    def chance(self, num: int, den: int) -> bool:
        """True with probability num/den."""
        return self.randrange(den) < num
