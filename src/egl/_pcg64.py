"""numpy's ``default_rng`` stream in pure Python, for the draws ``statics``
makes, so that egl runs without numpy.

``Generator(seed)`` draws, bit for bit, what ``numpy.random.default_rng(
seed)`` draws for ``uniform(low, high)`` and for ``integers(low, high)``
over at most 2**32 values: numpy's ``SeedSequence`` hashes the seed's
32-bit words into PCG64's 128-bit state and increment; each 64-bit draw
steps the LCG and applies the XSL-RR output; a uniform double scales the
draw's top 53 bits; and an integer is Lemire's multiply-and-reject on
32-bit halves, where the high half of a 64-bit draw is kept for the next
half, as numpy keeps it, and a range of one value draws nothing.
"""

from __future__ import annotations

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's pool size and hash constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _entropy_words(seed) -> list[int]:
    """A non-negative integer, or a sequence of them, as SeedSequence's
    32-bit entropy words, least significant word of each integer first."""
    if not isinstance(seed, int):
        return [word for part in seed for word in _entropy_words(part)]
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    return words


def _pool(entropy: list[int]) -> list[int]:
    """SeedSequence's entropy pool: each word hashed in, then every pool
    word mixed into every other, then any words past the pool's size."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _MASK32
        return result ^ result >> 16

    padded = entropy + [0] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _seed_state(pool: list[int]) -> int:
    """``SeedSequence.generate_state(4, uint64)`` as one 256-bit integer,
    its first 64-bit word the most significant."""
    hash_const = _INIT_B
    state = 0
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        value ^= value >> 16
        if i % 2:           # the high half of the 64-bit word
            state = state << 64 | low | value << 32
        else:
            low = value
    return state


class Generator:
    """The stream of ``numpy.random.default_rng(seed)`` (PCG64); ``seed``
    is a non-negative integer or a sequence of them."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed) -> None:
        words = _seed_state(_pool(_entropy_words(seed)))
        self._inc = (words << 1 | 1) & _MASK128
        self._state = (self._inc + (words >> 128)) & _MASK128
        self._next64()
        self._half = None       # the high half of a draw not yet used

    def _next64(self) -> int:
        self._state = (self._state * _PCG_MULTIPLIER + self._inc) & _MASK128
        rot = self._state >> 122
        x = (self._state >> 64 ^ self._state) & _MASK64
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._half is not None:
            half, self._half = self._half, None
            return half
        draw = self._next64()
        self._half = draw >> 32
        return draw & _MASK32

    def uniform(self, low: float, high: float) -> float:
        low, high = float(low), float(high)
        return low + (high - low) * ((self._next64() >> 11) * 2.0 ** -53)

    def integers(self, low: int, high: int) -> int:
        """An integer in ``[low, high)``, a range of 1 to 2**32 values."""
        span = high - low
        if not 0 < span <= 1 << 32:
            raise ValueError(f"integers range {span} is not in [1, 2**32]")
        if span == 1:
            return low
        threshold = (1 << 32) % span
        while True:
            scaled = self._next32() * span
            if scaled & _MASK32 >= threshold:
                return low + (scaled >> 32)
