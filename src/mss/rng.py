"""Seedable deterministic random generator for dealer operations.

SHA-256 in counter mode: the same seed produces the same byte stream on
every platform and Python version, which is what makes seeded deals
reproducible bit for bit.  Without a seed, 32 bytes of OS entropy are used.

Every draw consumes that one stream in order.  A refill hashes all the
counter blocks a request needs at once, and ``randbelow_many`` takes the
bytes of many candidates in one pull, so batched draws return the same
values, and leave the same stream behind, as the single draws they replace.
The bulk conversions run in C: a pull's candidates are read with one
``struct.unpack`` of big-endian 8-byte words, and ``_bits`` turns a value
into 0/1 bytes by ``format`` and ``translate``.  It is the share-bit codec's
one int-to-bits step: bit vectors and ``bulletin``'s share decoder use it.

``Xof`` is a ``Drbg`` whose pool is refilled from the SHAKE-256 output of
a public seed, which is how a seeded public matrix draws its residues.
"""

from __future__ import annotations

import hashlib
import os
import struct
from itertools import repeat
from operator import lshift, or_, rshift

_DOMAIN = b"mss.drbg.v1:"

#: The digits "0" and "1" as the byte values 0 and 1.
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


def _bits(value: int, r: int) -> tuple[int, ...]:
    """The bits of a value below 2**r as r ints 0 or 1, most significant first."""
    return tuple(format(value, f"0{r}b").encode().translate(_BIT_VALUES))


class Drbg:
    """Deterministic random bit generator.

    Not thread-safe: a sampler must own its generator exclusively.
    """

    __slots__ = ("_key", "_counter", "_pool", "_pos")

    def __init__(self, seed: int | str | None = None):
        if seed is None:
            material = os.urandom(32)
        elif isinstance(seed, str):
            material = seed.encode("utf-8")
        elif isinstance(seed, int) and not isinstance(seed, bool):
            if seed < 0:
                raise ValueError("seed must be nonnegative")
            material = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big")
        else:
            raise TypeError(f"unsupported seed type: {type(seed).__name__}")
        key = hashlib.sha256(_DOMAIN + material).digest()
        self._key, self._counter, self._pool, self._pos = key, 0, b"", 0

    def randbytes(self, n: int) -> bytes:
        if n < 0:
            raise ValueError("number of bytes must be nonnegative")
        pool, pos = self._pool, self._pos
        end = pos + n
        if end <= len(pool):
            self._pos = end
            return pool[pos:end]
        self._pos = need = end - len(pool)
        self._pool = fresh = self._squeeze(need)
        return pool[pos:] + fresh[:need]

    def _squeeze(self, need: int) -> bytes:
        """The stream's next ``need`` bytes or more: whole counter blocks."""
        start, key = self._counter, self._key
        self._counter = end = start + -(-need // 32)
        return b"".join(
            hashlib.sha256(key + c.to_bytes(8, "big")).digest() for c in range(start, end)
        )

    def getrandbits(self, k: int) -> int:
        if k <= 0:
            raise ValueError("number of bits must be positive")
        nbytes = (k + 7) // 8
        value = int.from_bytes(self.randbytes(nbytes), "big")
        return value >> (8 * nbytes - k)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection sampling."""
        if n <= 0:
            raise ValueError("bound must be positive")
        k = n.bit_length()
        while True:
            value = self.getrandbits(k)
            if value < n:
                return value

    def randbelow_many(self, n: int, count: int) -> tuple[int, ...]:
        """``count`` uniform integers in [0, n): the values, and the stream
        left behind, of ``count`` calls of ``randbelow(n)``.

        Each pull takes the bytes of as many candidates as values are still
        missing, since every one of them would be consumed by single draws.
        A candidate is right-aligned in whole 8-byte words, read by one
        ``struct.unpack`` and, when wider than a word, joined from them.
        """
        if n <= 0:
            raise ValueError("bound must be positive")
        if count < 0:
            raise ValueError("count must be nonnegative")
        k = n.bit_length()
        nbytes = (k + 7) // 8
        shift = 8 * nbytes - k
        words = -(-nbytes // 8)
        width = 8 * words
        pad = width - nbytes
        out: list[int] = []
        missing = count
        while missing > 0:
            data = self.randbytes(missing * nbytes)
            if pad:
                aligned = bytearray(missing * width)
                for i in range(nbytes):
                    aligned[pad + i :: width] = data[i::nbytes]
                data = aligned
            unpacked = struct.unpack(f">{missing * words}Q", data)
            values = unpacked[::words]
            for i in range(1, words):
                values = tuple(map(or_, map(lshift, values, repeat(64)), unpacked[i::words]))
            values = list(map(rshift, values, repeat(shift)))
            out += values if max(values) < n else filter(n.__gt__, values)
            missing = count - len(out)
        return tuple(out)

    def bit_vector(self, r: int) -> tuple[int, ...]:
        """Uniform binary vector of length r, most significant bit first."""
        return _bits(self.getrandbits(r), r)


class Xof(Drbg):
    """A ``Drbg`` whose pool is refilled from the SHAKE-256 output of a seed.

    A public matrix is published as the seed of this stream: its residues
    are the stream's ``randbelow_many`` draws.  SHAKE has no incremental
    read, so a refill squeezes again, at least twice the ``_counter`` bytes
    squeezed so far, and keeps only the tail; ``_key`` holds the seed.
    """

    __slots__ = ()

    def __init__(self, seed: bytes):
        self._key, self._counter, self._pool, self._pos = seed, 0, b"", 0

    def _squeeze(self, need: int) -> bytes:
        done = self._counter
        self._counter = max(done + need, 2 * done)
        return hashlib.shake_256(self._key).digest(self._counter)[done:]
