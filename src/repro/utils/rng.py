"""Deterministic randomness management.

Every randomized algorithm in this library takes an explicit ``seed`` (or an
already-constructed :class:`random.Random`) so that runs are reproducible.
Independent subsystems derive *child* generators from a parent via
:func:`child_rng`, which mixes a string label into the seed; this guarantees
that adding randomness consumption to one subsystem never perturbs another.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterator, Optional, Sequence, Union

import numpy as np

try:  # the C core class: same seeding/stream, no gauss bookkeeping
    import _random

    _CoreRandom = _random.Random
except ImportError:  # pragma: no cover - exotic builds
    _CoreRandom = random.Random  # type: ignore[assignment]

SeedLike = Union[int, random.Random, None]

_DEFAULT_SEED = 0x5EED


def make_rng(seed: SeedLike = None) -> random.Random:
    """Return a :class:`random.Random` for ``seed``.

    ``seed`` may be an int, an existing generator (returned unchanged), or
    ``None`` (a fixed default seed — the library is deterministic unless the
    caller opts out by passing their own entropy).
    """
    if isinstance(seed, random.Random):
        return seed
    if seed is None:
        seed = _DEFAULT_SEED
    return random.Random(seed)


def child_rng(parent: random.Random, label: str) -> random.Random:
    """Derive an independent generator from ``parent`` keyed by ``label``.

    The derivation hashes a draw from the parent together with the label, so
    distinct labels yield statistically independent streams and the same
    (parent state, label) pair always yields the same child.
    """
    base = parent.getrandbits(64)
    digest = hashlib.sha256(f"{base}:{label}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


class RngStream:
    """A labelled family of generators for multi-round algorithms.

    Algorithms that need "fresh, independent randomness per (entity, round)"
    — e.g. the per-vertex, per-iteration thresholds ``T_{v,t}`` of
    Central-Rand — draw them through an :class:`RngStream` so the value is a
    pure function of ``(seed, entity, round)``.  This is what lets the MPC
    simulation and the centralized reference algorithm consume *the same*
    thresholds, as the paper's coupling argument (Section 4.4.3) requires.
    """

    def __init__(self, seed: SeedLike = None, namespace: str = "") -> None:
        self._seed_material = make_rng(seed).getrandbits(64)
        self._namespace = namespace

    def rng_for(self, *key: object) -> random.Random:
        """Return the generator associated with ``key`` (deterministic)."""
        material = f"{self._namespace}|{self._seed_material}|" + "|".join(
            repr(part) for part in key
        )
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return random.Random(int.from_bytes(digest[:8], "big"))

    def uniform(self, lo: float, hi: float, *key: object) -> float:
        """A uniform draw in ``[lo, hi]`` determined by ``key``."""
        return self.rng_for(*key).uniform(lo, hi)

    def random(self, *key: object) -> float:
        """A uniform draw in ``[0, 1)`` determined by ``key``."""
        return self.rng_for(*key).random()

    def iter_uniform(self, lo: float, hi: float, *key: object) -> Iterator[float]:
        """An infinite stream of uniform draws determined by ``key``."""
        rng = self.rng_for(*key)
        while True:
            yield rng.uniform(lo, hi)

    # -- batched draws ------------------------------------------------------
    #
    # The per-(entity, round) draws of the vectorized hot paths (Pregel
    # superstep kernels, the Central-Rand threshold band) arrive thousands
    # at a time.  The scalar path pays per call for namespace formatting,
    # a hashlib object, and a freshly *constructed* ``random.Random``; the
    # batch path assembles the whole batch's key material in one pass and
    # drains it through a single fused hash→reseed→draw loop over one
    # reused C-core generator.  The values are bit-for-bit identical to
    # the scalar methods — each draw is still SHA-256(material) feeding a
    # Mersenne-Twister seed — so callers can batch freely without
    # perturbing seeded outputs.

    def _material_parts(self, entities: Sequence[int], key: Sequence[object]):
        """Per-entity key material, encoded; ``entities`` vary, ``key`` is fixed."""
        prefix = f"{self._namespace}|{self._seed_material}|"
        suffix = "".join(f"|{part!r}" for part in key)
        # ``tolist`` normalizes NumPy integers to Python ints so the
        # material matches ``repr`` in the scalar path exactly.
        ents = np.asarray(entities, dtype=np.int64).tolist()
        return [f"{prefix}{e}{suffix}".encode("utf-8") for e in ents]

    def random_batch(self, entities: Sequence[int], *key: object) -> np.ndarray:
        """``[self.random(e, *key) for e in entities]``, batched."""
        parts = self._material_parts(entities, key)
        out = np.empty(len(parts), dtype=np.float64)
        core = _CoreRandom()
        reseed = core.seed
        draw = core.random
        sha = hashlib.sha256
        from_bytes = int.from_bytes
        for i, part in enumerate(parts):
            reseed(from_bytes(sha(part).digest()[:8], "big"))
            out[i] = draw()
        return out

    def uniform_batch(
        self, lo: float, hi: float, entities: Sequence[int], *key: object
    ) -> np.ndarray:
        """``[self.uniform(lo, hi, e, *key) for e in entities]``, batched.

        The affine transform below is ``random.Random.uniform``'s own
        ``a + (b - a) * random()``, applied elementwise — NumPy float64
        rounds identically to CPython floats, so this stays bit-for-bit
        equal to the scalar method.
        """
        out = self.random_batch(entities, *key)
        out *= hi - lo
        out += lo
        return out


# -- exact-stream bulk draws ---------------------------------------------------
#
# CPython's ``randrange(k)`` is rejection sampling over ``getrandbits(b)``
# with ``b = k.bit_length()``, and ``getrandbits(b)`` for ``b <= 32`` is one
# 32-bit Mersenne-Twister word shifted right by ``32 - b``; wider requests
# take whole words, least significant first, and shift only the last one.
# ``random()`` takes two words ``a, b`` and returns
# ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``.  ``getrandbits(32 * w)``
# returns the next ``w`` words unshifted, in generation order from the
# least significant end, so both draws can be replayed from one bulk
# request and NumPy arithmetic.  The helpers below return exactly the
# values of the scalar calls and leave the generator in exactly the same
# state.


def _next_words(rng: random.Random, count: int) -> np.ndarray:
    """The next ``count`` 32-bit words of ``rng``'s stream, as ``uint64``."""
    raw = rng.getrandbits(32 * count).to_bytes(4 * count, "little")
    return np.frombuffer(raw, dtype="<u4").astype(np.uint64)


def draw_randrange(rng: random.Random, k: int, count: int) -> np.ndarray:
    """``[rng.randrange(k) for _ in range(count)]`` as an ``int64`` array.

    Each round draws exactly the number of values still missing; a
    rejected value is one the scalar loop would also have drawn and
    discarded before its next accepted value, so the stream is never
    over-consumed.  Supports ``1 <= k <= 2**32``.
    """
    if not 1 <= k <= 2**32:
        raise ValueError(f"k must lie in [1, 2**32], got {k}")
    bits = k.bit_length()
    out = np.empty(count, dtype=np.int64)
    filled = 0
    while filled < count:
        need = count - filled
        if bits <= 32:
            values = _next_words(rng, need) >> np.uint64(32 - bits)
        else:  # k == 2**32: two words per value, the high one shifted
            words = _next_words(rng, 2 * need)
            values = words[0::2] | (
                (words[1::2] >> np.uint64(64 - bits)) << np.uint64(32)
            )
        accepted = values[values < np.uint64(k)]
        out[filled : filled + accepted.size] = accepted
        filled += accepted.size
    return out


def draw_random(rng: random.Random, count: int) -> np.ndarray:
    """``[rng.random() for _ in range(count)]`` as a ``float64`` array."""
    if count == 0:
        return np.empty(0, dtype=np.float64)
    words = _next_words(rng, 2 * count)
    high = (words[0::2] >> np.uint64(5)).astype(np.float64)
    low = (words[1::2] >> np.uint64(6)).astype(np.float64)
    return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


def random_permutation(n: int, seed: SeedLike = None) -> list:
    """A uniformly random permutation of ``range(n)``."""
    rng = make_rng(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    return perm
