"""Small shared helpers: bit packing, deterministic RNG, an LRU store,
text tables.

The bitstream code paths operate on numpy ``uint32`` arrays (one row per
configuration frame); the helpers here centralise the bit-numbering
convention so it is defined in exactly one place:

* Within a frame, bit ``b`` lives in word ``b // 32`` at bit position
  ``31 - (b % 32)`` — most-significant bit first, matching the order in
  which a Virtex-class device shifts configuration data in.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Hashable, Iterable, Sequence

import numpy as np

WORD_BITS = 32


def words_for_bits(nbits: int) -> int:
    """Number of 32-bit words needed to hold ``nbits`` bits."""
    return (nbits + WORD_BITS - 1) // WORD_BITS


def get_bit(words: np.ndarray, bit: int) -> int:
    """Read bit ``bit`` (MSB-first order) from a uint32 word array."""
    w, p = divmod(bit, WORD_BITS)
    return int((int(words[w]) >> (31 - p)) & 1)


def set_bit(words: np.ndarray, bit: int, value: int) -> None:
    """Write bit ``bit`` (MSB-first order) in a uint32 word array in place."""
    w, p = divmod(bit, WORD_BITS)
    mask = np.uint32(1 << (31 - p))
    if value:
        words[w] |= mask
    else:
        words[w] &= ~mask


def pack_bits(bits: Sequence[int]) -> np.ndarray:
    """Pack a bit sequence (MSB-first) into a uint32 array."""
    out = np.zeros(words_for_bits(len(bits)), dtype=np.uint32)
    for i, b in enumerate(bits):
        if b:
            set_bit(out, i, 1)
    return out


def unpack_bits(words: np.ndarray, nbits: int) -> list[int]:
    """Unpack the first ``nbits`` bits (MSB-first) of a uint32 array."""
    return [get_bit(words, i) for i in range(nbits)]


def words_to_bytes(words: np.ndarray) -> bytes:
    """Serialize uint32 words big-endian (network order, as on SelectMAP)."""
    return np.asarray(words, dtype=">u4").tobytes()


def bytes_to_words(data: bytes) -> np.ndarray:
    """Inverse of :func:`words_to_bytes`."""
    if len(data) % 4:
        raise ValueError(f"byte stream length {len(data)} is not word aligned")
    return np.frombuffer(data, dtype=">u4").astype(np.uint32)


def make_rng(seed: int | None) -> np.random.Generator:
    """Deterministic RNG factory used by the router/workload generators."""
    return np.random.default_rng(0xC0FFEE if seed is None else seed)


class RngStream:
    """The draws of ``make_rng(seed)``, bit for bit, at python-int cost.

    A scalar ``Generator.integers`` call costs microseconds of argument
    handling; a hot loop drawing millions of small integers spends more
    time there than on its own work.  This stream pulls raw PCG64 words
    from the same seeded bit generator in blocks (``random_raw``) and
    reproduces numpy's arithmetic on them:

    * a 32-bit draw takes the low half of a fresh word and buffers the
      high half for the next 32-bit draw (PCG64's ``next_uint32``);
    * ``integers`` uses Lemire's bounded method with numpy's rejection
      threshold ``(2**32 - 1 - rng) % (rng + 1)``, and draws nothing when
      the range holds a single value;
    * ``random()`` is ``(word >> 11) * 2**-53``.

    Ranges wider than ``2**32`` (where numpy switches to 64-bit words)
    are rejected.  Prefetching is invisible only to a caller that owns
    the stream: the bit generator runs ahead of the draws made so far.
    """

    __slots__ = ("_bitgen", "_words", "_pos", "_half")

    _BLOCK = 512

    def __init__(self, seed: int | None):
        self._bitgen = make_rng(seed).bit_generator
        self._words: list[int] = []
        self._pos = 0
        self._half: int | None = None   # buffered high half of a word

    def _next64(self) -> int:
        pos = self._pos
        if pos == len(self._words):
            self._words = self._bitgen.random_raw(self._BLOCK).tolist()
            pos = 0
        self._pos = pos + 1
        return self._words[pos]

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & 0xFFFFFFFF

    def integers(self, low: int, high: int | None = None) -> int:
        """``Generator.integers(low, high)``: uniform in ``[low, high)``,
        or ``[0, low)`` when ``high`` is omitted."""
        if high is None:
            low, high = 0, low
        rng = high - low - 1
        if rng == 0:
            return low
        if not 0 < rng <= 0xFFFFFFFF:
            raise ValueError(f"range [{low}, {high}) is empty or wider than 2**32")
        if rng == 0xFFFFFFFF:
            return low + self._next32()
        excl = rng + 1
        # _next32() inlined: this is the placer's hot path
        half = self._half
        if half is None:
            word = self._next64()
            self._half = word >> 32
            m = (word & 0xFFFFFFFF) * excl
        else:
            self._half = None
            m = half * excl
        if m & 0xFFFFFFFF < excl:
            threshold = (0xFFFFFFFF - rng) % excl
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * excl
        return low + (m >> 32)

    def random(self) -> float:
        """``Generator.random()``: a double in ``[0, 1)``."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)


class LruStore:
    """A thread-safe map capped at ``cap`` entries, least recently used
    out first.

    ``get`` returns ``None`` for an absent key, so values must not be
    ``None``.  ``hits``, ``misses`` and ``evictions`` count ``get`` and
    ``put`` outcomes since construction or the last :meth:`clear`.
    """

    def __init__(self, cap: int):
        if cap < 1:
            raise ValueError(f"LRU cap must be at least 1, got {cap}")
        self.cap = cap
        self._entries: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = self.misses = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable):
        """The value stored under ``key`` (now the most recently used),
        or ``None``."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
            return value

    def put(self, key: Hashable, value: object) -> None:
        """Store ``value`` as the most recently used entry, evicting past
        the cap."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.cap:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and zero the counts."""
        with self._lock:
            self._entries.clear()
            self.hits = self.misses = self.evictions = 0


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an ASCII table (used by benchmark harnesses and the CLI)."""
    # cells must stay single-line for the row count to hold
    srows = [[" ".join(str(c).split("\n")) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in srows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in srows)
    return "\n".join(lines)


def si_bytes(n: int | float) -> str:
    """Human-readable byte count (e.g. ``70.3 KB``)."""
    n = float(n)
    for unit in ("B", "KB", "MB", "GB"):
        if n < 1024.0 or unit == "GB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    raise AssertionError("unreachable")
