"""Direct tests of the shared helpers."""

import numpy as np
import pytest

from repro import utils


class TestBitHelpers:
    def test_words_for_bits(self):
        assert utils.words_for_bits(0) == 0
        assert utils.words_for_bits(1) == 1
        assert utils.words_for_bits(32) == 1
        assert utils.words_for_bits(33) == 2

    def test_msb_first_convention(self):
        words = np.zeros(1, dtype=np.uint32)
        utils.set_bit(words, 0, 1)
        assert words[0] == 0x80000000
        utils.set_bit(words, 31, 1)
        assert words[0] == 0x80000001

    def test_clear_bit(self):
        words = np.full(1, 0xFFFFFFFF, dtype=np.uint32)
        utils.set_bit(words, 5, 0)
        assert utils.get_bit(words, 5) == 0
        assert utils.get_bit(words, 4) == 1

    def test_pack_unpack(self):
        bits = [1, 0, 1, 1, 0, 0, 0, 1]
        words = utils.pack_bits(bits)
        assert utils.unpack_bits(words, 8) == bits

    def test_words_bytes_big_endian(self):
        words = np.asarray([0x01020304], dtype=np.uint32)
        assert utils.words_to_bytes(words) == b"\x01\x02\x03\x04"
        back = utils.bytes_to_words(b"\x01\x02\x03\x04")
        assert back[0] == 0x01020304


class TestRng:
    def test_deterministic_default(self):
        a = utils.make_rng(None)
        b = utils.make_rng(None)
        assert a.integers(1 << 30) == b.integers(1 << 30)

    def test_seeded(self):
        assert utils.make_rng(5).integers(1 << 30) == utils.make_rng(5).integers(1 << 30)
        assert utils.make_rng(5).integers(1 << 30) != utils.make_rng(6).integers(1 << 30)


class TestRngStream:
    """``RngStream(seed)`` must replay ``np.random.default_rng(seed)``
    draw for draw: the placer's results depend on it."""

    # n=1 draws nothing; 2**31 +- 1 sit at the int32 edge; 3e9 ranges
    # reject about 30% of words; 2**32 takes a raw 32-bit value
    BOUNDS = (1, 2, 3, 7, 18, 100, 1000, 2**31 - 1, 2**31, 2**31 + 1,
              3_000_000_000, 3_100_000_007, 2**32 - 1, 2**32)

    def _compare(self, seed, draws, pick, offset=0):
        import random

        gen, stream = np.random.default_rng(seed), utils.RngStream(seed)
        for _ in range(offset):
            assert stream.random() == gen.random()
        choose = random.Random(pick)
        for k in range(draws):
            op = choose.randrange(4)
            if op == 0:
                n = choose.choice(self.BOUNDS)
                a, b = gen.integers(n), stream.integers(n)
            elif op == 1:
                lo = choose.randrange(-10**6, 10**6)
                hi = lo + choose.choice(self.BOUNDS)
                a, b = gen.integers(lo, hi), stream.integers(lo, hi)
            else:
                a, b = gen.random(), stream.random()
            assert a == b, (seed, k, op)
            assert type(b) is (float if op > 1 else int)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_generator(self, seed):
        # 20 seeds x 50k interleaved calls = 1M draws compared
        self._compare(seed, 50_000, pick=seed)

    def test_block_boundaries(self):
        # start the interleaved draws at every offset around the first
        # and second refill, so buffered halves and rejection loops
        # straddle a block edge
        block = utils.RngStream._BLOCK
        for offset in [*range(block - 4, block + 2), *range(2 * block - 3, 2 * block + 1)]:
            self._compare(offset, 64, pick=offset, offset=offset)

    def test_pending_half_survives_refill(self):
        gen, stream = np.random.default_rng(3), utils.RngStream(3)
        block = utils.RngStream._BLOCK
        for _ in range(block - 1):
            assert stream.random() == gen.random()
        # low half of the block's last word, then the buffered high
        # half after the refill has already been requested by random()
        assert stream.integers(1000) == gen.integers(1000)
        assert stream.random() == gen.random()
        assert stream.integers(1000) == gen.integers(1000)

    def test_single_value_range_draws_nothing(self):
        stream = utils.RngStream(4)
        assert stream.integers(1) == 0
        assert stream.integers(-5, -4) == -5
        assert stream.random() == np.random.default_rng(4).random()

    def test_default_seed_matches_make_rng(self):
        assert utils.RngStream(None).integers(1 << 30) == utils.make_rng(None).integers(1 << 30)

    @pytest.mark.parametrize("args", [(0,), (-3,), (5, 5), (5, 2), (2**32 + 1,), (-1, 2**32)])
    def test_empty_or_wide_range_rejected(self, args):
        with pytest.raises(ValueError, match="empty or wider than 2"):
            utils.RngStream(0).integers(*args)


class TestLruStore:
    def test_get_put_and_counts(self):
        store = utils.LruStore(2)
        assert store.get("a") is None
        store.put("a", 1)
        assert store.get("a") == 1
        assert (store.hits, store.misses, store.evictions, len(store)) == (1, 1, 0, 1)

    def test_least_recently_used_goes_first(self):
        store = utils.LruStore(2)
        store.put("a", 1)
        store.put("b", 2)
        store.get("a")            # "b" is now the oldest
        store.put("c", 3)
        assert store.get("b") is None
        assert (store.get("a"), store.get("c")) == (1, 3)
        assert store.evictions == 1

    def test_put_refreshes_an_existing_key(self):
        store = utils.LruStore(2)
        store.put("a", 1)
        store.put("b", 2)
        store.put("a", 10)
        store.put("c", 3)
        assert store.get("a") == 10 and store.get("b") is None

    def test_clear_drops_entries_and_counts(self):
        store = utils.LruStore(1)
        store.put("a", 1)
        store.put("b", 2)
        store.get("b")
        store.clear()
        assert len(store) == 0 and store.get("b") is None
        assert (store.hits, store.misses, store.evictions) == (0, 1, 0)

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            utils.LruStore(0)


class TestFormatting:
    def test_table_alignment(self):
        out = utils.format_table(["a", "long_header"], [["xx", 1], ["y", 22]])
        lines = out.split("\n")
        assert lines[0].startswith("a ")
        assert all(len(line) <= len(lines[1]) + 2 for line in lines)

    def test_table_empty(self):
        out = utils.format_table(["h"], [])
        assert out.split("\n") == ["h", "-"]

    def test_si_bytes_units(self):
        assert utils.si_bytes(0) == "0 B"
        assert utils.si_bytes(1023) == "1023 B"
        assert utils.si_bytes(1024) == "1.0 KB"
        assert utils.si_bytes(1536) == "1.5 KB"
        assert utils.si_bytes(1024 ** 2) == "1.0 MB"
