"""Cross-module property-based tests (hypothesis) on core invariants."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import utils
from repro.bitstream.assembler import partial_stream
from repro.bitstream.frames import FrameDelta, FrameMemory
from repro.bitstream.reader import apply_bitstream
from repro.devices import get_device
from repro.devices.resources import SLICE
from repro.jbits import JBits


class TestBitPackingProperties:
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=200))
    def test_pack_unpack_roundtrip(self, bits):
        words = utils.pack_bits(bits)
        assert utils.unpack_bits(words, len(bits)) == bits

    @given(st.binary(min_size=0, max_size=256).filter(lambda b: len(b) % 4 == 0))
    def test_bytes_words_roundtrip(self, data):
        assert utils.words_to_bytes(utils.bytes_to_words(data)) == data

    @given(st.integers(0, 1023))
    def test_set_then_get_bit(self, bit):
        words = np.zeros(32, dtype=np.uint32)
        utils.set_bit(words, bit, 1)
        assert utils.get_bit(words, bit) == 1
        utils.set_bit(words, bit, 0)
        assert not words.any()


class TestJBitsProperties:
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 15),       # row
                st.integers(0, 23),       # col
                st.integers(0, 1),        # slice
                st.booleans(),            # F or G
                st.integers(0, 0xFFFF),   # init
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_partial_of_edits_equals_direct_edits(self, edits):
        """For any edit sequence: base + write_partial() == edited frames."""
        base = FrameMemory(get_device("XCV50"))
        jb = JBits("XCV50")
        jb.read(base)
        for r, c, s, is_f, init in edits:
            jb.set(r, c, SLICE[s].F if is_f else SLICE[s].G, init)
        if not jb.dirty_frames:
            return
        partial = jb.write_partial(checkpoint=False)
        replay = base.clone()
        apply_bitstream(replay, partial)
        assert replay == jb.frames

    @settings(max_examples=20, deadline=None)
    @given(st.sets(st.integers(0, 1449), min_size=1, max_size=40))
    def test_partial_touches_exactly_selected_frames(self, frames):
        fm = FrameMemory(get_device("XCV50"))
        fm.data[:, 0] = np.uint32(0xA5A5A5A5) & fm._payload_mask[0]
        blank = FrameMemory(get_device("XCV50"))
        apply_bitstream(blank, partial_stream(fm, frames))
        changed = set(blank.diff_frames(FrameMemory(get_device("XCV50"))))
        assert changed <= set(frames)


class TestTableFormat:
    @given(
        st.lists(
            st.tuples(st.text(min_size=0, max_size=8), st.integers()),
            min_size=0,
            max_size=6,
        )
    )
    def test_format_table_never_crashes(self, rows):
        out = utils.format_table(["name", "value"], rows)
        lines = out.split("\n")  # cells may contain exotic control chars
        assert len(lines) == 2 + len(rows)

    def test_si_bytes(self):
        assert utils.si_bytes(512) == "512 B"
        assert utils.si_bytes(2048) == "2.0 KB"
        assert utils.si_bytes(3 * 1024 * 1024) == "3.0 MB"
        assert "GB" in utils.si_bytes(5 * 1024 ** 3)


class TestServePersistenceProperties:
    """Round-trip properties of the serve layer's content-addressed state."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**31 - 1),
        dirty=st.sets(st.integers(0, 1449), max_size=30),
        corner=st.tuples(st.integers(0, 10), st.integers(0, 10)),
    )
    def test_disk_cleared_state_roundtrip(self, tmp_path_factory, seed, dirty, corner):
        from repro.flow.floorplan import RegionRect
        from repro.serve import DiskCache

        fm = FrameMemory(get_device("XCV50"))
        rng = np.random.default_rng(seed)
        fm.data[:] = rng.integers(
            0, 2**32, size=fm.data.shape, dtype=np.uint64
        ).astype(np.uint32) & fm._payload_mask[None, :]
        region = RegionRect(corner[0], corner[1], corner[0] + 2, corner[1] + 2)
        disk = DiskCache(str(tmp_path_factory.mktemp("dc")))
        delta = FrameDelta.capture(fm, dirty)
        disk.store_cleared("k" * 64, region, delta)
        loaded = disk.load_cleared("k" * 64, region)
        assert loaded == delta
        assert loaded.frames.tolist() == sorted(dirty)
        assert np.array_equal(loaded.rows, fm.data[sorted(dirty)])

    @given(data=st.binary(min_size=0, max_size=4096))
    @settings(max_examples=25, deadline=None)
    def test_disk_partial_roundtrip(self, tmp_path_factory, data):
        from repro.serve import DiskCache

        disk = DiskCache(str(tmp_path_factory.mktemp("dp")))
        disk.store_partial("b" * 64, None, "m" * 64, data)
        assert disk.load_partial("b" * 64, None, "m" * 64) == data

    @given(
        name=st.text(min_size=1, max_size=12),
        xdl=st.text(min_size=1, max_size=64),
        ucf=st.none() | st.text(max_size=32),
    )
    @settings(max_examples=50, deadline=None)
    def test_request_digest_is_stable_and_discriminating(self, name, xdl, ucf):
        from repro.serve import GenRequest

        a = GenRequest(name=name, xdl=xdl, ucf=ucf)
        assert a.digest() == GenRequest(name=name, xdl=xdl, ucf=ucf).digest()
        assert a.digest() != GenRequest(name=name, xdl=xdl + "x", ucf=ucf).digest()
        assert a.digest() != GenRequest(name=name, xdl=xdl, ucf=ucf,
                                        granularity="frame").digest()
