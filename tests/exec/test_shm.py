"""SharedFrames / FrameDelta: the zero-copy transport under the process
backend, exercised directly (publish/attach lifecycle, delta round-trips).
"""

import pickle

import numpy as np
import pytest

from repro.bitstream.frames import FrameDelta, FrameMemory
from repro.devices import get_device
from repro.errors import ExecError
from repro.exec import SharedFrames, ShmSpec, attach_frames


def _frames(seed: int = 0) -> FrameMemory:
    fm = FrameMemory(get_device("XCV50"))
    rng = np.random.default_rng(seed)
    fm.data[:] = rng.integers(0, 2**32, size=fm.data.shape,
                              dtype=np.uint64).astype(np.uint32) & fm._payload_mask[None, :]
    return fm


class TestSharedFrames:
    def test_publish_attach_roundtrip(self):
        fm = _frames(1)
        shared = SharedFrames.publish(fm)
        try:
            attached, shm = attach_frames(shared.spec)
            try:
                assert attached == fm
                assert attached.device.name == "XCV50"
                # zero-copy: the attached view is read-only shared memory,
                # not a private copy
                assert not attached.data.flags.writeable
                with pytest.raises(ValueError):
                    attached.data[0, 0] = 1
            finally:
                del attached
                shm.close()
        finally:
            shared.unlink()

    def test_spec_is_small_and_picklable(self):
        import pickle

        fm = _frames(2)
        shared = SharedFrames.publish(fm)
        try:
            blob = pickle.dumps(shared.spec)
            assert len(blob) < 256, "spec must stay a tiny task payload"
            spec = pickle.loads(blob)
            assert spec == shared.spec
            assert shared.nbytes == fm.data.nbytes
        finally:
            shared.unlink()

    def test_attach_after_unlink_raises(self):
        fm = _frames(3)
        shared = SharedFrames.publish(fm)
        spec = shared.spec
        shared.unlink()
        with pytest.raises(ExecError, match="gone"):
            attach_frames(spec)

    def test_unlink_is_idempotent(self):
        shared = SharedFrames.publish(_frames(4))
        shared.unlink()
        shared.unlink()

    def test_attach_wrong_device_shape_rejected(self):
        """A spec whose shape disagrees with its device must not produce a
        silently misshapen frame memory."""
        fm = _frames(5)
        shared = SharedFrames.publish(fm)
        try:
            bad = ShmSpec(shared.spec.name, "XCV100",
                          shared.spec.frames, shared.spec.words)
            with pytest.raises(Exception):  # BitstreamError via FrameMemory
                attach_frames(bad)
        finally:
            shared.unlink()


class TestFrameDelta:
    """The delta a cleared region travels as (it lives in
    repro.bitstream.frames; workers pickle it into their replies)."""

    def test_roundtrip(self):
        base = _frames(6)
        other = base.clone()
        other.data[5, 2] ^= 0x80000000
        other.data[300] = 0
        delta = FrameDelta.capture(other, [300, 5])
        assert delta.frames.tolist() == [5, 300]
        assert delta.nbytes == 2 * base.data.shape[1] * 4 + 2 * 8
        shipped = pickle.loads(pickle.dumps(delta, protocol=pickle.HIGHEST_PROTOCOL))
        assert shipped == delta
        assert not shipped.rows.flags.writeable
        rebuilt = base.clone()
        rebuilt.data[shipped.frames] = shipped.rows
        assert rebuilt == other

    def test_empty_delta(self):
        base = _frames(7)
        delta = FrameDelta.capture(base, [])
        assert len(delta) == 0 and delta.nbytes == 0
        assert delta.rows.shape == (0, base.data.shape[1])
        rebuilt = base.clone()
        rebuilt.data[delta.frames] = delta.rows
        assert rebuilt == base

    def test_delta_is_much_smaller_than_the_memory(self):
        """The reason deltas exist: a cleared region touches a sliver of
        the device, and only that sliver should cross the process pipe."""
        base = _frames(8)
        other = base.clone()
        other.data[10:58] = 0  # one CLB column's 48 frames
        delta = FrameDelta.capture(other, range(10, 58))
        assert delta.nbytes <= base.data.nbytes // 10

    def test_applies_against_read_only_base(self):
        base = _frames(9)
        other = base.clone()
        other.data[0, 0] ^= 1
        delta = FrameDelta.capture(other, [0])
        base.data.setflags(write=False)
        rebuilt = base.clone()
        rebuilt.data[delta.frames] = delta.rows
        assert rebuilt == other
        with pytest.raises(ValueError):
            delta.rows[0, 0] = 0
