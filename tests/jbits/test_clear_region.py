"""``JBits.clear_region``: one bit-range clear per column, equal to the
per-tile ``clear_tile`` loop, and all-or-nothing on a bad rectangle."""

import random

import numpy as np
import pytest

from repro.devices import get_device, part_names, random_device, variant_names
from repro.errors import DeviceError
from repro.flow.floorplan import RegionRect
from repro.jbits import JBits

RANDOM_SEEDS = (1, 2, 4, 7, 8, 10)


def devices():
    yield from part_names()
    yield from variant_names()
    for seed in RANDOM_SEEDS:
        yield f"random:{seed}"


def load(name):
    if name.startswith("random:"):
        return random_device(int(name.split(":")[1]))
    return get_device(name)


def filled_jbits(dev, seed):
    """A JBits on ``dev`` whose every frame word is random."""
    jb = JBits(dev)
    jb.blank()
    rng = np.random.default_rng(seed)
    jb.frames.data[:] = rng.integers(0, 1 << 32, jb.frames.data.shape, dtype=np.uint32)
    return jb


def edge_regions(dev, rng):
    """Rectangles touching each edge of the device, plus the whole array."""
    h = rng.randrange(1, max(2, dev.rows // 3))
    w = rng.randrange(1, max(2, dev.cols // 3))
    r = rng.randrange(0, dev.rows - 1)
    c = rng.randrange(0, dev.cols - 1)
    return [
        RegionRect(0, 0, h - 1, w - 1),                              # top-left
        RegionRect(dev.rows - h, dev.cols - w, dev.rows - 1, dev.cols - 1),
        RegionRect(0, c, dev.rows - 1, c + 1),                       # top to bottom
        RegionRect(r, 0, r + 1, dev.cols - 1),                       # left to right
        RegionRect(0, 0, dev.rows - 1, dev.cols - 1),
    ]


@pytest.mark.parametrize("name", list(devices()))
def test_clear_region_equals_per_tile_loop(name):
    dev = load(name)
    rng = random.Random(name)
    for i, region in enumerate(edge_regions(dev, rng)):
        by_tile = filled_jbits(dev, i)
        for r, c in region.sites():
            by_tile.clear_tile(r, c)
        by_region = filled_jbits(dev, i)
        by_region.clear_region(region)
        assert by_region.dirty_frames == by_tile.dirty_frames, region
        assert by_region.dirty_frames
        assert np.array_equal(by_region.frames.data, by_tile.frames.data), region


def test_clearing_a_clear_region_dirties_nothing():
    dev = get_device("XCV50")
    jb = filled_jbits(dev, 0)
    region = RegionRect(2, 3, 9, 7)
    jb.clear_region(region)
    jb.checkpoint()
    jb.clear_region(region)
    assert jb.dirty_frames == []


@pytest.mark.parametrize("region", [
    RegionRect(0, 2, 25, 9),       # rows past the bottom
    RegionRect(3, 20, 5, 40),      # columns past the right edge
])
def test_region_past_the_device_changes_nothing(region):
    dev = get_device("XCV50")
    jb = filled_jbits(dev, 0)
    jb.set_lut(1, 1, 0, "F", 0x1234 ^ jb.get_lut(1, 1, 0, "F"))
    before, dirty = jb.frames.data.copy(), jb.dirty_frames
    with pytest.raises(DeviceError):
        jb.clear_region(region)
    assert np.array_equal(jb.frames.data, before)
    assert jb.dirty_frames == dirty
