"""Configuration-port timing model tests."""

import pytest

from repro.bitstream.frames import FrameMemory
from repro.devices import get_device
from repro.hwsim.configport import DEFAULT_CCLK_HZ, ConfigPort, PortMode


@pytest.fixture()
def port():
    return ConfigPort(FrameMemory(get_device("XCV50")))


class TestTimingModel:
    def test_selectmap_one_byte_per_cycle(self, port):
        assert port.cycles_for(1000) == 1000

    def test_serial_eight_cycles_per_byte(self):
        port = ConfigPort(FrameMemory(get_device("XCV50")), mode=PortMode.SERIAL)
        assert port.cycles_for(1000) == 8000

    def test_seconds_at_cclk(self, port):
        assert port.seconds_for(DEFAULT_CCLK_HZ) == pytest.approx(1.0)

    def test_custom_cclk(self):
        port = ConfigPort(FrameMemory(get_device("XCV50")), cclk_hz=25e6)
        assert port.seconds_for(25_000_000) == pytest.approx(1.0)


class TestDownload:
    def test_full_download(self, counter_bitfile, counter_frames):
        fm = FrameMemory(get_device("XCV50"))
        port = ConfigPort(fm)
        report = port.download(counter_bitfile.config_bytes)
        assert fm == counter_frames
        assert report.bytes == counter_bitfile.size
        assert report.cycles == report.bytes
        assert report.seconds == pytest.approx(report.bytes / DEFAULT_CCLK_HZ)
        assert report.frames_written == get_device("XCV50").geometry.total_frames

    def test_download_accounting_accumulates(self, counter_bitfile):
        fm = FrameMemory(get_device("XCV50"))
        port = ConfigPort(fm)
        port.download(counter_bitfile.config_bytes)
        port.download(counter_bitfile.config_bytes)
        assert port.download_count == 2
        assert port.total_cycles == 2 * counter_bitfile.size

    def test_many_downloads_keep_the_port_flat(self, counter_frames):
        """The port keeps counts, not a log: a long-lived board must not
        grow with the number of downloads it has been sent."""
        import gc
        import tracemalloc

        from repro.bitstream.assembler import partial_stream

        port = ConfigPort(FrameMemory(get_device("XCV50")))
        data = partial_stream(counter_frames, range(2))
        for _ in range(10):
            port.download(data)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(1000):
                port.download(data)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert port.download_count == 1010
        assert port.total_cycles == 1010 * len(data)
        assert grown < 16 * 1024

    def test_partial_download_faster_than_full(self, counter_bitfile, counter_frames):
        from repro.bitstream.assembler import partial_stream

        fm = FrameMemory(get_device("XCV50"))
        port = ConfigPort(fm)
        full = port.download(counter_bitfile.config_bytes)
        partial = port.download(partial_stream(counter_frames, range(48)))
        assert partial.seconds < full.seconds / 10
