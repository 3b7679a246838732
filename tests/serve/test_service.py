"""GenerationService: request shaping, failure modes, deploy-on-generate.

Real-generation paths (cold/warm/byte-identity) live in the differential
and CLI suites; this file covers the service's own contract.
"""

import os

import numpy as np
import pytest

from repro.errors import UsageError
from repro.serve import DiskCache, GenRequest, GenerationService

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def service(demo_project, tmp_path_factory):
    return GenerationService(
        "XCV50", demo_project.base_bitfile,
        cache_dir=str(tmp_path_factory.mktemp("svc-cache")),
    )


def request_for(demo_project, region="r1", version="down"):
    mv = demo_project.versions[(region, version)]
    return GenRequest(
        name=f"{region}/{version}", xdl=mv.xdl, ucf=mv.ucf,
        region=demo_project.regions[region].to_ucf(),
    )


class TestRequests:
    def test_bad_granularity_is_usage_error(self):
        req = GenRequest(name="x", xdl="text", granularity="nibble")
        with pytest.raises(UsageError):
            req.to_item(check_interface=False)

    def test_close_is_an_idempotent_no_op(self, service, demo_project):
        """The service holds nothing to release: closing it, even twice,
        leaves it serving."""
        service.close()
        service.close()
        assert service.generate(request_for(demo_project)).ok

    def test_partial_key_coordinates(self, service, demo_project):
        req = request_for(demo_project)
        base, region, digest = service.partial_key(req)
        assert base == service.base_key
        assert region != "none"
        assert digest == req.digest()

    def test_generation_failure_is_a_result_not_an_exception(self, service):
        req = GenRequest(name="nowhere", xdl="design bad XCV50;")
        result = service.generate(req)
        assert not result.ok
        assert result.data is None and result.size == 0
        assert service.metrics.counter("serve.failures") >= 1

    def test_stats_shape(self, service):
        stats = service.stats()
        assert stats["part"] == "XCV50"
        assert len(stats["base_key"]) == 64
        assert stats["full_size"] > 0
        assert "disk" in stats and stats["disk"]["root"]
        assert isinstance(stats["counters"], dict)


class TestDeployOnGenerate:
    def test_generated_partial_reaches_the_board(self, demo_project, tmp_path):
        from repro.hwsim import Board
        from repro.jbits import SimulatedXhwif

        board = Board("XCV50")
        svc = GenerationService(
            "XCV50", demo_project.base_bitfile,
            cache_dir=str(tmp_path / "cache"),
            xhwif=SimulatedXhwif(board),
        )
        result = svc.generate(request_for(demo_project))
        assert result.ok, result.error
        assert result.deployed
        assert svc.metrics.counter("serve.deploys") == 1

        # a second (disk-served) request deploys the cached bytes too
        again = svc.generate(request_for(demo_project))
        assert again.source == "disk" and again.deployed
        assert svc.metrics.counter("serve.deploys") == 2

    def test_no_board_no_deploy_flag(self, service, demo_project):
        result = service.generate(request_for(demo_project, version="up"))
        assert result.ok and not result.deployed


class TestClearedSpill:
    def test_old_format_entry_regenerates_identical_bytes(self, demo_project, tmp_path):
        """A cleared-region spill in the earlier whole-device format is a
        miss: it is dropped, the clear runs again, the partial comes out
        byte-identical and the entry is stored afresh as a delta."""
        root = str(tmp_path / "cache")
        req = request_for(demo_project)
        first = GenerationService("XCV50", demo_project.base_bitfile, cache_dir=root)
        want = first.generate(req)
        assert want.ok and want.source == "generated"
        path = DiskCache(root).cleared_path(first.base_key, demo_project.regions["r1"])
        with open(path, "wb") as f:
            np.savez(f, device=np.array("XCV50"), data=first.engine.base_frames.data,
                     dirty=np.arange(4, dtype=np.int64))
        partials = os.path.join(root, "partials")
        for name in os.listdir(partials):
            os.unlink(os.path.join(partials, name))

        second = GenerationService("XCV50", demo_project.base_bitfile, cache_dir=root)
        got = second.generate(req)
        assert got.ok and got.source == "generated"
        assert got.data == want.data
        assert second.metrics.counter("framecache.miss") == 1
        with np.load(path) as npz:
            assert sorted(npz.files) == ["device", "frames", "rows"]
