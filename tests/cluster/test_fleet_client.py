"""FleetClient: client-side consistent routing, failover to the next
owner, and agreement with peer fill on placement.

Workers are real ``JpgServer`` instances over TCP with the fake service
(fast, deterministic); the client routes over their fleet file, exactly
as ``jpg submit --socket fleet.json`` and the load harness do.
"""

import asyncio
import json
import os
import threading
import time

import pytest

from repro.cluster import FleetClient, HashRing, Membership, PeerFiller, connect
from repro.errors import ServiceUnavailableError
from repro.serve import GenRequest, JpgServer, ServeClient, decode_partial, region_tag

from ..serve.test_scheduler import FakeService

pytestmark = [pytest.mark.cluster, pytest.mark.serve]

REGION = "CLB_R1C1:CLB_R4C4"


class Worker:
    """One fake worker node over TCP, stoppable abruptly (for failover)."""

    def __init__(self):
        self.service = FakeService()
        self.server = JpgServer(self.service, max_queue=32, workers=2)
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self.server.serve_tcp("127.0.0.1", 0)),
            daemon=True,
        )
        self.thread.start()
        deadline = time.monotonic() + 10
        while self.server.tcp_address is None:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        host, port = self.server.tcp_address
        self.address = f"{host}:{port}"

    def stop(self):
        if not self.thread.is_alive():
            return
        try:
            with ServeClient(self.address, timeout=10) as c:
                c.shutdown()
        except Exception:
            pass
        self.thread.join(timeout=10)


def write_fleet(path, workers):
    old = path.stat().st_mtime if path.exists() else 0.0
    path.write_text(json.dumps(
        {"nodes": {n: w.address for n, w in workers.items()}}))
    # Membership reloads on an mtime change; a rewrite inside the
    # filesystem's timestamp granularity must still count as one
    stamp = max(time.time(), old + 1)
    os.utime(path, (stamp, stamp))


@pytest.fixture()
def fleet(tmp_path):
    workers = {f"n{i}": Worker() for i in range(3)}
    fleet_file = tmp_path / "fleet.json"
    write_fleet(fleet_file, workers)
    client = FleetClient(Membership(path=str(fleet_file)), part="XCV50",
                         timeout=10)
    yield {"workers": workers, "client": client, "file": fleet_file}
    client.close()
    for w in workers.values():
        w.stop()


def key_of(client, name, xdl):
    return client.key({"op": "submit", "name": name, "xdl": xdl})


class TestRouting:
    def test_submit_roundtrip(self, fleet):
        resp = fleet["client"].submit("mod", "xdl text")
        assert resp["ok"]
        assert decode_partial(resp) == b"data:mod"
        assert resp["node"] in fleet["workers"]

    def test_same_key_always_same_node(self, fleet):
        nodes = {fleet["client"].submit("m", "fixed xdl")["node"]
                 for _ in range(8)}
        assert len(nodes) == 1

    def test_distinct_keys_spread_across_nodes(self, fleet):
        nodes = {fleet["client"].submit(f"m{i}", f"xdl {i}")["node"]
                 for i in range(40)}
        assert len(nodes) >= 2                    # the fleet actually shards

    def test_worker_calls_equal_submits(self, fleet):
        for i in range(20):
            assert fleet["client"].submit(f"m{i}", f"xdl {i}")["ok"]
        calls = sum(len(w.service.calls) for w in fleet["workers"].values())
        assert calls == 20                        # no duplicates, no drops

    def test_bad_message_is_a_bad_request_reply(self, fleet):
        client = fleet["client"]
        assert client.request({"op": "submit", "xdl": ""})["code"] == "bad-request"
        assert client.request({"op": "ping"})["code"] == "bad-request"
        bad_region = client.submit("m", "x", region="oops")
        assert not bad_region["ok"] and bad_region["code"] == "bad-request"

    def test_fetch_stats_and_shutdown_reach_the_nodes(self, fleet):
        client = fleet["client"]
        client.submit("m", "x")
        assert client.fetch("base", "none", "d" * 64) is None   # never generates
        stats = client.stats()
        assert stats["ok"] and set(stats["stats"]) == {"n0", "n1", "n2"}
        assert sum(s["calls"] for s in stats["stats"].values()) == 1
        assert client.shutdown()["ok"]
        for w in fleet["workers"].values():
            w.thread.join(timeout=10)
            assert not w.thread.is_alive()

    def test_part_is_learned_from_the_fleet(self, fleet):
        learner = FleetClient(Membership(path=str(fleet["file"])))
        try:
            # the fake service's stats carry no part: the key names ""
            assert learner.fleet_part() == ""
            assert learner.submit("m", "x")["ok"]
        finally:
            learner.close()


class TestConnect:
    def test_fleet_file_or_node_address(self, fleet):
        with connect(str(fleet["file"])) as client:
            assert isinstance(client, FleetClient)
        with connect(fleet["workers"]["n0"].address) as client:
            assert isinstance(client, ServeClient)


class TestFailover:
    def test_stopped_node_loses_zero_requests(self, fleet):
        """Requests owned by a stopped node go to the next owner — the
        node the ring re-hashes them onto once it is gone."""
        client = fleet["client"]
        owners = {f"k{i}": client.submit(f"k{i}", f"xdl {i}")["node"]
                  for i in range(12)}
        victim = next(iter(owners.values()))
        fleet["workers"][victim].stop()            # the fleet file still lists it
        survivors = HashRing(n for n in fleet["workers"] if n != victim)
        for name in owners:
            resp = client.submit(name, f"xdl {name[1:]}")
            assert resp["ok"], resp
            assert resp["node"] == survivors.owner(
                key_of(client, name, f"xdl {name[1:]}"))

    def test_all_nodes_down_raises_naming_the_nodes(self, fleet):
        for w in fleet["workers"].values():
            w.stop()
        with pytest.raises(ServiceUnavailableError,
                           match=r"tried: n[012], n[012], n[012]\)"):
            fleet["client"].submit("m", "x")

    def test_empty_fleet_raises(self):
        client = FleetClient(Membership({}), part="XCV50")
        with pytest.raises(ServiceUnavailableError, match="fleet is empty"):
            client.submit("m", "x")

    def test_restarted_node_reached_after_fleet_file_changes(self, fleet):
        client = fleet["client"]
        name = next(f"m{i}" for i in range(100)
                    if client.owners(key_of(client, f"m{i}", "x"))[0][0] == "n0")
        assert client.submit(name, "x")["node"] == "n0"
        fleet["workers"]["n0"].stop()
        replacement = Worker()                     # same name, new port
        fleet["workers"]["n0"] = replacement
        write_fleet(fleet["file"], fleet["workers"])
        resp = client.submit(name, "x")
        assert resp["ok"] and resp["node"] == "n0"
        assert [c[0] for c in replacement.service.calls] == [name]


class TestPlacementAgreement:
    def test_owner_is_peer_fill_first_probe(self):
        """For one membership, the node a client sends a request to is
        the first peer every other node's peer fill asks for it."""
        membership = Membership({f"n{i}": f"127.0.0.1:{i + 1}" for i in range(4)})
        client = FleetClient(membership, part="XCV50")
        filler = PeerFiller(membership, "outsider", part="XCV50")
        tried = {"client": [], "filler": []}

        def refuse(who):
            def call(name, address, msg):
                tried[who].append(name)
                raise ServiceUnavailableError("refused")
            return call

        client.call = refuse("client")
        filler.fleet.call = refuse("filler")
        for i in range(24):
            request = GenRequest(name=f"m{i}", xdl=f"xdl {i}", region=REGION)
            tried["client"].clear()
            tried["filler"].clear()
            with pytest.raises(ServiceUnavailableError):
                client.submit(request.name, request.xdl, region=request.region)
            # the node side: the service's own cache coordinates
            assert filler("base", region_tag(request.region_rect()),
                          request.digest()) is None
            assert tried["filler"][0] == tried["client"][0]
            assert len(tried["filler"]) == filler.probes
