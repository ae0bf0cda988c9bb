"""Tests for repro.telemetry — the unified live-observability plane.

Covers the envelope bus (schema, ordering, bounded queues with honest
drop counters), the flight recorder (ring semantics, schema-versioned
dumps), the Prometheus text exporter, the heartbeat terminal-line and
ETA-clamp fixes, the NDJSON streaming server (multi-client fan-out, torn
frames, slow-client eviction), the sampler gauges, ``repro top``'s
aggregator/renderer in both live and recorded modes, and the CLI
``--stream`` / ``--metrics-out`` / ``telemetry`` JSON block wiring.

The load-bearing invariant throughout is the ISSUE's acceptance bar:
telemetry is *observation only* — a streamed campaign produces bitwise-
identical outcomes, per-layer tallies, RNG stream, and cache statistics
to an unstreamed one, serial and parallel alike.
"""

import functools
import json
import math
import multiprocessing
import os
import signal
import socket
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import models
from repro.campaign import InjectionCampaign
from repro.cli import main
from repro.core import SingleBitFlip
from repro.data import SelfLabelledDataset, SyntheticClassification
from repro.perf import CampaignPerfCounters, campaign_gauges
from repro.profile import MetricsRegistry
from repro.profile.heartbeat import CampaignHeartbeat
from repro.telemetry import (
    ENVELOPE_SCHEMA,
    FLIGHT_SCHEMA,
    SOURCES,
    FlightRecorder,
    NdjsonDecoder,
    Subscription,
    TelemetryBus,
    TelemetrySampler,
    TelemetryServer,
    TopAggregator,
    WorkerTelemetryRelay,
    coerce_bus,
    load_flight_dump,
    make_envelope,
    parse_address,
    render,
    run_top,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not HAS_FORK, reason="fork start method unavailable")

_NONDETERMINISTIC = ("elapsed_seconds", "injections_per_sec")
_RECOVERY = ("chunk_retries", "chunks_requeued", "chunks_quarantined",
             "worker_failures", "worker_respawns")


def _campaign(model, dataset, rng=11, **kwargs):
    return InjectionCampaign(
        model, dataset, error_model=SingleBitFlip(), criterion="top1",
        batch_size=4, pool_size=16, rng=rng, **kwargs)


def _science_tallies(campaign):
    d = campaign.perf.as_dict()
    for key in _NONDETERMINISTIC + _RECOVERY:
        d.pop(key)
    return d


def _rng_probe(campaign):
    """Fingerprint of the campaign RNG stream position after a run."""
    return campaign.rng.integers(0, 2**63, size=8).tolist()


# ---------------------------------------------------------------------- #
# Envelopes and the bus
# ---------------------------------------------------------------------- #

class TestBus:
    def test_envelope_schema_fields(self):
        env = make_envelope("r1", 3, "campaign", "chunk", {"x": 1}, worker=2)
        assert env["schema"] == ENVELOPE_SCHEMA
        assert env["run"] == "r1"
        assert env["seq"] == 3
        assert env["source"] == "campaign"
        assert env["kind"] == "chunk"
        assert env["worker"] == 2
        assert env["data"] == {"x": 1}
        assert isinstance(env["t_wall"], float)
        assert isinstance(env["t_mono"], float)

    def test_publish_orders_and_counts(self):
        bus = TelemetryBus(run_id="fixed")
        sub = bus.subscribe()
        for i in range(5):
            env = bus.publish("campaign", "chunk", {"i": i})
            assert env["run"] == "fixed"
        drained = sub.drain()
        assert [e["seq"] for e in drained] == [0, 1, 2, 3, 4]
        assert [e["data"]["i"] for e in drained] == [0, 1, 2, 3, 4]
        stats = bus.stats()
        assert stats["events_published"] == 5
        assert stats["events_dropped"] == 0
        assert stats["subscribers"] == 1

    def test_full_queue_drops_oldest_and_counts_honestly(self):
        bus = TelemetryBus()
        sub = bus.subscribe(maxlen=4)
        for i in range(10):
            bus.publish("campaign", "chunk", {"i": i})
        assert len(sub) == 4
        # Live viewers keep the newest state: the oldest six were dropped.
        assert [e["data"]["i"] for e in sub.drain()] == [6, 7, 8, 9]
        assert sub.dropped == 6
        assert bus.events_dropped == 6
        assert bus.events_published == 10

    def test_unsubscribe_stops_delivery(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        bus.publish("campaign", "chunk", {})
        sub.close()
        bus.publish("campaign", "chunk", {})
        assert len(sub) == 1
        assert bus.subscribers == 0

    def test_subscription_maxlen_validation(self):
        with pytest.raises(ValueError, match="maxlen"):
            Subscription(TelemetryBus(), maxlen=0)

    def test_coerce_bus(self):
        assert coerce_bus(None) is None
        assert coerce_bus(False) is None
        fresh = coerce_bus(True)
        assert isinstance(fresh, TelemetryBus)
        assert isinstance(fresh.recorder, FlightRecorder)
        bus = TelemetryBus()
        assert coerce_bus(bus) is bus
        relay = WorkerTelemetryRelay(1)
        assert coerce_bus(relay) is relay
        with pytest.raises(TypeError, match="telemetry must be"):
            coerce_bus(42)

    def test_worker_relay_buffers_and_tags(self):
        relay = WorkerTelemetryRelay(3)
        relay.publish("observe", "injection", {"index": 0})
        relay.publish("campaign", "chunk", {"chunk": 1}, worker=9)
        rows = relay.take()
        assert rows == [("observe", "injection", {"index": 0}, 3),
                        ("campaign", "chunk", {"chunk": 1}, 9)]
        assert relay.take() == []
        assert relay.events_published == 2


# ---------------------------------------------------------------------- #
# Flight recorder
# ---------------------------------------------------------------------- #

class TestFlightRecorder:
    def test_ring_overwrites_oldest(self):
        rec = FlightRecorder(capacity=3)
        for i in range(5):
            rec.record({"seq": i})
        assert len(rec) == 3
        assert [e["seq"] for e in rec.snapshot()] == [2, 3, 4]
        assert rec.overwritten == 2

    def test_dump_and_load_round_trip(self, tmp_path):
        bus = TelemetryBus(recorder=FlightRecorder(capacity=8))
        for i in range(4):
            bus.publish("campaign", "chunk", {"i": i})
        path = bus.dump_flight("interrupt", out_dir=tmp_path)
        assert path.name == f"flight_{bus.run_id}_interrupt.json"
        payload = load_flight_dump(path)
        assert payload["schema"] == FLIGHT_SCHEMA
        assert payload["run"] == bus.run_id
        assert payload["reason"] == "interrupt"
        assert payload["captured"] == 4
        assert payload["overwritten"] == 0
        assert [e["data"]["i"] for e in payload["events"]] == [0, 1, 2, 3]
        assert bus.recorder.last_dump == path

    def test_load_rejects_non_flight_files(self, tmp_path):
        bogus = tmp_path / "x.json"
        bogus.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="not a flight-recorder dump"):
            load_flight_dump(bogus)

    def test_dump_without_recorder_is_none(self):
        assert TelemetryBus().dump_flight("interrupt") is None


# ---------------------------------------------------------------------- #
# Prometheus text exposition (satellite)
# ---------------------------------------------------------------------- #

class TestPrometheusText:
    def test_counters_and_gauges(self):
        reg = MetricsRegistry()
        reg.counter("campaign.injections", help="total injections").inc(42)
        reg.gauge("campaign.cache_bytes", help="resume cache size").set(1.5)
        text = reg.to_prometheus_text()
        assert "# HELP campaign_injections total injections\n" in text
        assert "# TYPE campaign_injections counter\n" in text
        assert "\ncampaign_injections 42\n" in text
        assert "# TYPE campaign_cache_bytes gauge\n" in text
        assert "campaign_cache_bytes 1.5\n" in text
        assert text.endswith("\n")

    def test_histogram_buckets_are_cumulative_with_inf(self):
        reg = MetricsRegistry()
        hist = reg.histogram("chunk.seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.05, 0.5, 2.0):
            hist.observe(v)
        text = reg.to_prometheus_text()
        assert '# TYPE chunk_seconds histogram' in text
        assert 'chunk_seconds_bucket{le="0.1"} 2' in text
        assert 'chunk_seconds_bucket{le="1"} 3' in text
        assert 'chunk_seconds_bucket{le="+Inf"} 4' in text
        assert "chunk_seconds_count 4" in text
        assert "chunk_seconds_sum 2.6" in text

    def test_round_trips_against_snapshot(self):
        """The exposition's numbers are exactly the snapshot's numbers."""
        reg = MetricsRegistry()
        reg.counter("a.count").inc(7)
        reg.gauge("b.gauge").set(-2.25)
        hist = reg.histogram("c.hist", buckets=(1.0, 5.0))
        for v in (0.5, 3.0, 9.0):
            hist.observe(v)
        snap = reg.snapshot()
        samples = {}
        for line in reg.to_prometheus_text().splitlines():
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            samples[name] = float(value)
        assert samples["a_count"] == snap["counters"]["a.count"]["value"]
        assert samples["b_gauge"] == snap["gauges"]["b.gauge"]["value"]
        h = snap["histograms"]["c.hist"]
        assert samples["c_hist_count"] == h["count"]
        assert samples["c_hist_sum"] == h["sum"]
        assert samples['c_hist_bucket{le="1"}'] == h["counts"][0]
        assert samples['c_hist_bucket{le="5"}'] == h["counts"][0] + h["counts"][1]
        assert samples['c_hist_bucket{le="+Inf"}'] == h["count"]

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().to_prometheus_text() == ""


# ---------------------------------------------------------------------- #
# Heartbeat fixes (satellite)
# ---------------------------------------------------------------------- #

class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class _Lines:
    def __init__(self):
        self.lines = []

    def write(self, text):
        self.lines.append(text)

    def flush(self):
        pass


class TestHeartbeat:
    def test_final_line_always_emits_despite_rate_limit(self):
        clock, out = _FakeClock(), _Lines()
        hb = CampaignHeartbeat(interval_s=60.0, stream=out, clock=clock)
        hb(0, 100)
        clock.now += 0.01  # far inside the rate-limit window
        hb(100, 100)  # must bypass the interval: it is the terminal line
        text = "".join(out.lines)
        assert "100/100" in text
        assert "done" in text

    def test_terminal_line_prints_exactly_once(self):
        clock, out = _FakeClock(), _Lines()
        hb = CampaignHeartbeat(interval_s=0.0, stream=out, clock=clock)
        hb(0, 10)
        clock.now += 1.0
        hb(10, 10)
        hb(10, 10)          # merge path repeats the final call
        hb.finish(10, 10)   # and the executor's finish() follows
        assert sum("done" in line for line in out.lines) == 1

    def test_finish_forces_terminal_line_when_short(self):
        """A quarantined run never reaches done == total on its own."""
        clock, out = _FakeClock(), _Lines()
        hb = CampaignHeartbeat(interval_s=60.0, stream=out, clock=clock)
        hb(0, 100)
        clock.now += 0.01
        hb(40, 100)  # suppressed by the interval
        hb.finish(40, 100)
        text = "".join(out.lines)
        assert "40/100" in text
        assert "done" in text

    def test_eta_is_clamped_finite_and_non_negative(self):
        class _Bus:
            def __init__(self):
                self.ticks = []

            def publish(self, source, kind, data, worker=None):
                self.ticks.append(data)

        class _Campaign:
            telemetry = _Bus()

        out = _Lines()
        hb = CampaignHeartbeat(campaign=_Campaign(), interval_s=0.0,
                               stream=out, clock=_FakeClock())
        perf = CampaignPerfCounters()
        hb.render(campaign_gauges(perf, 0, 100, 0, 0.0))
        hb.render(campaign_gauges(perf, 50, 100, 50, 2.0))  # 25/s, eta 2s
        # Overshoot: done > total must not go negative.
        hb.render(campaign_gauges(perf, 120, 100, 120, 3.0))
        ticks = _Campaign.telemetry.ticks
        assert ticks[1]["rate"] == 25.0 and ticks[1]["eta_s"] == 2.0
        for tick in ticks:
            rate, eta = tick["rate"], tick["eta_s"]
            assert math.isfinite(rate) and rate >= 0
            assert eta is None or (math.isfinite(eta) and eta >= 0)
        assert not any("nan" in line or "eta -" in line for line in out.lines)

    def test_zero_elapsed_rate_is_zero_not_nan(self):
        out = _Lines()
        hb = CampaignHeartbeat(interval_s=0.0, stream=out, clock=_FakeClock())
        gauges = campaign_gauges(CampaignPerfCounters(), 5, 100, 5, 0.0)
        assert gauges["inj_per_s"] == 0.0 and gauges["eta_s"] is None
        hb.render(gauges)  # first tick: elapsed == 0
        assert "nan" not in "".join(out.lines)

    def test_lines_route_through_the_bus(self):
        bus = TelemetryBus()
        sub = bus.subscribe()

        class _Campaign:
            telemetry = bus

        clock, out = _FakeClock(), _Lines()
        hb = CampaignHeartbeat(campaign=_Campaign(), interval_s=0.0,
                               stream=out, clock=clock)
        hb(0, 10)
        clock.now += 1.0
        hb(10, 10)
        ticks = [e for e in sub.drain() if e["source"] == "heartbeat"]
        assert [t["data"]["done"] for t in ticks] == [0, 10]
        assert ticks[-1]["data"]["final"] is True


# ---------------------------------------------------------------------- #
# Bitwise invariance: the acceptance bar
# ---------------------------------------------------------------------- #

class TestScienceInvariance:
    N = 48

    def test_serial_streamed_run_is_bitwise_identical(self, trained_tiny_model):
        model, dataset, _ = trained_tiny_model
        base = _campaign(model, dataset)
        base_result = base.run(self.N)
        base_probe = _rng_probe(base)

        streamed = _campaign(model, dataset)
        bus = TelemetryBus(recorder=FlightRecorder())
        sub = bus.subscribe(maxlen=100_000)
        result = streamed.run(self.N, telemetry=bus, observe=True,
                              progress=True)

        assert result.corruptions == base_result.corruptions
        assert np.array_equal(result.per_layer_injections,
                              base_result.per_layer_injections)
        assert np.array_equal(result.per_layer_corruptions,
                              base_result.per_layer_corruptions)
        assert _science_tallies(streamed) == _science_tallies(base)
        assert _rng_probe(streamed) == base_probe
        events = sub.drain()
        assert {e["source"] for e in events} >= {"campaign", "observe",
                                                "heartbeat"}
        assert all(e["source"] in SOURCES for e in events)
        assert bus.events_dropped == 0
        # The bus detaches at run end: publishing stops with the campaign.
        assert streamed.telemetry is None

    @needs_fork
    def test_workers_4_streamed_run_is_bitwise_identical(self,
                                                         trained_tiny_model,
                                                         tmp_path):
        model, dataset, _ = trained_tiny_model
        base = _campaign(model, dataset)
        base_result = base.run(self.N)
        base_probe = _rng_probe(base)

        streamed = _campaign(model, dataset)
        bus = TelemetryBus(recorder=FlightRecorder())
        sub = bus.subscribe(maxlen=100_000)
        result = streamed.run(self.N, workers=4, telemetry=bus,
                              journal=tmp_path / "j.jsonl", observe=True,
                              progress=True)

        assert result.corruptions == base_result.corruptions
        assert np.array_equal(result.per_layer_injections,
                              base_result.per_layer_injections)
        assert np.array_equal(result.per_layer_corruptions,
                              base_result.per_layer_corruptions)
        assert _rng_probe(streamed) == base_probe
        events = sub.drain()
        sources = {e["source"] for e in events}
        assert sources >= {"campaign", "observe", "heartbeat", "recovery",
                           "worker"}
        # Worker-shard events are attributed to their worker.
        tagged = [e for e in events if e["worker"] is not None]
        assert {e["worker"] for e in tagged} == {0, 1, 2, 3}
        # Fleet lifecycle: 4 spawns, 4 exits, one complete journal.
        spawns = [e for e in events
                  if e["source"] == "worker" and e["kind"] == "spawn"]
        exits = [e for e in events
                 if e["source"] == "worker" and e["kind"] == "exit"]
        assert len(spawns) == 4 and len(exits) == 4
        assert any(e["kind"] == "journal_complete" for e in events
                   if e["source"] == "recovery")

    def test_queue_overflow_drops_events_not_outcomes(self, trained_tiny_model):
        """A saturated subscriber loses telemetry, never science."""
        model, dataset, _ = trained_tiny_model
        base = _campaign(model, dataset)
        base_result = base.run(self.N)

        streamed = _campaign(model, dataset)
        bus = TelemetryBus()
        tiny = bus.subscribe(maxlen=2)  # guaranteed overflow
        result = streamed.run(self.N, telemetry=bus, observe=True)
        assert result.corruptions == base_result.corruptions
        assert np.array_equal(result.per_layer_corruptions,
                              base_result.per_layer_corruptions)
        assert tiny.dropped > 0
        assert bus.events_dropped == tiny.dropped
        assert len(tiny) == 2


# ---------------------------------------------------------------------- #
# NDJSON server
# ---------------------------------------------------------------------- #

def _read_stream(sock, deadline_s=5.0):
    decoder = NdjsonDecoder()
    events = []
    sock.settimeout(0.2)
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            chunk = sock.recv(65536)
        except socket.timeout:
            continue
        except OSError:
            break
        if not chunk:
            break
        events.extend(decoder.feed(chunk))
    return events, decoder


class TestServer:
    def test_parse_address(self):
        assert parse_address("127.0.0.1:9000") == ("tcp", "127.0.0.1", 9000)
        assert parse_address(":0") == ("tcp", "127.0.0.1", 0)
        assert parse_address("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_address("relative.sock") == ("unix", "relative.sock")
        # A path with a colon in a directory name is still a path.
        assert parse_address("/tmp/a:b/x.sock")[0] == "unix"

    def test_unix_socket_stream_round_trip(self, tmp_path):
        bus = TelemetryBus(run_id="srv1")
        with TelemetryServer(bus, tmp_path / "t.sock") as server:
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(str(tmp_path / "t.sock"))
            time.sleep(0.15)  # let the serve loop accept
            for i in range(20):
                bus.publish("campaign", "chunk", {"i": i})
            events, decoder = _read_stream(client, deadline_s=3.0)
            client.close()
        assert [e["data"]["i"] for e in events] == list(range(20))
        assert all(e["schema"] == ENVELOPE_SCHEMA for e in events)
        assert decoder.bad_lines == 0
        assert server.clients_served == 1
        assert not (tmp_path / "t.sock").exists()  # stop() unlinks

    def test_tcp_ephemeral_port_and_multiple_clients(self):
        bus = TelemetryBus()
        server = TelemetryServer(bus, "127.0.0.1:0").start()
        try:
            host, port = server.endpoint.rsplit(":", 1)
            clients = [socket.create_connection((host, int(port)))
                       for _ in range(3)]
            time.sleep(0.15)
            for i in range(5):
                bus.publish("campaign", "chunk", {"i": i})
            for client in clients:
                events, _ = _read_stream(client, deadline_s=3.0)
                assert [e["data"]["i"] for e in events] == list(range(5))
                client.close()
            assert server.clients_served == 3
        finally:
            server.stop()

    def test_slow_client_is_evicted_not_waited_on(self, tmp_path):
        bus = TelemetryBus()
        server = TelemetryServer(bus, tmp_path / "slow.sock",
                                 max_client_buffer=4096).start()
        try:
            client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            client.connect(str(tmp_path / "slow.sock"))
            # Never read: the kernel buffer fills, then the server-side
            # buffer crosses max_client_buffer and the client is evicted.
            blob = "x" * 2048
            deadline = time.monotonic() + 10.0
            while server.clients_evicted == 0 and time.monotonic() < deadline:
                bus.publish("campaign", "chunk", {"blob": blob})
                time.sleep(0.002)
            assert server.clients_evicted == 1
            client.close()
        finally:
            server.stop()

    def test_stop_is_idempotent(self, tmp_path):
        bus = TelemetryBus()
        server = TelemetryServer(bus, tmp_path / "t.sock").start()
        server.stop()
        server.stop()


class TestSampler:
    def test_gauges_derive_from_bus_traffic(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        sampler = TelemetrySampler(bus, interval_s=60.0)  # manual sampling
        sampler.start()
        bus.publish("campaign", "run_start", {"n_injections": 100})
        bus.publish("heartbeat", "tick", {"done": 40, "total": 100})
        bus.publish("worker", "spawn", {"wid": 0, "pid": os.getpid()})
        sampler.stop()
        gauges = [e for e in sub.drain() if e["source"] == "sampler"]
        assert len(gauges) >= 2  # one at start, one at stop
        final = gauges[-1]["data"]
        assert final["done"] == 40
        assert final["total"] == 100
        assert final["rss_kb"] is None or final["rss_kb"] > 0
        assert final["workers"][0]["wid"] == 0
        assert final["workers"][0]["alive"] is True
        assert final["eta_s"] is None or final["eta_s"] >= 0

    def test_lane_occupancy_gauges(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        sampler = TelemetrySampler(bus, interval_s=60.0)
        sampler.start()
        # Two lane-packed chunks: 8 + 4 injections over 2 forwards.
        perf = CampaignPerfCounters(forwards=2, forwards_saved=(8 - 1) + (4 - 1))
        bus.publish("campaign", "progress", campaign_gauges(perf, 12, 12, 12, 1.0))
        sampler.stop()
        final = [e for e in sub.drain() if e["source"] == "sampler"][-1]["data"]
        assert final["done"] == 12 and final["total"] == 12
        assert final["lane_occupancy"] == 6.0
        assert final["forwards_saved"] == 10

    def test_lane_gauges_absent_without_traffic(self):
        bus = TelemetryBus()
        sub = bus.subscribe()
        sampler = TelemetrySampler(bus, interval_s=60.0)
        sampler.start()
        sampler.stop()
        final = [e for e in sub.drain() if e["source"] == "sampler"][-1]["data"]
        assert final["lane_occupancy"] is None  # no snapshot seen
        # Nor does a snapshot taken before the first forward claim one.
        gauges = campaign_gauges(CampaignPerfCounters(), 0, 4, 0, 0.0)
        assert gauges["lane_occupancy"] is None
        assert gauges["cache_hit_rate"] is None

    def test_stop_is_idempotent(self):
        sampler = TelemetrySampler(TelemetryBus(), interval_s=60.0).start()
        sampler.stop()
        published = sampler.bus.events_published
        sampler.stop()
        assert sampler.bus.events_published == published


# ---------------------------------------------------------------------- #
# Torn frames and the top aggregator/renderer
# ---------------------------------------------------------------------- #

class TestNdjsonDecoder:
    def test_torn_frames_reassemble(self):
        lines = (json.dumps({"a": 1}) + "\n" + json.dumps({"b": 2}) + "\n")
        raw = lines.encode()
        decoder = NdjsonDecoder()
        out = []
        # Worst case: the stream arrives one byte at a time.
        for i in range(len(raw)):
            out.extend(decoder.feed(raw[i:i + 1]))
        assert out == [{"a": 1}, {"b": 2}]
        assert decoder.bad_lines == 0
        assert decoder.pending == 0

    def test_torn_multibyte_utf8_survives(self):
        payload = json.dumps({"s": "é" * 10}).encode() + b"\n"
        decoder = NdjsonDecoder()
        split = len(payload) // 2  # guaranteed to tear inside the blob
        out = decoder.feed(payload[:split])
        out += decoder.feed(payload[split:])
        assert out == [{"s": "é" * 10}]
        assert decoder.bad_lines == 0

    def test_garbage_lines_are_counted_not_fatal(self):
        decoder = NdjsonDecoder()
        out = decoder.feed(b'not json\n{"ok": 1}\n\xff\xfe\n')
        assert out == [{"ok": 1}]
        assert decoder.bad_lines == 2


def _env(source, kind, data, seq=0, worker=None):
    return make_envelope("toprun", seq, source, kind, data, worker=worker)


class TestTop:
    def test_aggregator_folds_the_stream(self):
        agg = TopAggregator()
        agg.ingest(_env("campaign", "run_start", {"n_injections": 100}))
        agg.ingest(_env("worker", "spawn", {"wid": 0, "pid": 42}))
        agg.ingest(_env("worker", "spawn", {"wid": 1, "pid": 43}))
        agg.ingest(_env("campaign", "chunk",
                        {"layer": 2, "injections": 10, "corruptions": 1}))
        agg.ingest(_env("heartbeat", "tick",
                        {"done": 50, "total": 100, "rate": 25.0}))
        agg.ingest(_env("sampler", "gauges",
                        {"done": 60, "total": 100, "inj_per_s": 30.0,
                         "eta_s": 1.5, "cache_hit_rate": 0.9,
                         "rss_kb": 4096,
                         "workers": [{"wid": 0, "pid": 42, "alive": True,
                                      "rss_kb": 2048}]}))
        agg.ingest(_env("worker", "died", {"wid": 1, "pid": 43}))
        agg.ingest(_env("campaign", "run_end", {"injections": 100}))
        agg.ingest({"schema": "bogus"})
        assert agg.run == "toprun"
        assert agg.done == 60 and agg.total == 100
        assert agg.finished and agg.skipped == 1
        assert agg.layer_injections[2] == 10
        board = render(agg)
        assert "60/100" in board
        assert "done" in board
        assert "DIED" in board
        assert "cache hit" in board

    def test_run_top_renders_a_flight_dump(self, tmp_path, capsys):
        bus = TelemetryBus(recorder=FlightRecorder())
        bus.publish("campaign", "run_start", {"n_injections": 10})
        bus.publish("heartbeat", "tick", {"done": 10, "total": 10})
        bus.publish("campaign", "run_aborted", {"reason": "interrupt"})
        dump = bus.dump_flight("interrupt", out_dir=tmp_path)
        assert run_top(str(dump)) == 0
        out = capsys.readouterr().out
        assert "ABORTED (interrupt)" in out
        assert "flight dump:" in out
        assert "10/10" in out

    def test_run_top_rejects_a_non_dump_file(self, tmp_path, capsys):
        bogus = tmp_path / "x.json"
        bogus.write_text(json.dumps({"schema": "nope"}))
        assert run_top(str(bogus)) == 2
        assert "not a flight-recorder dump" in capsys.readouterr().err

    def test_run_top_follows_a_live_server(self, tmp_path, capsys):
        bus = TelemetryBus()
        with TelemetryServer(bus, tmp_path / "live.sock"):
            import threading

            def feed():
                time.sleep(0.2)
                bus.publish("campaign", "run_start", {"n_injections": 4})
                bus.publish("heartbeat", "tick", {"done": 4, "total": 4})
                bus.publish("campaign", "run_end", {"injections": 4})

            feeder = threading.Thread(target=feed)
            feeder.start()
            code = run_top(str(tmp_path / "live.sock"), max_events=3,
                           connect_timeout=5.0)
            feeder.join()
        assert code == 0
        assert "4/4" in capsys.readouterr().out


# ---------------------------------------------------------------------- #
# One snapshot: every gauge reader shows the folded counters
# ---------------------------------------------------------------------- #

@functools.lru_cache(maxsize=None)
def _gauged_run(workers):
    """A resnet18 smoke campaign of 96 injections with every reader attached.

    Returns the campaign's perf counters, the heartbeat's last line, and
    every envelope the run's bus carried.
    """
    net = models.get_model("resnet18", "cifar10", scale="smoke", rng=0)
    net.eval()
    dataset = SelfLabelledDataset(
        net, SyntheticClassification(num_classes=10, image_size=32, seed=5))
    campaign = InjectionCampaign(net, dataset, error_model=SingleBitFlip(),
                                 batch_size=16, pool_size=32, rng=7)
    bus = TelemetryBus()
    sub = bus.subscribe(maxlen=100_000)
    out = _Lines()
    heartbeat = CampaignHeartbeat(campaign, interval_s=60.0, stream=out)
    sampler = TelemetrySampler(bus, interval_s=60.0).start()
    campaign.run(96, workers=workers, progress=heartbeat, telemetry=bus)
    sampler.stop()
    return campaign.perf, "".join(out.lines).splitlines()[-1], sub.drain()


def _last(events, source, kind):
    return [e["data"] for e in events
            if (e["source"], e["kind"]) == (source, kind)][-1]


class TestOneGaugeSnapshot:
    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=needs_fork)])
    def test_every_reader_agrees_with_the_folded_counters(self, workers):
        perf, line, events = _gauged_run(workers)
        assert perf.cache_hits + perf.cache_misses > 0 and perf.forwards > 0
        expected = {
            "done": 96,
            "cache_hit_rate": perf.cache_hit_rate,
            "lane_occupancy": perf.mean_lane_occupancy,
            "forwards_saved": perf.forwards_saved,
        }
        for source, kind in (("heartbeat", "tick"), ("campaign", "progress"),
                             ("sampler", "gauges")):
            data = _last(events, source, kind)
            assert {k: data[k] for k in expected} == expected, (source, kind)
            assert data["total"] == 96 and data["inj_per_s"] > 0
        assert line.startswith("[campaign] 96/96 injections")
        assert f"cache hit {perf.cache_hit_rate:.0%}" in line
        assert (f"lanes {perf.mean_lane_occupancy:.2f} "
                f"({perf.forwards_saved} forwards saved)") in line

    @needs_fork
    def test_top_shows_the_folded_gauges(self):
        perf, _, events = _gauged_run(2)
        agg = TopAggregator()
        for env in events:
            agg.ingest(env)
        assert agg.done == 96
        assert agg.cache_hit_rate == perf.cache_hit_rate
        # Ticks and sampler gauges replay the fold's snapshots, so top sees
        # one rate definition whichever envelope arrived last.
        folded = [e["data"]["inj_per_s"] for e in events
                  if (e["source"], e["kind"]) == ("campaign", "progress")]
        tick = _last(events, "heartbeat", "tick")
        gauges = _last(events, "sampler", "gauges")
        assert tick["inj_per_s"] == gauges["inj_per_s"] == folded[-1]
        assert agg.inj_per_s == folded[-1]
        sampled = [e["data"]["inj_per_s"] for e in events
                   if e["source"] == "sampler"
                   and e["data"]["inj_per_s"] is not None]
        assert set(sampled) <= set(folded)


# ---------------------------------------------------------------------- #
# Flight dumps on chaos (extends the test_recovery pattern)
# ---------------------------------------------------------------------- #

@needs_fork
class TestFlightDumpOnChaos:
    def test_fleet_exhaustion_dumps_the_flight_recorder(self,
                                                        trained_tiny_model,
                                                        tmp_path):
        model, dataset, _ = trained_tiny_model
        campaign = _campaign(model, dataset)
        orig = type(campaign)._execute_chunk
        parent = os.getpid()

        def always_dies(self, layer_idx, positions, *args, **kwargs):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return orig(self, layer_idx, positions, *args, **kwargs)

        campaign._execute_chunk = always_dies.__get__(campaign)
        bus = TelemetryBus(recorder=FlightRecorder())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(RuntimeError, match="fleet exhausted"):
                campaign.run(48, workers=2, telemetry=bus,
                             recovery={"max_respawns": 1,
                                       "respawn_backoff_s": 0.01},
                             journal=tmp_path / "j.jsonl")
        dumps = sorted(tmp_path.glob("flight_*.json"))
        assert len(dumps) == 1, [d.name for d in dumps]
        payload = load_flight_dump(dumps[0])
        assert payload["reason"] == "fleet_exhausted"
        assert payload["schema"] == FLIGHT_SCHEMA
        kinds = {(e["source"], e["kind"]) for e in payload["events"]}
        assert ("worker", "died") in kinds
        assert ("recovery", "fleet_exhausted") in kinds

    def test_sigkilled_worker_run_streams_and_still_matches_serial(
            self, trained_tiny_model, tmp_path):
        from tests.test_recovery import _kill_once_in_worker

        model, dataset, _ = trained_tiny_model
        base = _campaign(model, dataset)
        base_result = base.run(48)

        campaign = _campaign(model, dataset)
        _kill_once_in_worker(campaign, tmp_path, os.getpid())
        bus = TelemetryBus(recorder=FlightRecorder())
        sub = bus.subscribe(maxlen=100_000)
        with pytest.warns(RuntimeWarning, match="died"):
            result = campaign.run(48, workers=2, telemetry=bus,
                                  journal=tmp_path / "j.jsonl")
        # Science first: the disturbed streamed run matches clean serial.
        assert result.corruptions == base_result.corruptions
        assert np.array_equal(result.per_layer_corruptions,
                              base_result.per_layer_corruptions)
        events = sub.drain()
        kinds = {(e["source"], e["kind"]) for e in events}
        assert ("worker", "died") in kinds
        assert campaign.perf.as_dict()["worker_failures"] >= 1
        # The run recovered, so no flight dump was triggered.
        assert list(tmp_path.glob("flight_*.json")) == []


# ---------------------------------------------------------------------- #
# CLI wiring
# ---------------------------------------------------------------------- #

class TestCli:
    def test_inject_json_gains_a_telemetry_block(self, tmp_path, capsys):
        code = main(["inject", "alexnet", "--scale", "smoke", "--campaign",
                     "24", "--batch-size", "8", "--json",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        block = record["telemetry"]
        assert set(block) == {"events_published", "events_dropped",
                              "clients_served", "recorder_dump"}
        assert block["events_published"] > 0
        assert block["events_dropped"] == 0
        assert block["clients_served"] == 0
        assert block["recorder_dump"] is None

    def test_inject_stream_serves_ndjson(self, tmp_path, capsys):
        sock_path = tmp_path / "t.sock"
        import threading

        collected = {}

        def reader():
            deadline = time.monotonic() + 15.0
            while time.monotonic() < deadline:
                try:
                    client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                    client.connect(str(sock_path))
                    break
                except OSError:
                    time.sleep(0.02)
            else:
                collected["events"] = []
                return
            events, _ = _read_stream(client, deadline_s=60.0)
            client.close()
            collected["events"] = events

        thread = threading.Thread(target=reader)
        thread.start()
        code = main(["inject", "alexnet", "--scale", "smoke", "--campaign",
                     "24", "--batch-size", "8", "--json",
                     "--stream", str(sock_path), "--out-dir", str(tmp_path)])
        thread.join()
        assert code == 0
        record = json.loads(capsys.readouterr().out)
        assert record["telemetry"]["clients_served"] == 1
        events = collected["events"]
        assert events, "reader saw no envelopes"
        assert all(e["schema"] == ENVELOPE_SCHEMA for e in events)
        sources = {e["source"] for e in events}
        assert "campaign" in sources and "heartbeat" in sources

    def test_inject_observe_requires_campaign(self, capsys):
        assert main(["inject", "alexnet", "--observe", "x.jsonl"]) == 2
        assert "requires --campaign" in capsys.readouterr().err

    def test_inject_stream_requires_campaign(self, capsys):
        assert main(["inject", "alexnet", "--stream", "x.sock"]) == 2
        assert "requires --campaign" in capsys.readouterr().err

    def test_profile_metrics_out_writes_prometheus_text(self, tmp_path, capsys):
        metrics = tmp_path / "m.prom"
        code = main(["profile", "--model", "alexnet", "--scale", "smoke",
                     "--campaign", "16", "--batch-size", "8",
                     "--out-dir", str(tmp_path), "--metrics-out", str(metrics)])
        assert code == 0
        text = metrics.read_text()
        assert "# TYPE campaign_injections counter" in text
        assert "campaign_injections 16" in text
        assert 'campaign_chunk_seconds_bucket{le="+Inf"}' in text
        # Rendered counts agree with the registry snapshot round-trip.
        count_line = [l for l in text.splitlines()
                      if l.startswith("campaign_chunk_seconds_count ")]
        assert count_line, text

    def test_profile_metrics_out_needs_runtime_profile(self, capsys):
        assert main(["profile", "alexnet", "--metrics-out", "m.prom"]) == 2
        assert "runtime profile" in capsys.readouterr().err
