"""The HTTP front end: ingest, health, stats, backpressure, shutdown."""

from __future__ import annotations

import asyncio
import json

from repro.devices import BatchExecution, Device
from repro.live import LiveGateway, LiveServer, http_json, stream_trace
from repro.serving import FixedSizeBatcher


class FakeDevice(Device):
    name = "fake"
    backend = "fake"

    def __init__(self, latency=0.02, **kwargs):
        self.latency = latency
        super().__init__(**kwargs)

    def execute(self, lengths):
        return BatchExecution(
            device=self.name,
            lengths=list(lengths),
            latency_seconds=self.latency,
            completion_offsets=[self.latency] * len(lengths),
            admit_seconds=self.latency,
        )


async def _raw_post(host, port, path, content_length, body) -> tuple[int, dict]:
    """POST ``body`` with a verbatim Content-Length header (which may be bad)."""
    reader, writer = await asyncio.open_connection(host, port)
    head = f"POST {path} HTTP/1.1\r\nContent-Length: {content_length}\r\n\r\n"
    writer.write(head.encode("latin-1") + body)
    await writer.drain()
    raw = await reader.read()
    writer.close()
    await writer.wait_closed()
    status_line, _, rest = raw.partition(b"\r\n")
    _, _, response_body = rest.partition(b"\r\n\r\n")
    return int(status_line.split(b" ", 2)[1]), json.loads(response_body)


async def _server(**gateway_kwargs) -> LiveServer:
    gateway_kwargs.setdefault("batch_policy", FixedSizeBatcher(batch_size=2))
    latency = gateway_kwargs.pop("latency", 0.02)
    gateway = LiveGateway([FakeDevice(latency=latency)], "mrpc", **gateway_kwargs)
    server = LiveServer(gateway, host="127.0.0.1", port=0)
    await server.start()
    return server


class TestEndpoints:
    def test_healthz_stats_and_waited_request(self):
        # batch_size=2 holds a lone request until the batch fills, so drive
        # two concurrent waited requests: both unblock when the batch runs.
        async def scenario():
            server = await _server()
            host, port = server.host, server.port
            status, health = await http_json(host, port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            assert health["devices"] == 1

            results = await asyncio.gather(
                http_json(host, port, "POST", "/v1/requests", {"length": 48, "wait": True}),
                http_json(host, port, "POST", "/v1/requests", {"length": 48, "wait": True}),
            )
            for status, payload in results:
                assert status == 200
                assert payload["status"] == "completed"
                assert payload["latency_ms"] > 0
            status, stats = await http_json(host, port, "GET", "/stats")
            assert status == 200
            assert stats["num_completed"] == 2
            assert stats["live"]["queue_depth"] == 0
            status, final = await http_json(host, port, "POST", "/shutdown")
            assert status == 200
            assert final["num_completed"] == 2
            assert final["live"]["stopped"] is True
            await server.serve_until_shutdown()

        asyncio.run(scenario())

    def test_streaming_ingest(self):
        async def scenario():
            server = await _server(batch_policy=FixedSizeBatcher(batch_size=4))
            host, port = server.host, server.port
            entries = [{"length": 32} for _ in range(8)]
            summary = await stream_trace(host, port, entries)
            assert summary == {"submitted": 8, "queued": 8, "shed": 0, "draining": 0}
            status, final = await http_json(host, port, "POST", "/shutdown")
            assert final["num_completed"] == 8
            await server.serve_until_shutdown()

        asyncio.run(scenario())

    def test_backpressure_returns_429(self):
        async def scenario():
            server = await _server(
                batch_policy=FixedSizeBatcher(batch_size=16),
                max_queue_depth=2,
                latency=0.2,
            )
            host, port = server.host, server.port
            statuses = []
            for _ in range(6):
                status, payload = await http_json(
                    host, port, "POST", "/v1/requests", {"length": 32}
                )
                statuses.append((status, payload["status"]))
            await http_json(host, port, "POST", "/shutdown")
            await server.serve_until_shutdown()
            return statuses

        statuses = asyncio.run(scenario())
        assert statuses.count((200, "queued")) == 2
        assert statuses.count((429, "shed")) == 4

    def test_draining_returns_503_and_errors_are_4xx(self):
        async def scenario():
            server = await _server()
            host, port = server.host, server.port
            status, _ = await http_json(host, port, "GET", "/nope")
            assert status == 404
            status, _ = await http_json(host, port, "DELETE", "/stats")
            assert status == 405
            status, payload = await http_json(host, port, "POST", "/v1/requests", {})
            assert status == 400 and "length" in payload["error"]
            for body in (
                {"length": "not-a-number"},
                {"length": 8, "output_len": "x"},
                {"length": 8, "output_len": None},
                {"length": 8, "output_len": 0},
                {"length": 8, "slo_ms": "fast"},
            ):
                status, payload = await http_json(host, port, "POST", "/v1/requests", body)
                assert status == 400 and "error" in payload, body
            summary = await stream_trace(host, port, [{"length": 8, "output_len": "x"}])
            assert "output_len" in summary["error"]
            for content_length in ("abc", "-5"):
                status, payload = await _raw_post(
                    host, port, "/v1/requests", content_length, b'{"length": 8}'
                )
                assert status == 400 and "Content-Length" in payload["error"]

            shutdown = asyncio.create_task(http_json(host, port, "POST", "/shutdown"))
            await asyncio.sleep(0.01)
            status, payload = await http_json(
                host, port, "POST", "/v1/requests", {"length": 32}
            )
            assert (status, payload["status"]) == (503, "draining")
            status, health = await http_json(host, port, "GET", "/healthz")
            assert (status, health["status"]) == (200, "draining")
            await shutdown
            await server.serve_until_shutdown()

        asyncio.run(scenario())
