"""The query/serving surface over a :class:`ShardedEngine`.

A deliberately thin stdlib HTTP layer (``http.server``): every endpoint
is one :class:`~repro.service.core.ShardedEngine` call plus JSON (or
Prometheus text) encoding.  No framework, no dependency — the point is
the *service contract*, not the web stack:

====================  =====================================================
``GET /locate?device=aa:bb:cc:dd:ee:ff``  newest fix for one device
``GET /snapshot``     newest fix per device, merged across the fleet
``GET /health``       per-shard liveness + lag (``503`` when degraded)
``GET /stats``        merged-registry :class:`~repro.engine.EngineStats`
``GET /metrics``      Prometheus text exposition of the merged registries
====================  =====================================================
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlparse

from repro.localization.base import LocalizationEstimate
from repro.net80211.mac import MacAddress
from repro.service.core import ServiceError, ShardedEngine


def estimate_to_dict(timestamp: float,
                     estimate: LocalizationEstimate) -> dict:
    """JSON-safe rendering of one fix (region collapsed to a summary)."""
    body = {
        "timestamp": timestamp,
        "x": estimate.position.x,
        "y": estimate.position.y,
        "algorithm": estimate.algorithm,
        "used_ap_count": estimate.used_ap_count,
        "region_empty": estimate.region_empty,
        "inflation_factor": estimate.inflation_factor,
    }
    if estimate.region is not None:
        body["region_area_m2"] = estimate.area_m2
    return body


class ServiceHandler(BaseHTTPRequestHandler):
    """Dispatches the five endpoints against ``server.engine``."""

    server_version = "marauder-serve/1.0"
    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):  # noqa: A002 - stdlib name
        pass  # quiet by default; metrics carry the signal

    # ------------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        engine: ShardedEngine = self.server.engine
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/locate":
                self._locate(engine, parsed.query)
            elif parsed.path == "/snapshot":
                self._snapshot(engine)
            elif parsed.path == "/health":
                self._health(engine)
            elif parsed.path == "/stats":
                self._json(200, asdict(engine.stats()))
            elif parsed.path == "/metrics":
                self._text(200, engine.render_prometheus(),
                           content_type="text/plain; version=0.0.4")
            else:
                self._json(404, {"error": f"no route {parsed.path}"})
        except ServiceError as error:
            self._json(503, {"error": str(error)})

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        """Admin verbs: graceful drain, and (opt-in) chaos kills."""
        engine: ShardedEngine = self.server.engine
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/drain":
                stats = engine.drain()
                self._json(200, {"drained": True,
                                 "stats": asdict(stats)})
            elif parsed.path == "/chaos/kill":
                if not getattr(self.server, "allow_chaos", False):
                    self._json(403, {"error": "chaos endpoints disabled "
                                              "(start with --chaos)"})
                    return
                shards = parse_qs(parsed.query).get("shard")
                if not shards:
                    self._json(400, {"error": "missing ?shard= parameter"})
                    return
                index = int(shards[0])
                if not 0 <= index < engine.shards:
                    self._json(400, {"error": f"shard {index} out of "
                                              f"range 0..{engine.shards - 1}"})
                    return
                engine.kill_shard(index)
                self._json(200, {"killed": index})
            elif parsed.path == "/chaos/kill-connection":
                if not getattr(self.server, "allow_chaos", False):
                    self._json(403, {"error": "chaos endpoints disabled "
                                              "(start with --chaos)"})
                    return
                shards = parse_qs(parsed.query).get("shard")
                if not shards:
                    self._json(400, {"error": "missing ?shard= parameter"})
                    return
                index = int(shards[0])
                if not 0 <= index < engine.shards:
                    self._json(400, {"error": f"shard {index} out of "
                                              f"range 0..{engine.shards - 1}"})
                    return
                # Severs the shard's TCP connection without touching
                # the worker: the reconnect machinery, not the restart
                # path, must make this invisible.
                self._json(200, {"shard": index,
                                 "killed": engine.kill_connection(index)})
            else:
                self._json(404, {"error": f"no route {parsed.path}"})
        except ServiceError as error:
            self._json(503, {"error": str(error)})

    # ------------------------------------------------------------------

    def _locate(self, engine: ShardedEngine, query: str) -> None:
        devices = parse_qs(query).get("device")
        if not devices:
            self._json(400, {"error": "missing ?device= parameter"})
            return
        try:
            mobile = MacAddress.parse(devices[0])
        except ValueError as error:
            self._json(400, {"error": str(error)})
            return
        fix = engine.locate(mobile)
        if fix is None:
            self._json(404, {"device": str(mobile), "located": False})
            return
        timestamp, estimate = fix
        self._json(200, {"device": str(mobile), "located": True,
                         "fix": estimate_to_dict(timestamp, estimate)})

    def _snapshot(self, engine: ShardedEngine) -> None:
        fixes = engine.snapshot()
        self._json(200, {
            "devices": len(fixes),
            "fixes": {str(mobile): estimate_to_dict(ts, estimate)
                      for mobile, (ts, estimate) in sorted(
                          fixes.items(), key=lambda item: str(item[0]))},
        })

    def _health(self, engine: ShardedEngine) -> None:
        report = engine.health()
        self._json(200 if report["healthy"] else 503, report)

    # ------------------------------------------------------------------

    def _json(self, status: int, body: dict) -> None:
        self._text(status, json.dumps(body, indent=2) + "\n",
                   content_type="application/json")

    def _text(self, status: int, body: str,
              content_type: str = "text/plain") -> None:
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)


class ServiceServer:
    """Owns the HTTP listener thread for a :class:`ShardedEngine`.

    ``ThreadingHTTPServer`` handles each request on its own thread; the
    engine serializes per-shard traffic internally, so concurrent
    queries are safe.
    """

    def __init__(self, engine: ShardedEngine, host: str = "127.0.0.1",
                 port: int = 0, allow_chaos: bool = False):
        self.engine = engine
        self._httpd = ThreadingHTTPServer((host, port), ServiceHandler)
        self._httpd.engine = engine
        self._httpd.allow_chaos = allow_chaos
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — port resolved when 0 was asked."""
        return self._httpd.server_address[:2]

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop accepting, finish in-flight requests, release the port."""
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()
