"""Stdlib JSON endpoint: one handler for every serving mode.

No framework, no new dependencies: ``http.server.ThreadingHTTPServer``
gives one handler thread per connection.  The handler talks to a
doc-level backend — :class:`EngineBackend` over an in-process engine,
or a :class:`repro.cluster.ClusterRouter` for ``--workers N`` — which
provides the real concurrency discipline (worker pool + admission
control, or sharding + cluster-wide coalescing).  Routes:

``POST /layout``
    Body ``{"graph": "barth", "scale": "tiny", "algorithm": "parhde",
    "s": 8, "seed": 0, "params": {...}, "lod": "auto",
    "include_coords": true}``.  Only ``graph`` is required.  Answers
    with serving metadata (fingerprint, cache status, quality tier,
    elapsed seconds) and, unless ``include_coords`` is false, the
    ``n x d`` coordinate list.  ``lod`` selects progressive serving
    (engines wrapped in :class:`repro.lod.ProgressiveEngine`):
    ``"off"``, ``"auto"`` (coarsest-first) or a first-paint budget in
    milliseconds; see docs/lod.md.
``GET /layout``
    Same request via query string (``?graph=barth&scale=tiny&lod=auto``,
    plus ``seed``/``algorithm``/``s``/``timeout``/``include_coords``) —
    the polling form: a client that got a coarse ``quality_tier``
    re-issues the GET until the tier reaches ``"full"``.
``POST /update``
    Body ``{"graph": "barth", "scale": "tiny", "seed": 0,
    "inserts": [[u, v], [u, v, w], ...], "deletes": [[u, v], ...]}``.
    Applies an edge delta to the named graph and bumps its epoch, so
    every cached layout of the pre-update graph misses from then on.
    Answers with the new epoch and the effective edit counts.
``GET /healthz``
    Liveness probe; ``{"status": "ok", "workers": 1}`` while serving,
    ``{"status": "draining", "workers": 1}`` (503) once graceful
    shutdown began (load balancers should stop routing here).
    ``workers`` is the number of healthy serving processes — always 1
    in process, the live worker count behind a cluster router — so
    probes parse one schema in both modes.
``GET /stats``
    The backend's snapshot as JSON (telemetry + cache + pool in
    process; router / ring / workers / aggregate sections in cluster
    mode), or an aligned plain-text page with ``?format=text``.

Errors come back as ``{"error": <code>, "message": <detail>}`` with the
status mapped by :func:`error_response` from the
:class:`~repro.service.engine.ServiceError` hierarchy (400 bad request,
404 unknown route, 503 overloaded, 504 timeout).  Internal failures
(unexpected exceptions and bare ``ServiceError`` wrappers around
compute crashes) never echo exception text to the client: the body
carries only a generated error id, and the detail goes to the
``repro.service.http`` logger server-side.
"""

from __future__ import annotations

import json
import logging
import math
import threading
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .engine import (
    BadRequest,
    LayoutEngine,
    LayoutRequest,
    ServiceError,
    UpdateRequest,
)

__all__ = [
    "EngineBackend",
    "LayoutServer",
    "error_response",
    "layout_doc_from_query",
    "layout_payload",
    "make_server",
    "parse_layout_doc",
    "parse_lod_value",
    "parse_update_doc",
    "update_payload",
]

_MAX_BODY = 8 * 1024 * 1024

logger = logging.getLogger("repro.service.http")


def parse_layout_doc(doc: dict) -> tuple[LayoutRequest, bool]:
    """Build a :class:`LayoutRequest` from a ``POST /layout`` body.

    Shared by the HTTP handler and the cluster worker protocol
    (:mod:`repro.cluster.worker`), so both speak exactly the same
    request dialect.  Returns ``(request, include_coords)``.
    """
    graph = doc.get("graph")
    if not isinstance(graph, str) or not graph:
        raise BadRequest("'graph' (collection name) is required")
    params = doc.get("params") or {}
    if not isinstance(params, dict):
        raise BadRequest("'params' must be an object")
    try:
        request = LayoutRequest(
            graph=graph,
            scale=str(doc.get("scale", "small")),
            seed=int(doc.get("seed", 0)),
            algorithm=str(doc.get("algorithm", "parhde")),
            s=doc.get("s", 10),
            params=params,
            timeout=(
                float(doc["timeout"]) if doc.get("timeout") is not None
                else None
            ),
            lod=parse_lod_value(doc.get("lod")),
        )
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"bad request field: {exc}") from exc
    return request, bool(doc.get("include_coords", True))


def parse_lod_value(value) -> str | float | None:
    """Normalize a request's ``lod`` field.

    Accepts ``None`` (engine default), booleans (``true`` = ``"auto"``),
    the strings ``"off"``/``"auto"``, or a number / numeric string — a
    first-paint budget in milliseconds, which must be finite and > 0.
    """
    if value is None:
        return None
    if value is True:
        return "auto"
    if value is False:
        return "off"
    if isinstance(value, str):
        if value in ("off", "auto"):
            return value
        try:
            value = float(value)
        except ValueError:
            raise BadRequest(
                "'lod' must be 'off', 'auto' or a budget in milliseconds,"
                f" got {value!r}"
            ) from None
    if isinstance(value, (int, float)):
        budget = float(value)
        if not math.isfinite(budget) or budget <= 0:
            raise BadRequest(
                f"'lod' budget must be finite and > 0 ms, got {budget!r}"
            )
        return budget
    raise BadRequest(
        f"'lod' must be 'off', 'auto' or a budget in milliseconds,"
        f" got {value!r}"
    )


def layout_doc_from_query(query: str) -> dict:
    """Translate ``GET /layout`` query params into the POST body dialect.

    Scalar fields only (no nested ``params`` object — pass-through
    algorithm parameters need the POST form); unknown keys are rejected
    so typos fail loudly instead of silently using defaults.
    """
    known = {
        "graph", "scale", "seed", "algorithm", "s", "timeout", "lod",
        "include_coords",
    }
    doc: dict = {}
    for key, values in parse_qs(query, keep_blank_values=True).items():
        if key not in known:
            raise BadRequest(
                f"unknown query parameter {key!r}; allowed: {sorted(known)}"
            )
        doc[key] = values[-1]
    if "include_coords" in doc:
        doc["include_coords"] = doc["include_coords"].lower() not in (
            "0", "false", "no", "",
        )
    for key in ("seed", "s"):
        if key in doc:
            try:
                doc[key] = int(doc[key])
            except ValueError:
                raise BadRequest(
                    f"query parameter {key!r} must be an integer,"
                    f" got {doc[key]!r}"
                ) from None
    return doc


def parse_update_doc(doc: dict) -> UpdateRequest:
    """Build an :class:`UpdateRequest` from a ``POST /update`` body.

    Besides edge edits, the body may carry pin-state edits: ``pins`` is
    a ``{vertex: [x, y]}`` mapping (or ``[vertex, [x, y]]`` pair list)
    and ``unpins`` a list of vertex ids — a drag is just another delta.
    """
    graph = doc.get("graph")
    if not isinstance(graph, str) or not graph:
        raise BadRequest("'graph' (collection name) is required")
    for key in ("inserts", "deletes"):
        if key in doc and not isinstance(doc[key], list):
            raise BadRequest(f"'{key}' must be a list of [u, v] pairs")
    pins = doc.get("pins")
    if pins is not None and not isinstance(pins, (dict, list)):
        raise BadRequest(
            "'pins' must be a {vertex: coords} object or a list of"
            " [vertex, coords] pairs"
        )
    unpins = doc.get("unpins")
    if unpins is not None and not isinstance(unpins, list):
        raise BadRequest("'unpins' must be a list of vertex ids")
    try:
        return UpdateRequest(
            graph=graph,
            scale=str(doc.get("scale", "small")),
            seed=int(doc.get("seed", 0)),
            inserts=tuple(doc.get("inserts") or ()),
            deletes=tuple(doc.get("deletes") or ()),
            pins=pins if pins is not None else (),
            unpins=tuple(unpins or ()),
        )
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"bad update field: {exc}") from exc


def layout_payload(response, include_coords: bool) -> dict:
    """JSON-safe body for a served layout (HTTP and cluster protocol)."""
    payload = {
        "fingerprint": response.fingerprint,
        "status": response.status,
        "cache_hit": response.cache_hit,
        "graph": response.graph_name,
        "n": response.n,
        "m": response.m,
        "algorithm": response.result.algorithm,
        "quality_tier": response.quality_tier,
        "elapsed_seconds": response.elapsed,
    }
    if include_coords:
        payload["coords"] = [
            [float(x) for x in row] for row in response.result.coords
        ]
    return payload


def update_payload(response) -> dict:
    """JSON-safe body for an applied graph update."""
    return {
        "graph": response.graph_name,
        "epoch": response.epoch,
        "n": response.n,
        "m": response.m,
        "inserted": response.inserted,
        "deleted": response.deleted,
        "skipped": response.skipped,
        "overlay_fraction": response.overlay_fraction,
        "compacted": response.compacted,
        "elapsed_seconds": response.elapsed,
        "pinned": response.pinned,
        "unpinned": response.unpinned,
    }


class _NotFound(ServiceError):
    code = "not_found"
    http_status = 404


def error_response(
    exc: BaseException, telemetry, context: str
) -> tuple[int, dict]:
    """Map an exception to the wire contract's ``(status, body)``.

    Typed :class:`ServiceError` subclasses keep their code and status,
    ``TypeError``/``ValueError`` are malformed input (400).  Anything
    else — including a bare ``ServiceError``, the engine's wrapper
    around a compute crash whose text may carry internals — is logged
    with its traceback and answered with an opaque error id only; the
    ``http.internal_errors`` counter lets dashboards watch the rate.
    Shared by the HTTP handler and the cluster worker protocol.
    """
    if isinstance(exc, ServiceError) and type(exc) is not ServiceError:
        return exc.http_status, {"error": exc.code, "message": str(exc)}
    if isinstance(exc, (TypeError, ValueError)):
        return 400, {"error": "bad_request", "message": str(exc)}
    error_id = uuid.uuid4().hex[:12]
    logger.error(
        "internal error %s handling %s: %s", error_id, context, exc,
        exc_info=exc,
    )
    telemetry.inc("http.internal_errors")
    return 500, {
        "error": "internal",
        "message": f"internal server error (id {error_id})",
        "error_id": error_id,
    }


class EngineBackend:
    """Doc-level serving API over a :class:`LayoutEngine`.

    Works for any engine with the ``submit`` / ``update`` / ``stats`` /
    ``drain`` interface (a :class:`repro.lod.ProgressiveEngine` too) and
    exposes the same methods as :class:`repro.cluster.ClusterRouter`,
    so one HTTP handler serves both modes and the cluster worker answers
    its ``layout``/``update`` ops through this class as well.
    """

    def __init__(self, engine: LayoutEngine):
        self.engine = engine

    @property
    def telemetry(self):
        return self.engine.telemetry

    def layout(self, doc: dict) -> dict:
        request, include_coords = parse_layout_doc(doc)
        return layout_payload(self.engine.submit(request), include_coords)

    def update(self, doc: dict) -> dict:
        return update_payload(self.engine.update(parse_update_doc(doc)))

    def stats(self) -> dict:
        return self.engine.stats()

    def stats_text(self) -> str:
        stats = self.engine.stats()
        return self.telemetry.render_text(
            {"cache": stats["cache"], "pool": stats["pool"]}
        )

    def healthz(self) -> dict:
        # "workers" counts healthy serving processes (always 1 here, the
        # live worker count behind a router), so probes parse one schema.
        status = "draining" if self.engine.draining else "ok"
        return {"status": status, "workers": 1}

    def drain(self, timeout: float = 10.0) -> bool:
        return self.engine.drain(timeout)


def _json_doc(body: "bytes | BadRequest") -> dict:
    if isinstance(body, BadRequest):
        raise body
    if not body:
        raise BadRequest("missing request body")
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as exc:
        raise BadRequest(f"invalid JSON body: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadRequest("request body must be a JSON object")
    return doc


class _Handler(BaseHTTPRequestHandler):
    server_version = "parhde-serve/1"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch()

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch()

    def _dispatch(self) -> None:
        backend = self.server.backend  # type: ignore[attr-defined]
        body = self._read_body()
        try:
            status, payload = self._route(backend, body)
        except Exception as exc:  # noqa: BLE001 — mapped to the contract
            status, payload = error_response(
                exc, backend.telemetry, f"{self.command} {self.path}"
            )
        self._send(status, payload)

    def _route(self, backend, body) -> tuple[int, "dict | str"]:
        url = urlparse(self.path)
        route = (self.command, url.path)
        if route == ("GET", "/healthz"):
            health = backend.healthz()
            return (200 if health["status"] == "ok" else 503), health
        if route == ("GET", "/stats"):
            fmt = parse_qs(url.query).get("format", ["json"])[0]
            if fmt == "text":
                return 200, backend.stats_text() + "\n"
            return 200, backend.stats()
        if route == ("GET", "/layout"):
            return 200, backend.layout(layout_doc_from_query(url.query))
        if route == ("POST", "/layout"):
            return 200, backend.layout(_json_doc(body))
        if route == ("POST", "/update"):
            return 200, backend.update(_json_doc(body))
        raise _NotFound(f"no route {url.path}")

    def _read_body(self) -> "bytes | BadRequest":
        """Consume the request body before routing, on every route.

        Reading it keeps a keep-alive connection framed: the next
        request starts on a request line.  A body that cannot be
        skipped — a malformed or over-limit Content-Length — closes the
        connection after the response instead, and comes back as the
        error a body-reading route raises.
        """
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if 0 <= length <= _MAX_BODY:
            return self.rfile.read(length)
        self.close_connection = True
        if length < 0:
            return BadRequest(f"malformed Content-Length {raw!r}")
        return BadRequest(f"request body exceeds {_MAX_BODY} bytes")

    def _send(self, status: int, payload) -> None:
        text = isinstance(payload, str)
        body = payload.encode() if text else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header(
            "Content-Type",
            "text/plain; charset=utf-8" if text else "application/json",
        )
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)


class LayoutServer:
    """A :class:`ThreadingHTTPServer` bound to a serving backend.

    The backend is an engine (wrapped in :class:`EngineBackend`) or a
    :class:`repro.cluster.ClusterRouter`; both speak the same wire
    contract through one handler.  ``start()`` runs the accept loop in a
    daemon thread (tests, smoke scripts); ``serve_forever()`` blocks
    (the CLI).  Construct with ``port=0`` to bind an ephemeral port and
    read it back from :attr:`address`.
    """

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        verbose: bool = False,
    ):
        if hasattr(backend, "submit"):
            backend = EngineBackend(backend)
        self.backend = backend
        self._httpd = ThreadingHTTPServer((host, port), _Handler)
        self._httpd.backend = backend  # type: ignore[attr-defined]
        self._httpd.verbose = verbose  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """Actual ``(host, port)`` after binding."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "LayoutServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="parhde-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever()

    def drain(self, timeout: float = 10.0) -> bool:
        """Graceful shutdown, phase one: refuse new work, finish old.

        The backend refuses new layouts and updates with 503 and
        ``/healthz`` flips to ``draining`` (connections keep being
        accepted so those answers can be sent); in-flight work gets up
        to ``timeout`` seconds.  Returns ``True`` when it drained clean.
        Call :meth:`shutdown` afterwards to stop the accept loop.
        """
        return self.backend.drain(timeout)

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def __enter__(self) -> "LayoutServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()


def make_server(
    backend,
    host: str = "127.0.0.1",
    port: int = 8080,
    *,
    verbose: bool = False,
) -> LayoutServer:
    """Bind (but do not start) a :class:`LayoutServer` for an engine or
    a started :class:`repro.cluster.ClusterRouter`."""
    return LayoutServer(backend, host, port, verbose=verbose)
