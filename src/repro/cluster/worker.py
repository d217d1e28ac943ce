"""The cluster worker: one process, one engine, one socket listener.

Each worker is a full single-process serving stack — its own
:class:`~repro.service.engine.LayoutEngine` with a shared-nothing
:class:`~repro.service.cache.LayoutCache` — behind a length-prefixed
JSON protocol (:mod:`repro.cluster.protocol`) on a loopback TCP socket.
Shared-nothing is the point: workers never coordinate through shared
memory, so the GIL stops being a cluster-wide lock and a worker crash
cannot corrupt a sibling.  Graph mutation state is *worker-local*;
without a WAL a worker death loses its applied deltas — together with
the cache entries keyed by their epochs, so coherence holds (the
restarted worker serves the pristine collection graph at epoch 0 and
nothing stale can be served).  With ``wal_dir`` set, each worker
journals its mutations to its own :mod:`repro.wal` directory and
**replays them before reporting ready** — the respawned process rejoins
the ring already at the post-update epochs (see ``docs/wal.md``).

Workers are started with the ``spawn`` multiprocessing context: the
router process is multi-threaded (HTTP handlers, heartbeat monitor),
and forking a threaded parent can deadlock the child on locks held by
unforked threads.  ``spawn`` costs ~1 s of interpreter+numpy startup per
worker, paid once per worker lifetime.

Protocol operations (request ``{"op": ...}`` -> response
``{"ok": true, ...}`` or the structured error envelope):

``ping``
    Liveness heartbeat; echoes pid, inflight count and draining flag.
``layout`` / ``update``
    The serving API, same body dialect as ``POST /layout`` /
    ``POST /update``, answered by the same
    :class:`repro.service.http.EngineBackend` the in-process HTTP
    handler uses.
``stats``
    The engine's ``stats()`` snapshot plus worker identity.
``drain``
    Engine drain: refuse new work, wait out in-flight computations.
``chaos``
    Arm a :mod:`repro.resilience.chaos` failpoint *inside this worker
    process* (tests and the chaos smoke harness cannot reach the
    worker's globals from the router process).  ``exit_code`` arms a
    failpoint whose firing kills the process — the "worker dies
    mid-request" scenario.
``shutdown``
    Acknowledge, then exit the process.
"""

from __future__ import annotations

import contextlib
import os
import signal
import socket
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection

from ..resilience import chaos
from ..service import LayoutCache, LayoutEngine
from ..service.http import EngineBackend, error_response
from .protocol import ProtocolError, recv_msg, send_msg

__all__ = ["WorkerConfig", "worker_main"]


@dataclass(frozen=True)
class WorkerConfig:
    """Picklable recipe for building one worker's engine.

    Everything the child process needs travels in here (the ``spawn``
    context cannot inherit live objects).  ``cache_dir`` is the
    *worker's own* directory — the router derives per-worker subdirs so
    disk tiers stay shared-nothing too.
    """

    worker_id: int = 0
    compute_threads: int = 2
    queue_limit: int = 8
    timeout: float = 60.0
    cache_mb: float = 64.0
    cache_dir: str | None = None
    resilience: bool = False
    validation: str | None = None
    host: str = "127.0.0.1"
    #: Per-worker write-ahead-log directory (``None`` = volatile).  Like
    #: ``cache_dir`` this is the worker's *own* subdir and only this
    #: worker replays it: a respawn restores the post-update epochs
    #: because the ring routes the keys back to this worker.  Updates a
    #: ring successor acknowledged during the outage are in the
    #: successor's journal, not this one.
    wal_dir: str | None = None
    wal_fsync: str = "batch"
    #: Default progressive-LOD mode (``None``/``"off"``/``"auto"``/budget
    #: ms as a float) — the engine is always wrapped in a
    #: :class:`repro.lod.ProgressiveEngine` so per-request ``lod``
    #: works; this sets the default for requests that don't specify it.
    lod: str | float | None = None
    #: LodConfig knob overrides as a sorted ``((key, value), ...)`` tuple
    #: (must stay hashable for this frozen dataclass to pickle cheaply).
    lod_opts: tuple = field(default_factory=tuple)
    #: Failpoints to arm at startup: ``[{"site": ..., "sleep": ...}]``.
    chaos_sites: tuple = field(default_factory=tuple)


def _build_engine(config: WorkerConfig):
    from ..lod import LodConfig, ProgressiveEngine

    cache = LayoutCache(
        max_bytes=int(config.cache_mb * 1024 * 1024),
        disk_dir=config.cache_dir,
    )
    engine = LayoutEngine(
        cache=cache,
        workers=config.compute_threads,
        queue_limit=config.queue_limit,
        timeout=config.timeout,
        resilience=True if config.resilience else None,
        validation=config.validation,
        wal_dir=config.wal_dir,
        wal_fsync=config.wal_fsync,
    )
    # Always wrap: the wrapper is pass-through when neither the worker
    # default nor the request asks for LOD, and wrapping unconditionally
    # means a request-level "lod": "auto" works on any cluster.
    opts = dict(config.lod_opts)
    return ProgressiveEngine(
        engine,
        lod=config.lod,
        config=LodConfig(**opts) if opts else None,
    )


class _WorkerServer:
    """Accept loop + per-connection request threads inside the worker."""

    def __init__(self, config: WorkerConfig):
        self.config = config
        self.engine = _build_engine(config)
        self.backend = EngineBackend(self.engine)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((config.host, 0))
        self._listener.listen(64)
        self._stop = threading.Event()
        # Keeps chaos arming alive for the worker's lifetime; ops can
        # arm more sites later (tests drive fault scenarios remotely).
        self._chaos_stack = contextlib.ExitStack()
        for spec in config.chaos_sites:
            self._arm_chaos(dict(spec))

    @property
    def port(self) -> int:
        return self._listener.getsockname()[1]

    def _arm_chaos(self, spec: dict) -> None:
        site = spec.pop("site")
        exit_code = spec.pop("exit_code", None)
        if exit_code is not None:
            # A failpoint that kills the process mid-request: the chaos
            # harness's way of simulating a worker crash at a precise
            # moment (os._exit skips atexit — a real SIGKILL-like death).
            spec["callback"] = lambda code=int(exit_code): os._exit(code)
        self._chaos_stack.enter_context(chaos.inject(site, **spec))

    # -- operations --------------------------------------------------------
    def _handle(self, req: dict) -> dict:
        op = req.get("op")
        if op == "ping":
            return {
                "ok": True,
                "pid": os.getpid(),
                "worker_id": self.config.worker_id,
                "inflight": self.engine.inflight,
                "draining": self.engine.draining,
            }
        if op in ("layout", "update"):
            chaos.failpoint("cluster.worker.request")
            backend = self.backend
            serve = backend.layout if op == "layout" else backend.update
            return {"ok": True, **serve(req.get("body") or {})}
        if op == "stats":
            snap = self.backend.stats()
            snap["worker_id"] = self.config.worker_id
            snap["pid"] = os.getpid()
            return {"ok": True, "stats": snap}
        if op == "drain":
            clean = self.backend.drain(float(req.get("timeout", 10.0)))
            return {"ok": True, "drained": clean}
        if op == "chaos":
            spec = dict(req.get("spec") or {})
            if "site" not in spec:
                raise ValueError("chaos op requires a 'site'")
            self._arm_chaos(spec)
            return {"ok": True, "armed": chaos.active()}
        if op == "shutdown":
            self._stop.set()
            # Closing the listener pops the accept loop out of accept().
            with contextlib.suppress(OSError):
                self._listener.close()
            return {"ok": True}
        raise ValueError(f"unknown op {op!r}")

    def _error_envelope(self, exc: BaseException) -> dict:
        status, body = error_response(
            exc, self.engine.telemetry, f"worker {self.config.worker_id}"
        )
        return {"ok": False, "status": status, **body}

    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            while not self._stop.is_set():
                try:
                    req = recv_msg(conn)
                except (ProtocolError, OSError):
                    return  # router hung up / died; just drop the line
                try:
                    reply = self._handle(req)
                except Exception as exc:  # noqa: BLE001 — keep serving
                    reply = self._error_envelope(exc)
                try:
                    send_msg(conn, reply)
                except OSError:
                    return
                if req.get("op") == "shutdown":
                    return

    def serve(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                break  # listener closed by shutdown
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name=f"worker-{self.config.worker_id}-conn",
                daemon=True,
            ).start()
        self.engine.close()


def worker_main(config: WorkerConfig, ready: Connection) -> None:
    """Child-process entry point (must stay importable for ``spawn``).

    Builds the engine, binds an ephemeral loopback port and reports it
    back through ``ready`` before entering the accept loop; a startup
    crash reports the error instead so the router fails fast rather
    than timing out.

    Workers ignore SIGINT/SIGTERM: a Ctrl-C (or a group-wide SIGTERM)
    hits every process in the foreground process group, and if workers
    died on it the router's graceful drain would have nobody left to
    drain.  Lifecycle is router-driven — the ``shutdown`` op, or
    SIGKILL from :meth:`ClusterRouter._kill_process` as the last
    resort.  An orphan watchdog exits the process if the router dies
    without saying goodbye, so ignored signals cannot leak workers.
    """
    with contextlib.suppress(ValueError, OSError):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)

    parent = os.getppid()

    def _watch_parent() -> None:
        while True:
            if os.getppid() != parent:
                os._exit(0)  # orphaned: the router is gone
            time.sleep(1.0)

    threading.Thread(
        target=_watch_parent, name="parent-watchdog", daemon=True
    ).start()
    try:
        server = _WorkerServer(config)
    except Exception as exc:  # noqa: BLE001 — reported to the router
        with contextlib.suppress(OSError):
            ready.send(("error", f"{type(exc).__name__}: {exc}"))
            ready.close()
        raise
    ready.send(("ready", server.port))
    ready.close()
    server.serve()
    # Give in-flight responses a beat to flush, then leave quietly.
    time.sleep(0.05)
