"""In-memory spans around the serving stack's public functions.

The traced benchmark run starts ``parhde serve`` through
``trace_launch.py``, which calls :func:`install` before the server is
built.  :func:`install` replaces each traced function or method with a
wrapper that records one span per call: an id, the id of the span that
was open on the same thread when the call began (its parent), a name,
``perf_counter`` start and end, and optional attributes taken from the
call's arguments or result.  ``perf_counter`` reads the system-wide
monotonic clock on Linux, so spans from the server, its workers and the
benchmark client share one time axis.

Spans stay in memory and are written to ``<trace dir>/spans-<pid>.json``
when the process's engine drains at a graceful stop (and by the launcher
again at exit).  :func:`load_spans` and :func:`children_ms` are
the analysis half, used by ``run.py``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


class Recorder:
    """Collects spans for one process."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, fn, name, note=None):
        """Return ``fn`` wrapped so that each call records a span.

        ``note(args, kwargs, result)`` may return a dict of attributes;
        it runs after the span has ended, so its cost is not timed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.spans.append(
                    (sid, parent, name, t0, time.perf_counter(), {"error": 1})
                )
                raise
            finally:
                stack.pop()
            t1 = time.perf_counter()
            self.spans.append(
                (sid, parent, name, t0, t1, note(args, kwargs, out) if note else None)
            )
            return out

        return traced

    def dump(self, trace_dir: str) -> None:
        path = Path(trace_dir) / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"pid": os.getpid(), "spans": self.spans}))
        tmp.replace(path)


class _CountingSocket:
    """Socket stand-in that counts the bytes ``send_msg`` writes."""

    def __init__(self, sock):
        self._sock = sock
        self.sent = 0

    def sendall(self, data) -> None:
        self.sent += len(data)
        self._sock.sendall(data)


def _graph_label(name: str | None) -> str:
    for label in ("urand", "road", "kron"):
        if name and name.startswith(label):
            return label
    return name or "?"


def install(rec: Recorder, trace_dir: str) -> None:
    """Wrap the traced functions in place (once per process)."""
    import repro.cluster.protocol as protocol
    import repro.cluster.router as router_mod
    import repro.cluster.worker as worker_mod
    import repro.core.hde as hde
    import repro.lod.progressive as lod_mod
    import repro.service.cache as cache_mod
    import repro.service.engine as engine_mod
    import repro.service.http as http_mod
    import repro.stream.overlay as overlay_mod
    import repro.wal.log as wal_log
    from repro.parallel import BRIDGES_RSM

    def fingerprint(args, kwargs, out):
        return {"fp": out.fingerprint}

    def parhde_note(args, kwargs, out):
        modeled = out.phase_seconds(BRIDGES_RSM, 1)
        return {"graph": _graph_label(args[0].name), "modeled_s": modeled}

    payload = rec.wrap(http_mod.layout_payload, "http.payload")
    http_mod.layout_payload = payload
    worker_mod.layout_payload = payload
    lod_mod.ProgressiveEngine.submit = rec.wrap(
        lod_mod.ProgressiveEngine.submit, "lod.submit", fingerprint
    )
    engine_mod.LayoutEngine.submit = rec.wrap(
        engine_mod.LayoutEngine.submit, "engine.submit", fingerprint
    )
    engine_mod.LayoutEngine.update = rec.wrap(
        engine_mod.LayoutEngine.update, "engine.update"
    )
    cache_mod.LayoutCache.get = rec.wrap(
        cache_mod.LayoutCache.get,
        "cache.get",
        lambda a, k, out: {"hit": out is not None},
    )
    cache_mod.LayoutCache.put = rec.wrap(cache_mod.LayoutCache.put, "cache.put")
    engine_mod.DEFAULT_ALGORITHMS["parhde"] = rec.wrap(
        engine_mod.DEFAULT_ALGORITHMS["parhde"], "parhde", parhde_note
    )
    for attr, name in (
        ("select_and_traverse", "bfs"),
        ("d_orthogonalize", "dortho"),
        ("laplacian_spmm", "spmm"),
        ("dense_gemm", "gemm"),
        ("extreme_eigenpairs", "eigen"),
        ("deflate_basis", "deflate"),
    ):
        setattr(hde, attr, rec.wrap(getattr(hde, attr), name))
    overlay_mod.DynamicGraph.apply = rec.wrap(
        overlay_mod.DynamicGraph.apply, "overlay.apply"
    )
    overlay_mod.DynamicGraph.compact = rec.wrap(
        overlay_mod.DynamicGraph.compact, "overlay.compact"
    )
    wal_log.WriteAheadLog.append = rec.wrap(
        wal_log.WriteAheadLog.append, "wal.append"
    )
    # The fsync has no public entry point of its own: append() calls it
    # inline under the batch policy, so the private method is the hook.
    wal_log.WriteAheadLog._fsync_now = rec.wrap(
        wal_log.WriteAheadLog._fsync_now, "wal.sync"
    )
    wal_log.encode_record = rec.wrap(
        wal_log.encode_record,
        "wal.encode",
        lambda a, k, out: {"bytes": len(out)},
    )
    router_mod.ClusterRouter.layout = rec.wrap(
        router_mod.ClusterRouter.layout,
        "router.layout",
        lambda a, k, out: {"elapsed_s": out.get("elapsed_seconds")},
    )
    router_mod.ClusterRouter.update = rec.wrap(
        router_mod.ClusterRouter.update, "router.update"
    )

    def send_msg(sock, obj, _send=protocol.send_msg):
        # Callers ignore send_msg's result; the byte count rides on it.
        counting = _CountingSocket(sock)
        _send(counting, obj)
        return counting.sent

    traced_send = rec.wrap(
        send_msg,
        "protocol.send",
        lambda a, k, out: {"kb": out / 1024, "coords": "coords" in a[1]},
    )
    traced_recv = rec.wrap(
        protocol.recv_msg,
        "protocol.recv",
        lambda a, k, out: {"coords": "coords" in out},
    )
    for mod in (router_mod, worker_mod):
        mod.send_msg = traced_send
        mod.recv_msg = traced_recv

    # A graceful stop drains every engine before it closes anything, in
    # the server process and in each cluster worker alike (the router
    # SIGKILLs a worker soon after its shutdown op), so each process
    # writes its spans once its engine has drained.
    original_drain = lod_mod.ProgressiveEngine.drain

    @functools.wraps(original_drain)
    def drain(self, *args, **kwargs):
        try:
            return original_drain(self, *args, **kwargs)
        finally:
            rec.dump(trace_dir)

    lod_mod.ProgressiveEngine.drain = drain


def load_spans(trace_dir: str) -> list[dict]:
    """Every span written under ``trace_dir``, as dicts with a ``pid``."""
    out = []
    for path in sorted(Path(trace_dir).glob("spans-*.json")):
        doc = json.loads(path.read_text())
        for sid, parent, name, t0, t1, attrs in doc["spans"]:
            out.append(
                {
                    "pid": doc["pid"],
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "t0": t0,
                    "t1": t1,
                    "ms": (t1 - t0) * 1e3,
                    "attrs": attrs or {},
                }
            )
    return out


def children_ms(spans: list[dict]) -> dict[tuple[int, int], dict[str, float]]:
    """Per parent ``(pid, id)``: summed milliseconds of each child name."""
    out: dict[tuple[int, int], dict[str, float]] = {}
    for s in spans:
        if s["parent"]:
            kids = out.setdefault((s["pid"], s["parent"]), {})
            kids[s["name"]] = kids.get(s["name"], 0.0) + s["ms"]
    return out
