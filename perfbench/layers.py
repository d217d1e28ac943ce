"""Per-layer metrics from a traced pass's spans, stats and client rows.

Each function takes one traced pass (``spans`` recorded inside the
server, and the workload's result, which carries the client-side
samples and the ``before``/``after`` ``/stats`` snapshots) and returns
``{metric: (value, unit)}``.  Spans are
restricted to the measured windows, so set-up work is left out.  Times
are p50 per call unless the name says otherwise.
"""

from __future__ import annotations

from spans import children_ms
from workloads import GRAPHS, p50

PHASE_CHILDREN = ("bfs", "dortho", "spmm", "gemm", "eigen")


def _in_window(spans, windows):
    return [
        s for s in spans
        if any(start <= s["t0"] and s["t1"] <= end for start, end in windows)
    ]


def _ms(spans, name, **attrs):
    return [
        s["ms"] for s in spans
        if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())
    ]


def _counter(snap: dict, name: str) -> float:
    counters = snap.get("aggregate", snap).get("counters", {})
    return counters.get(name, 0)


def hot_read(spans, result) -> dict:
    spans = _in_window(spans, result["windows"])
    kids = children_ms(spans)
    backend = {}
    for s in spans:
        if s["name"] == "lod.submit":
            backend.setdefault(s["attrs"].get("fp"), []).append(s)
    self_ms = []
    for _, t_send, t_recv, ok, fp, _ in result["rows"]:
        for s in backend.get(fp, ()):
            if t_send <= s["t0"] and s["t1"] <= t_recv:
                backend[fp].remove(s)
                self_ms.append((t_recv - t_send) * 1e3 - s["ms"])
                break
    lod_self = [
        s["ms"] - kids.get((s["pid"], s["id"]), {}).get("engine.submit", 0.0)
        for s in spans if s["name"] == "lod.submit"
    ]
    return {
        "http.self_ms": (p50(self_ms), "ms"),
        "http.payload_ms": (p50(_ms(spans, "http.payload")), "ms"),
        "http.response_kb": (p50([r[5] / 1024 for r in result["rows"] if r[3]]), "KiB"),
        "lod.self_ms": (p50(lod_self), "ms"),
        "cache.get_ms": (p50(_ms(spans, "cache.get")), "ms"),
        "loadgen.lag_ms": (p50(result["lag_ms"]), "ms"),
    }


def cold_compute(spans, result) -> dict:
    before, after = result["before"], result["after"]
    spans = _in_window(spans, result["windows"])
    kids = children_ms(spans)
    per_graph = {g: [] for g in GRAPHS}
    for s in spans:
        if s["name"] == "parhde" and s["attrs"].get("graph") in per_graph:
            per_graph[s["attrs"]["graph"]].append(
                (s, kids.get((s["pid"], s["id"]), {}))
            )
    queue = after.get("histograms", {}).get("queue_wait_seconds", {})
    out = {
        "engine.submit_ms": (p50(_ms(spans, "engine.submit")), "ms"),
        "engine.queue_wait_ms": (queue.get("p50", 0.0) * 1e3, "ms"),
        "cache.put_ms": (p50(_ms(spans, "cache.put")), "ms"),
        "cache.evictions": (
            after["cache"].get("evictions", 0) - before["cache"].get("evictions", 0),
            "count",
        ),
    }
    for g, calls in per_graph.items():
        out[f"parhde.ms.{g}"] = (p50([s["ms"] for s, _ in calls]), "ms")
        for child in PHASE_CHILDREN:
            out[f"{child}.ms.{g}"] = (p50([k.get(child, 0.0) for _, k in calls]), "ms")
        covered = [sum(k.get(c, 0.0) for c in PHASE_CHILDREN) for _, k in calls]
        out[f"parhde.self_ms.{g}"] = (
            p50([s["ms"] - c for (s, _), c in zip(calls, covered)]), "ms"
        )
        out[f"parhde.cover_share.{g}"] = (
            p50([c / s["ms"] for (s, _), c in zip(calls, covered)]), "ratio"
        )
        for phase, parts in (
            ("BFS", ("bfs",)), ("DOrtho", ("dortho",)), ("TripleProd", ("spmm", "gemm")),
        ):
            ratios = [
                sum(k.get(p, 0.0) for p in parts) / 1e3 / s["attrs"]["modeled_s"][phase]
                for s, k in calls if s["attrs"]["modeled_s"].get(phase)
            ]
            out[f"model_ratio.{phase}.{g}"] = (p50(ratios), "ratio")
    return out


def edit_mix(spans, result) -> dict:
    before, after = result["before"], result["after"]
    spans = _in_window(spans, result["windows"])
    warm = _counter(after, "constraints.warm_hits") - _counter(before, "constraints.warm_hits")
    cold = _counter(after, "constraints.warm_misses") - _counter(before, "constraints.warm_misses")
    lookups = [s["attrs"].get("hit") for s in spans if s["name"] == "cache.get"]
    hops = [
        s["ms"] - 1e3 * s["attrs"]["elapsed_s"]
        for s in spans if s["name"] == "router.layout" and s["attrs"].get("elapsed_s") is not None
    ]
    return {
        "engine.update_ms": (p50(_ms(spans, "engine.update")), "ms"),
        "engine.warm_hit_share": (warm / (warm + cold) if warm + cold else 0.0, "ratio"),
        "cache.hit_share": (sum(map(bool, lookups)) / len(lookups) if lookups else 0.0, "ratio"),
        "overlay.apply_ms": (p50(_ms(spans, "overlay.apply")), "ms"),
        "overlay.compactions": (len(_ms(spans, "overlay.compact")), "count"),
        "deflate.ms": (p50(_ms(spans, "deflate")), "ms"),
        "wal.append_ms": (p50(_ms(spans, "wal.append")), "ms"),
        "wal.sync_ms": (p50(_ms(spans, "wal.sync")), "ms"),
        "wal.record_bytes": (
            p50([s["attrs"]["bytes"] for s in spans if s["name"] == "wal.encode"]), "bytes"
        ),
        "router.layout_ms": (p50(_ms(spans, "router.layout")), "ms"),
        "router.hop_ms": (p50(hops), "ms"),
        "router.update_ms": (p50(_ms(spans, "router.update")), "ms"),
        "protocol.send_ms": (p50(_ms(spans, "protocol.send", coords=True)), "ms"),
        "protocol.recv_ms": (p50(_ms(spans, "protocol.recv", coords=True)), "ms"),
        "protocol.msg_kb": (
            p50([s["attrs"]["kb"] for s in spans
                 if s["name"] == "protocol.send" and s["attrs"].get("coords")]),
            "KiB",
        ),
    }


BY_WORKLOAD = {"hot-read": hot_read, "cold-compute": cold_compute, "edit-mix": edit_mix}
