"""The three benchmark workloads: request streams, load loops and checks.

Every request stream is a pure function of the workload seed (and, for
``edit-mix``, of the graphs that seed-independent identities name), so
the same seed sends the same requests; the server only ever receives
the requests.  :func:`setup` boots a workload's server and warms it;
each ``run_*`` drives it over real HTTP from at most two threads (the
caller's thread and one helper), each owning one keep-alive connection,
and returns raw samples that its ``summarize_*`` turns into metrics.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from harness import Conn, Server

GRAPHS = ("urand", "road", "kron")
S = 10
#: hot-read arrival-rate ladder (requests/s) and its reference rate.  The
#: measured hit capacity is 13 to 15 req/s, so the top steps (up to twice
#: that) fail at baseline and a faster hit path can climb them.
LADDER = (3, 6, 12, 18, 24, 30)
REF_RATE = 6
#: Share of each part spent at the reference rate; the other ladder
#: steps share the rest equally, and a burst of ``BURST_PER_S * seconds``
#: requests, all due at once, measures hit capacity after the ladder.
REF_SHARE = 0.6
BURST_PER_S = 3
#: Share of a schedule slot by which a viewer's request may be late.
JITTER = 0.5
#: A ladder step passes when its p90 latency meets this limit and its
#: backlog at the step's end is no more than the limit's worth of work.
LIMIT_PCT = 90
LIMIT_MS = 500.0
#: Graph identities (name, seed).  edit-mix needs them spread over both
#: cluster workers; :func:`check_ring_spread` enforces it at start.
IDENTITY_SEED = 0
#: Every new fingerprint grows the server (a cached layout, and on
#: cold-compute a generated graph), so a part reads peak RSS once this
#: many cold layouts, or editor cycles, have completed, rather than at
#: the end of its window.  Clients keep going past the window until the
#: count is reached; those extra requests are checked but not timed.
RSS_AFTER = {"cold-compute": 24, "edit-mix": 8}
#: Vertices the edit-mix editor drags, picked from kron by the seed.
DRAG_POOL = 3
DRAG_SCALE = 0.005


# -- statistics ------------------------------------------------------------

def p50(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def tail(values) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with >= 10 samples above it.

    With 10 or fewer samples the maximum is returned as percentile 100.
    """
    data = sorted(values)
    n = len(data)
    if n == 0:
        return 100.0, 0.0
    if n <= 10:
        return 100.0, float(data[-1])
    return math.floor(100.0 * (n - 10) / n), float(data[n - 11])


@dataclass
class Tally:
    """Requests attempted, and those that failed or failed a check."""

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def record(self, ok: bool, why: str = "") -> bool:
        """Count one request; a failed one also counts as failed."""
        self.attempted += 1
        if not ok:
            self.fail(why)
        return ok

    def fail(self, why: str) -> None:
        """Count a failure of a request already counted (a deferred check)."""
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(why)


# -- request streams -------------------------------------------------------

def layout_doc(graph: str, scale: str, seed: int = IDENTITY_SEED) -> dict:
    return {"graph": graph, "scale": scale, "s": S, "seed": seed}


def hot_read_stream(seed: int, seconds: float) -> dict:
    """One part's schedule: ``{"ladder", "segments", "burst"}``.

    The ladder is one open-loop timeline with a segment per rate, back
    to back; ``ladder`` holds ``(due offset, graph, rate)`` and
    ``segments`` each rate's ``(rate, end offset)``.  Viewers poll on a
    schedule: request ``i`` of a segment is due ``(i + u_i) / rate``
    after the segment starts, with ``u_i`` uniform in ``[0, JITTER)``,
    so every segment offers exactly its rate without the clumps of a
    Poisson stream (whose clumps, at two connections, make the median
    swing with the seed).  ``burst`` lists the graphs of the requests
    due all at once after the ladder.  Graphs come in shuffled blocks
    of three, one of each.
    """
    rng = np.random.default_rng([seed, 1])
    other = (1.0 - REF_SHARE) * seconds / (len(LADDER) - 1)
    ladder, segments, t = [], [], 0.0
    for rate in LADDER:
        duration = REF_SHARE * seconds if rate == REF_RATE else other
        count = max(1, round(rate * duration))
        offsets = t + (np.arange(count) + JITTER * rng.random(count)) / rate
        ladder += [(o, g, rate) for o, g in zip(offsets.tolist(), _blocks(rng, count))]
        t += duration
        segments.append((rate, t))
    burst = _blocks(rng, max(1, round(BURST_PER_S * seconds)))
    return {"ladder": ladder, "segments": segments, "burst": burst}


def _blocks(rng, count: int) -> list[str]:
    """``count`` graph names in shuffled blocks of three, one of each."""
    names = [GRAPHS[j] for _ in range(-(-count // 3)) for j in rng.permutation(len(GRAPHS))]
    return names[:count]


def cold_request(seed: int, client: int, k: int) -> tuple[str, int]:
    """The ``k``-th request of a cold-compute client: ``(graph, seed)``.

    Graphs go round-robin (client 1 offset by one, so concurrent
    requests differ); every request uses a graph/layout seed no other
    request of the run uses, so every fingerprint is fresh.
    """
    graph = GRAPHS[(k + client) % len(GRAPHS)]
    return graph, 1 + (seed % 100_000) * 100_000 + 2 * k + client


def edit_stream(seed: int, road, kron_n: int):
    """Endless editor cycles ``{"inserts", "deletes", "vertex", "pos", "unpin"}``.

    Each cycle inserts three edges absent from ``road`` (and from every
    earlier cycle), deletes up to two edges this stream inserted before
    (so the graph stays connected), then drags one kron vertex from a
    small pool to a fresh position, unpinning the vertex dragged last.
    """
    rng = np.random.default_rng([seed, 3])
    pool = [int(v) for v in rng.choice(kron_n, DRAG_POOL, replace=False)]
    inserted: list[list[int]] = []
    present: set[tuple[int, int]] = set()
    pinned = None
    while True:
        inserts = []
        while len(inserts) < 3:
            u, v = (int(x) for x in rng.integers(0, road.n, 2))
            key = (min(u, v), max(u, v))
            if u == v or key in present or road.has_edge(u, v):
                continue
            present.add(key)
            inserts.append([u, v])
        deletes = []
        for _ in range(min(2, len(inserted))):
            u, v = inserted.pop(int(rng.integers(0, len(inserted))))
            present.discard((min(u, v), max(u, v)))
            deletes.append([u, v])
        inserted.extend(inserts)
        vertex = pool[int(rng.integers(0, DRAG_POOL))]
        pos = (DRAG_SCALE * rng.uniform(-1.0, 1.0, 2)).tolist()
        yield {
            "inserts": inserts,
            "deletes": deletes,
            "vertex": vertex,
            "pos": pos,
            "unpin": pinned if pinned not in (None, vertex) else None,
        }
        pinned = vertex


# -- response checks -------------------------------------------------------

_COORDS = b'"coords": '


def split_coords(body: bytes) -> tuple[dict, bytes]:
    """``(metadata, coords text)`` of a layout response without parsing coords."""
    i = body.find(_COORDS)
    if i < 0:
        return json.loads(body), b""
    j = body.find(b"]]", i) + 2
    return json.loads(body[:i].rstrip(b", ") + body[j:]), body[i:j]


def parse_coords(body: bytes) -> tuple[dict, np.ndarray]:
    doc = json.loads(body)
    return doc, np.asarray(doc.get("coords", []), dtype=np.float64)


def coords_ok(doc: dict, coords: np.ndarray) -> bool:
    return coords.shape == (doc.get("n"), 2) and bool(np.isfinite(coords).all())


def check_hit(status: int, body: bytes, ref: dict) -> tuple[bool, str, dict]:
    """A hit must be bitwise-equal to the computed response for its fingerprint."""
    if status != 200:
        return False, f"hit HTTP {status}", {}
    meta, coords = split_coords(body)
    if meta.get("status") != "memory-hit":
        return False, f"expected memory-hit, got {meta.get('status')}", meta
    if meta.get("fingerprint") != ref["fp"] or coords != ref["coords"]:
        return False, "hit differs from its computed response", meta
    return True, "", meta


def warm_reference(conn: Conn, graph: str, scale: str) -> dict:
    """Compute one layout, check it, and keep what its hits must equal."""
    status, body, _, _ = conn.call("POST", "/layout", layout_doc(graph, scale))
    if status != 200:
        raise RuntimeError(f"set-up layout of {graph} failed: HTTP {status}")
    doc, coords = parse_coords(body)
    if not coords_ok(doc, coords):
        raise RuntimeError(f"set-up layout of {graph} has bad coords")
    meta, text = split_coords(body)
    ref = {"fp": meta["fingerprint"], "coords": text, "n": doc["n"], "xy": coords}
    ok, why, _ = check_hit(*conn.call("POST", "/layout", layout_doc(graph, scale))[:2], ref)
    if not ok:
        raise RuntimeError(f"set-up hit of {graph}: {why}")
    return ref


def run_pair(first, second) -> None:
    """Run ``first`` here and ``second`` on one helper thread."""
    errors = []

    def helper():
        try:
            second()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            errors.append(exc)

    thread = threading.Thread(target=helper, name="perfbench-client")
    thread.start()
    try:
        first()
    finally:
        thread.join()
    if errors:
        raise errors[0]


# -- set-up ----------------------------------------------------------------

def check_ring_spread(scale: str) -> dict[str, int]:
    """Owner of each edit-mix graph on a 2-worker ring; all on one worker fails."""
    from repro.cluster.ring import HashRing, graph_key

    ring = HashRing()
    ring.add(0)
    ring.add(1)
    owners = {g: ring.owner(graph_key(g, scale, IDENTITY_SEED)) for g in GRAPHS}
    if len(set(owners.values())) < 2:
        raise RuntimeError(
            f"ring puts every edit-mix graph on one worker: {owners}; pick"
            " other graph identities so both workers are exercised"
        )
    return owners


def setup(workload: str, work: Path, scale: str,
          trace_dir: Path | None = None) -> tuple[Server, dict, float]:
    """Boot and warm the workload's server; returns ``(server, ctx, seconds)``."""
    args = []
    if workload == "edit-mix":
        check_ring_spread(scale)
        wal = work / f"wal-{time.monotonic_ns()}"
        args = ["--workers", "2", "--wal", str(wal)]
    t0 = time.perf_counter()
    server = Server(work, args, trace_dir=trace_dir).start()
    conn = Conn(server.port)
    ctx: dict = {"refs": {}}
    try:
        if workload == "cold-compute":
            # Warm code paths with one layout per graph at a seed the
            # measured stream never uses (its seeds start at 1).
            for graph in GRAPHS:
                conn.json("POST", "/layout", layout_doc(graph, scale, 0))
        else:
            for graph in GRAPHS:
                ctx["refs"][graph] = warm_reference(conn, graph, scale)
        if workload == "edit-mix":
            # One constrained layout deposits the warm base drags reuse.
            kron = {"graph": "kron", "scale": scale, "seed": IDENTITY_SEED}
            xy = ctx["refs"]["kron"]["xy"][0].tolist()
            conn.json("POST", "/update", {**kron, "pins": {"0": xy}})
            conn.json("POST", "/layout", layout_doc("kron", scale))
            conn.json("POST", "/update", {**kron, "unpins": [0]})
            served = {
                wid: (snap.get("counters") or {}).get("requests", 0)
                for wid, snap in conn.json("GET", "/stats")["workers"].items()
            }
            if sum(1 for v in served.values() if v) < 2:
                raise RuntimeError(f"set-up did not reach both workers: {served}")
        elapsed = time.perf_counter() - t0
    except BaseException:
        server.stop()
        raise
    finally:
        conn.close()
    return server, ctx, elapsed


def stats(port: int) -> dict:
    conn = Conn(port)
    try:
        return conn.json("GET", "/stats")
    finally:
        conn.close()


# -- hot-read --------------------------------------------------------------

def run_hot_read(server: Server, ctx: dict, scale: str, seed: int,
                 seconds: float, tally: Tally) -> dict:
    """Open loop over the ladder, then the capacity burst."""
    refs = ctx["refs"]
    stream = hot_read_stream(seed, seconds)
    ladder = stream["ladder"]
    conns = [Conn(server.port), Conn(server.port)]
    try:
        rows, start, last = _open_loop(
            conns, [(due, graph) for due, graph, _ in ladder], refs, scale, tally
        )
        burst, burst_start, burst_last = _open_loop(
            conns, [(0.0, graph) for graph in stream["burst"]], refs, scale, tally
        )
    finally:
        for conn in conns:
            conn.close()
    out: dict = {"rows": [], "lag_ms": [], "windows": [(start, last)],
                 "burst_n": len(burst), "burst_s": burst_last - burst_start}
    for (_, _, rate), row in zip(ladder, rows):
        due, send, recv, ok, _, _ = row
        out.setdefault(f"lat@{rate}", []).append((recv - due) * 1e3 if ok else math.inf)
        if rate == REF_RATE:
            out["rows"].append(row)
            out["lag_ms"].append((send - due) * 1e3)
    for rate, end in stream["segments"]:
        # Requests due before the segment's end and still open at it.
        out[f"backlog@{rate}"] = [
            sum(1 for due, _, recv, _, _, _ in rows if due < start + end < recv)
        ]
    return out


def summarize_hot_read(res: dict) -> dict:
    ref = res[f"lat@{REF_RATE}"]
    ladder = []
    for rate in LADDER:
        lat = res[f"lat@{rate}"]
        limit_ms = float(np.percentile(lat, LIMIT_PCT, method="inverted_cdf"))
        backlog = max(res[f"backlog@{rate}"])
        ladder.append({
            "rate": rate, "n": len(lat), "p50_ms": p50(lat), "limit_ms": limit_ms,
            "backlog": backlog,
            "passed": limit_ms <= LIMIT_MS and backlog <= max(2, rate * LIMIT_MS / 1e3),
        })
    capacity = res["burst_n"] / res["burst_s"]
    pct, tail_ms = tail(ref)
    return {
        "p50_ms": p50(ref),
        "tail_ms": tail_ms,
        "ladder": ladder,
        "named": {
            "hit_p50_ms": (p50(ref), "ms"),
            f"hit_tail_ms (p{pct:g}, n={len(ref)})": (tail_ms, "ms"),
            "hit_max_rps": (float(max((r["rate"] for r in ladder if r["passed"]), default=0)), "1/s"),
            "hit_capacity_rps (bursts)": (capacity, "1/s"),
        },
    }


def _open_loop(conns, arrivals, refs, scale, tally):
    """Send ``(due offset, graph)`` arrivals; returns ``(rows, start, last completion)``."""
    lock = threading.Lock()
    cursor = [0]
    rows: list = [None] * len(arrivals)
    start = time.perf_counter() + 0.05

    def sender(conn: Conn) -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= len(arrivals):
                return
            offset, graph = arrivals[i]
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            status, body, t_send, t_recv = conn.call(
                "POST", "/layout", layout_doc(graph, scale)
            )
            ok, why, meta = check_hit(status, body, refs[graph])
            tally.record(ok, why)
            rows[i] = (due, t_send, t_recv, ok, meta.get("fingerprint"), len(body))

    run_pair(lambda: sender(conns[0]), lambda: sender(conns[1]))
    return rows, start, max(r[2] for r in rows)


# -- cold-compute ----------------------------------------------------------

def run_cold_compute(server: Server, ctx: dict, scale: str, seed: int,
                     seconds: float, tally: Tally) -> dict:
    """Closed loop, two clients, every request a fresh fingerprint.

    Requests sent after the window (to reach ``RSS_AFTER``) are checked
    but not timed.
    """
    rows: list = []
    rss: list = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def client(c: int) -> None:
        conn = Conn(server.port)
        k = 0
        try:
            while time.perf_counter() < deadline or not rss:
                graph, gseed = cold_request(seed, c, k)
                k += 1
                status, body, t_send, t_recv = conn.call(
                    "POST", "/layout", layout_doc(graph, scale, gseed)
                )
                with lock:
                    rows.append((graph, gseed, status, body, t_send, t_recv))
                    if len(rows) == RSS_AFTER["cold-compute"]:
                        rss.append(server.peak_rss_mb())
        finally:
            conn.close()

    run_pair(lambda: client(0), lambda: client(1))
    ctx["cold_rows"] = rows
    timed = [r for r in rows if r[4] < deadline]
    last = max(r[5] for r in timed)
    out: dict = {f"lat@{g}": [] for g in GRAPHS}
    for graph, _, status, _, t_send, t_recv in timed:
        out[f"lat@{graph}"].append((t_recv - t_send) * 1e3 if status == 200 else math.inf)
    out.update(count=len(timed), busy_s=last - start, windows=[(start, last)],
               peak_rss_mb=rss[0])
    return out


def summarize_cold_compute(res: dict) -> dict:
    every = [ms for g in GRAPHS for ms in res[f"lat@{g}"]]
    rps = res["count"] / res["busy_s"]
    pct, tail_ms = tail(every)
    named = {f"cold_p50_ms.{g}": (p50(res[f"lat@{g}"]), "ms") for g in GRAPHS}
    named[f"cold_tail_ms (p{pct:g}, n={len(every)})"] = (tail_ms, "ms")
    named["req_per_s"] = (rps, "1/s")
    return {"p50_ms": p50(every), "tail_ms": tail_ms, "named": named}


def check_cold(ctx: dict, scale: str, tally: Tally) -> None:
    """Checks deferred past the timed window, so parsing costs no latency.

    Every response must be a fresh ``computed`` layout with finite
    ``n x 2`` coords and an unseen fingerprint; the first response per
    graph must match ``repro.parhde`` run here (``allclose``).
    """
    from repro import datasets, parhde

    seen: set[str] = set()
    sampled: set[str] = set()
    for graph, gseed, status, body, _, _ in ctx.pop("cold_rows"):
        if status != 200:
            tally.record(False, f"cold {graph} HTTP {status}")
            continue
        doc, coords = parse_coords(body)
        ok = (
            doc.get("status") == "computed"
            and doc.get("fingerprint") not in seen
            and coords_ok(doc, coords)
        )
        seen.add(doc.get("fingerprint"))
        if ok and graph not in sampled:
            sampled.add(graph)
            g = datasets.load(graph, scale=scale, seed=gseed)
            ok = bool(np.allclose(coords, parhde(g, S, seed=gseed).coords,
                                  rtol=1e-9, atol=1e-12))
        tally.record(ok, f"cold {graph} seed {gseed} failed its check")


# -- edit-mix --------------------------------------------------------------

def run_edit_mix(server: Server, ctx: dict, scale: str, seed: int,
                 seconds: float, tally: Tally) -> dict:
    """Closed loop: an editor (delta + relayout, drag + layout) and a viewer."""
    from repro import datasets

    road = datasets.load("road", scale=scale, seed=IDENTITY_SEED)
    cycles = edit_stream(seed, road, ctx["refs"]["kron"]["n"])
    ident = {"scale": scale, "seed": IDENTITY_SEED}
    start = time.perf_counter()
    deadline = start + seconds
    out: dict = {"update": [], "relayout": [], "drag": [], "view": []}
    deferred = ctx["deferred"] = []

    def editor() -> None:
        conn = Conn(server.port)
        epoch = 0
        old_fps: set[str] = set()
        current_fps = {ctx["refs"]["road"]["fp"]}
        cycles_done = 0
        try:
            while time.perf_counter() < deadline or cycles_done < RSS_AFTER["edit-mix"]:
                # A cycle begun after the window is checked but not timed.
                timed = time.perf_counter() < deadline
                cyc = next(cycles)
                st, body, ts, tr = conn.call("POST", "/update", {
                    "graph": "road", **ident,
                    "inserts": cyc["inserts"], "deletes": cyc["deletes"],
                })
                doc = json.loads(body) if st == 200 else {}
                ok = st == 200 and doc.get("epoch") == epoch + 1
                tally.record(ok, f"road update HTTP {st}, epoch {doc.get('epoch')} after {epoch}")
                epoch = doc.get("epoch", epoch)
                update_ms = (tr - ts) * 1e3 if ok else math.inf
                old_fps |= current_fps
                st, body, ts, tr = conn.call("POST", "/layout", layout_doc("road", scale))
                meta = split_coords(body)[0] if st == 200 else {}
                fp = meta.get("fingerprint")
                ok = st == 200 and meta.get("status") == "computed" and fp not in old_fps
                tally.record(ok, f"road relayout HTTP {st} {meta.get('status')}, stale={fp in old_fps}")
                current_fps = {fp}
                relayout_ms = (tr - ts) * 1e3 if ok else math.inf
                if ok:
                    deferred.append(("road", body, None, None))
                pin = {"pins": {str(cyc["vertex"]): cyc["pos"]}}
                if cyc["unpin"] is not None:
                    pin["unpins"] = [cyc["unpin"]]
                st, body, ts, _ = conn.call("POST", "/update", {"graph": "kron", **ident, **pin})
                pinned = tally.record(st == 200, f"pin update HTTP {st}")
                st, body, _, tr = conn.call("POST", "/layout", layout_doc("kron", scale))
                meta = split_coords(body)[0] if st == 200 else {}
                ok = tally.record(st == 200 and meta.get("status") == "computed",
                                  f"drag layout HTTP {st} {meta.get('status')}")
                ok = ok and pinned
                if ok:
                    deferred.append(("kron", body, cyc["vertex"], cyc["pos"]))
                cycles_done += 1
                if cycles_done == RSS_AFTER["edit-mix"]:
                    out["peak_rss_mb"] = server.peak_rss_mb()
                if timed:
                    out["update"].append(update_ms)
                    out["relayout"].append(relayout_ms)
                    out["drag"].append((tr - ts) * 1e3 if ok else math.inf)
                    out["edit_s"] = tr - start
        finally:
            conn.close()
        out["edit_requests"] = 4 * len(out["update"])

    def viewer() -> None:
        conn = Conn(server.port)
        ref = ctx["refs"]["urand"]
        try:
            while time.perf_counter() < deadline:
                status, body, ts, tr = conn.call("POST", "/layout", layout_doc("urand", scale))
                ok, why, _ = check_hit(status, body, ref)
                tally.record(ok, why)
                out["view"].append((tr - ts) * 1e3 if ok else math.inf)
        finally:
            conn.close()

    run_pair(editor, viewer)
    out["windows"] = [(start, start + out["edit_s"])]
    out["viewer_layouts"] = len(out["view"])
    out["editor_layouts"] = out["edit_requests"] // 2
    return out


def summarize_edit_mix(res: dict) -> dict:
    """``p50_ms`` and ``tail_ms`` are the edge-delta ``POST /update``
    (router, WAL, overlay) on road's worker, which serves the editor
    alone.  Viewer hits, relayouts and drags cross both workers and the
    router at once; their latencies move with the host's CPU several
    times more than cold-compute's do, so they are printed, not gated.
    """
    rps = res["edit_requests"] / res["edit_s"]
    pct, view_tail = tail(res["view"])
    upct, update_tail = tail(res["update"])
    hit_share = res["viewer_layouts"] / (res["viewer_layouts"] + res["editor_layouts"])
    return {
        "p50_ms": p50(res["update"]),
        "tail_ms": update_tail,
        "named": {
            "update_p50_ms": (p50(res["update"]), "ms"),
            f"update_tail_ms (p{upct:g}, n={len(res['update'])})": (update_tail, "ms"),
            "relayout_p50_ms": (p50(res["relayout"]), "ms"),
            "drag_p50_ms": (p50(res["drag"]), "ms"),
            "editor_req_per_s": (rps, "1/s"),
            "hit_p50_ms": (p50(res["view"]), "ms"),
            f"hit_tail_ms (p{pct:g}, n={len(res['view'])})": (view_tail, "ms"),
            "cache.hit_share expected": (hit_share, "ratio"),
        },
    }


def check_edit_mix(ctx: dict, tally: Tally) -> None:
    """Deferred coordinate checks: finite n x 2, dragged vertex at its pin bitwise."""
    for graph, body, vertex, pos in ctx.pop("deferred"):
        doc, coords = parse_coords(body)
        ok = coords_ok(doc, coords)
        if vertex is not None:
            ok = ok and coords[vertex].tolist() == pos
        if not ok:
            tally.fail(f"{graph} layout coords check failed")
