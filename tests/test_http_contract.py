"""The HTTP wire contract is the same in every serving mode.

One handler serves an in-process engine and a ``--workers 2`` cluster
router, so the same bad input must get the same ``(status, error)``
answer from both, the same good input the same layout, and a
keep-alive connection must stay usable after any error response.
"""

from __future__ import annotations

import http.client
import json

import numpy as np
import pytest

from repro.cluster import ClusterRouter
from repro.lod import ProgressiveEngine
from repro.service import make_server
from repro.service.http import _MAX_BODY

TINY = {"graph": "barth", "scale": "tiny", "s": 6}


@pytest.fixture(scope="module", params=["in-process", "cluster"])
def server(request):
    """A started server in each mode, shaped like ``parhde serve``."""
    if request.param == "in-process":
        backend = ProgressiveEngine(workers=1, timeout=30.0)
    else:
        backend = ClusterRouter(
            2, compute_threads=1, cache_mb=16.0, heartbeat_interval=0.2
        ).start()
    srv = make_server(backend, port=0).start()
    yield srv
    srv.shutdown()
    backend.close()


def _connect(srv) -> http.client.HTTPConnection:
    host, port = srv.address
    return http.client.HTTPConnection(host, port, timeout=60)


def _exchange(conn, method, path, body=None, headers=None):
    """One request on ``conn``; returns ``(status, decoded JSON body)``."""
    if headers is None:
        conn.request(method, path, body=body)
    else:
        # Raw framing, so the Content-Length header can lie.
        conn.putrequest(method, path)
        for key, value in headers.items():
            conn.putheader(key, value)
        conn.endheaders()
    resp = conn.getresponse()
    return resp.status, json.loads(resp.read())


# case -> (method, path, body, raw headers, the expected (status, error)).
ERROR_CASES = {
    "unknown-graph": (
        "POST", "/layout", json.dumps({"graph": "no-such-graph"}), None,
        (400, "bad_request"),
    ),
    "empty-doc": ("POST", "/layout", "{}", None, (400, "bad_request")),
    "empty-update": ("POST", "/update", "{}", None, (400, "bad_request")),
    "non-json": ("POST", "/layout", "not json", None, (400, "bad_request")),
    "non-object": ("POST", "/layout", "[1, 2]", None, (400, "bad_request")),
    "missing-body": (
        "POST", "/layout", None, {"Content-Length": "0"},
        (400, "bad_request"),
    ),
    "oversize-body": (
        "POST", "/layout", None, {"Content-Length": str(_MAX_BODY + 1)},
        (400, "bad_request"),
    ),
    "bad-content-length-layout": (
        "POST", "/layout", None, {"Content-Length": "abc"},
        (400, "bad_request"),
    ),
    "bad-content-length-update": (
        "POST", "/update", None, {"Content-Length": "abc"},
        (400, "bad_request"),
    ),
    "unknown-query-key": (
        "GET", "/layout?graph=barth&bogus=1", None, None,
        (400, "bad_request"),
    ),
    "bad-query-int": (
        "GET", "/layout?graph=barth&s=ten", None, None,
        (400, "bad_request"),
    ),
    "unknown-post-route": ("POST", "/nope", "{}", None, (404, "not_found")),
    "unknown-get-route": ("GET", "/nope", None, None, (404, "not_found")),
}


def test_error_contract(server):
    """Both modes answer every bad input with the same (status, error)."""
    answers = {}
    for case, (method, path, body, headers, _) in ERROR_CASES.items():
        conn = _connect(server)
        try:
            status, err = _exchange(conn, method, path, body, headers)
        finally:
            conn.close()
        assert isinstance(err["message"], str) and err["message"], case
        answers[case] = (status, err["error"])
    assert answers == {case: c[-1] for case, c in ERROR_CASES.items()}


# case -> POST /layout body sent to both modes by the parity test.
PARITY_BODIES = {
    "plain": dict(TINY),
    "batched": {**TINY, "params": {"kernels": {"traversal": "batched"}}},
}


def test_modes_compute_the_same_layout(server):
    """Every mode answers like a fresh in-process engine, bit for bit."""
    engine = ProgressiveEngine(workers=1, timeout=30.0)
    local = make_server(engine, port=0).start()
    try:
        for case, body in PARITY_BODIES.items():
            answers = []
            for srv in (local, server):
                conn = _connect(srv)
                try:
                    status, payload = _exchange(
                        conn, "POST", "/layout", json.dumps(body)
                    )
                finally:
                    conn.close()
                assert status == 200, (case, payload)
                answers.append(payload)
            ours, theirs = answers
            assert ours["fingerprint"] == theirs["fingerprint"], case
            assert ours["quality_tier"] == theirs["quality_tier"], case
            assert (
                np.asarray(ours["coords"]).tobytes()
                == np.asarray(theirs["coords"]).tobytes()
            ), case
    finally:
        local.shutdown()
        engine.close()


def test_keepalive_survives_error_responses(server):
    conn = _connect(server)
    try:
        # An unknown POST route must still consume its body ...
        status, err = _exchange(conn, "POST", "/nope", json.dumps(TINY))
        assert (status, err["error"]) == (404, "not_found")
        # ... so the next request on the connection parses cleanly.
        assert _exchange(conn, "GET", "/healthz")[0] == 200
        # A body that cannot be skipped closes the connection instead;
        # the client reconnects and carries on.
        status, err = _exchange(
            conn, "POST", "/layout", None,
            {"Content-Length": str(_MAX_BODY + 1)},
        )
        assert (status, err["error"]) == (400, "bad_request")
        status, health = _exchange(conn, "GET", "/healthz")
        assert status == 200 and health["status"] == "ok"
        status, payload = _exchange(
            conn, "POST", "/layout",
            json.dumps({**TINY, "include_coords": False}),
        )
        assert status == 200 and "coords" not in payload
    finally:
        conn.close()


def test_draining_keepalive_answers_503_then_healthz():
    engine = ProgressiveEngine(workers=1, timeout=10.0)
    srv = make_server(engine, port=0).start()
    conn = _connect(srv)
    try:
        assert srv.drain(0.5) is True
        for route in ("/layout", "/update"):
            status, err = _exchange(
                conn, "POST", route, json.dumps({**TINY, "inserts": [[0, 1]]})
            )
            assert (status, err["error"]) == (503, "overloaded")
        status, health = _exchange(conn, "GET", "/healthz")
        assert (status, health) == (503, {"status": "draining", "workers": 1})
    finally:
        conn.close()
        srv.shutdown()
        engine.close()
