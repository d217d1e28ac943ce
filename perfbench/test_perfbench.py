"""Self-tests of the benchmark: quick mode, checks, and stream determinism.

    python3 -m pytest perfbench -q

The quick-mode tests boot real servers on tiny graphs (about a minute
in all); the rest are pure functions.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import workloads as wl
from harness import ROOT

sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "hot-read": ("hit_p50_ms", "hit_tail_ms", "hit_max_rps"),
    "cold-compute": ("cold_p50_ms.urand", "cold_p50_ms.road", "cold_p50_ms.kron",
                     "cold_tail_ms", "req_per_s"),
    "edit-mix": ("update_p50_ms", "update_tail_ms", "relayout_p50_ms", "drag_p50_ms",
                 "editor_req_per_s", "hit_p50_ms", "hit_tail_ms"),
}


def _quick(*args: str) -> tuple[dict, str]:
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "all",
         "--scale", "tiny", "--seconds", "3", "--seed", "7", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    return json.loads(out.stdout.strip().splitlines()[-1]), out.stdout


def test_quick_mode_emits_every_end_to_end_metric():
    result, text = _quick("--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for workload in ("hot-read", "cold-compute", "edit-mix"):
        for spec in SPEC["end_to_end"]:
            got = result["metrics"][f"{workload}/{spec['name']}"]
            assert got["unit"] == spec["unit"]
            assert got["value"] > 0
        section = text.split(f"== {workload}")[1].split("==")[0]
        for name in (*NAMED[workload], "setup_s", "peak_rss_mb", "failed_share"):
            assert f" {name}" in section, (workload, name)


def test_quick_traced_run_emits_every_per_layer_metric():
    result, _ = _quick("--trace", "1")
    assert result["correct"]
    metrics = result["metrics"]
    assert {spec["name"] for spec in SPEC["per_layer"]} == set(metrics)
    for spec in SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
    for g in wl.GRAPHS:
        assert metrics[f"parhde.cover_share.{g}"]["value"] >= 0.9


def _layout_body(fp: str, coords: np.ndarray, status: str = "memory-hit",
                 extra: dict | None = None) -> bytes:
    doc = {"fingerprint": fp, "status": status, "n": len(coords),
           "coords": coords.tolist(), **(extra or {})}
    return json.dumps(doc).encode()


def test_corrupted_hit_is_caught():
    coords = np.random.default_rng(0).normal(size=(6, 2))
    good = _layout_body("abc", coords)
    ref = {"fp": "abc", "coords": wl.split_coords(good)[1]}
    assert wl.check_hit(200, good, ref)[0]
    # A trailing field after the coords (a resharded relay) still matches.
    assert wl.check_hit(200, _layout_body("abc", coords, extra={"resharded": True}), ref)[0]
    bad = coords.copy()
    bad[3, 1] = np.nextafter(bad[3, 1], np.inf)
    assert not wl.check_hit(200, _layout_body("abc", bad), ref)[0]
    assert not wl.check_hit(200, _layout_body("abd", coords), ref)[0]
    assert not wl.check_hit(200, _layout_body("abc", coords, "computed"), ref)[0]
    assert not wl.check_hit(503, b"", ref)[0]


def test_corrupted_edit_layouts_are_caught():
    coords = np.random.default_rng(1).normal(size=(5, 2))
    pos = coords[2].tolist()
    tally = wl.Tally()
    wl.check_edit_mix({"deferred": [("kron", _layout_body("f", coords, "computed"), 2, pos)]}, tally)
    assert tally.failed == 0
    moved = coords.copy()
    moved[2, 0] += 1e-12
    nan = coords.copy()
    nan[0, 0] = np.nan
    wl.check_edit_mix({"deferred": [
        ("kron", _layout_body("f", moved, "computed"), 2, pos),
        ("road", _layout_body("g", nan, "computed"), None, None),
        ("road", _layout_body("h", coords[:4], "computed", {"n": 5}), None, None),
    ]}, tally)
    assert tally.failed == 3


def test_corrupted_cold_layout_is_caught():
    from repro import datasets, parhde

    g = datasets.load("kron", scale="tiny", seed=5)
    coords = parhde(g, wl.S, seed=5).coords
    body = _layout_body("x", coords, "computed", {"n": g.n})
    tally = wl.Tally()
    wl.check_cold({"cold_rows": [("kron", 5, 200, body, 0.0, 1.0)]}, "tiny", tally)
    assert tally.failed == 0
    shifted = _layout_body("y", coords * (1 + 1e-6), "computed", {"n": g.n})
    wl.check_cold({"cold_rows": [("kron", 5, 200, shifted, 0.0, 1.0)]}, "tiny", tally)
    assert tally.failed == 1


def _edit_prefix(seed: int, count: int = 12) -> list:
    from repro import datasets

    road = datasets.load("road", scale="tiny", seed=wl.IDENTITY_SEED)
    stream = wl.edit_stream(seed, road, 100)
    return [next(stream) for _ in range(count)]


@pytest.mark.parametrize("seed", [0, 11])
def test_same_seed_same_request_stream(seed):
    assert wl.hot_read_stream(seed, 20) == wl.hot_read_stream(seed, 20)
    assert wl.hot_read_stream(seed, 20) != wl.hot_read_stream(seed + 1, 20)
    cold = [wl.cold_request(seed, c, k) for c in (0, 1) for k in range(30)]
    assert cold == [wl.cold_request(seed, c, k) for c in (0, 1) for k in range(30)]
    assert len({s for _, s in cold}) == len(cold)
    assert _edit_prefix(seed) == _edit_prefix(seed)
    assert _edit_prefix(seed) != _edit_prefix(seed + 1)


def test_editor_deletes_only_its_own_inserts():
    from repro import datasets

    road = datasets.load("road", scale="tiny", seed=wl.IDENTITY_SEED)
    live: set = set()
    for cyc in _edit_prefix(3, 40):
        for u, v in cyc["deletes"]:
            live.remove((u, v))
        for u, v in cyc["inserts"]:
            assert not road.has_edge(u, v)
            live.add((u, v))


def test_ring_spreads_edit_mix_graphs():
    owners = wl.check_ring_spread("medium")
    assert set(owners.values()) == {0, 1}
