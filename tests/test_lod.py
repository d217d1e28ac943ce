"""Tests for the progressive level-of-detail subsystem (:mod:`repro.lod`).

Covers the spectral coarsening primitives, the hierarchy's conservation
and interlacing invariants (property-based where exact spectra are
cheap), the distortion checker, and the progressive serving wrapper's
first-paint / refine-to-full / epoch-invalidation protocol.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    complete_graph,
    cycle_graph,
    grid2d,
    path_graph,
    preprocess,
    uniform_random,
)
from repro.lod import (
    LodConfig,
    ProgressiveEngine,
    build_lod_hierarchy,
    measure_distortion,
    progressive_layout,
    tier_name,
)
from repro.multilevel import contract, spectral_matching
from repro.resilience import is_lod_tier, tier_rank
from repro.service import LayoutCache, LayoutEngine, LayoutRequest
from repro.service.http import layout_doc_from_query, parse_lod_value
from repro.validate import check_lod_distortion

from conftest import random_connected_graph


# ---------------------------------------------------------------------------
# spectral matching
# ---------------------------------------------------------------------------


class TestSpectralMatching:
    def test_valid_involution(self, small_random):
        match = spectral_matching(small_random, seed=3)
        n = small_random.n
        assert match.shape == (n,)
        # An involution: match[match[v]] == v, and no self-loops except
        # the fixed points (unmatched vertices map to themselves).
        assert np.array_equal(match[match], np.arange(n))

    def test_matched_pairs_are_edges(self, small_random):
        g = small_random
        match = spectral_matching(g, seed=1)
        src = np.repeat(np.arange(g.n), g.degrees)
        edges = set(zip(src.tolist(), g.indices.tolist()))
        for u in range(g.n):
            if match[u] != u:
                assert (u, int(match[u])) in edges

    def test_deterministic(self, small_random):
        a = spectral_matching(small_random, seed=7)
        b = spectral_matching(small_random, seed=7)
        assert np.array_equal(a, b)

    def test_shrinks_regular_graphs(self):
        # Regular graphs have uniform scores; the hash jitter must still
        # break ties well enough to land a near-perfect matching.
        g = grid2d(20, 20)
        match = spectral_matching(g, seed=0)
        matched = int((match != np.arange(g.n)).sum())
        assert matched >= 0.6 * g.n


# ---------------------------------------------------------------------------
# hierarchy invariants (property-based)
# ---------------------------------------------------------------------------


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=4, max_value=60))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_connected_graph(n, extra, seed)


class TestHierarchyProperties:
    @settings(max_examples=25, deadline=None)
    @given(g=connected_graphs(), seed=st.integers(0, 100))
    def test_mass_conservation_under_contract(self, g, seed):
        h = build_lod_hierarchy(
            g, coarsest_size=4, max_levels=6, seed=seed, measure_limit=0
        )
        total = float(h.mass.sum())
        for depth in range(1, h.depth + 1):
            assert h.mass_at(depth).sum() == pytest.approx(total)

    @settings(max_examples=25, deadline=None)
    @given(g=connected_graphs())
    def test_restrict_prolong_identity(self, g):
        h = build_lod_hierarchy(
            g, coarsest_size=4, max_levels=6, measure_limit=0
        )
        for depth in range(h.depth + 1):
            n_c = h.graph_at(depth).n
            x = np.arange(n_c, dtype=np.float64)[:, None] * [1.0, -2.0]
            fine = h.prolong_to_finest(x, depth, jitter=0.0)
            back = h.restrict_to(fine, depth)
            assert np.allclose(back, x, atol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(g=connected_graphs(), seed=st.integers(0, 50))
    def test_one_sided_interlacing(self, g, seed):
        # Galerkin coarsening can only raise generalized eigenvalues:
        # mu_i >= lambda_i for every measured step.
        h = build_lod_hierarchy(
            g, coarsest_size=4, max_levels=6, seed=seed, measure_limit=10_000
        )
        for lvl in h.levels:
            assert lvl.distortion is not None
            assert lvl.distortion >= 1.0 - 1e-8

    def test_mapping_shapes_compose(self, small_grid):
        h = build_lod_hierarchy(small_grid, coarsest_size=8, measure_limit=0)
        assert h.depth >= 2
        assert h.sizes()[0] == small_grid.n
        for depth in range(h.depth + 1):
            mapping = h.mapping_to_finest(depth)
            assert mapping.shape == (small_grid.n,)
            assert mapping.max() < h.graph_at(depth).n
        # Depth 0 composes to the identity.
        assert np.array_equal(h.mapping_to_finest(0), np.arange(small_grid.n))


class TestDistortionExactSpectra:
    """Distortion against graphs whose spectra are known in closed form."""

    @pytest.mark.parametrize(
        "g",
        [path_graph(40), cycle_graph(48), grid2d(7, 9), complete_graph(24)],
        ids=["path", "cycle", "grid", "complete"],
    )
    def test_distortion_within_bound(self, g):
        h = build_lod_hierarchy(
            g, coarsest_size=4, max_levels=8, measure_limit=10_000
        )
        assert h.depth >= 1
        assert h.max_distortion is not None
        assert h.max_distortion < 3.0

    def test_path_exact_eigenvalues(self):
        # The path's pencil eigenvalues are 2 - 2 cos(pi k / n) for unit
        # mass; measure_distortion against itself must be exactly 1.
        g = path_graph(16)
        ones = np.ones(g.n)
        assert measure_distortion(g, ones, g, ones) == pytest.approx(1.0)

    def test_complete_graph_single_level(self):
        # K_n contracts to ~n/2 supervertices; nonzero eigenvalues of
        # K_n are all n, and Galerkin keeps ratios modest.
        g = complete_graph(16)
        h = build_lod_hierarchy(
            g, coarsest_size=2, max_levels=3, measure_limit=1_000
        )
        assert h.max_distortion is not None and h.max_distortion >= 1.0


# ---------------------------------------------------------------------------
# checker + tier plumbing
# ---------------------------------------------------------------------------


class TestCheckerAndTiers:
    def test_check_lod_distortion_ok(self, small_grid):
        h = build_lod_hierarchy(
            small_grid, coarsest_size=16, measure_limit=10_000
        )
        res = check_lod_distortion(h, bound=3.0)
        assert res.ok
        assert res.check == "lod.distortion"

    def test_check_lod_distortion_violation(self, small_grid):
        h = build_lod_hierarchy(
            small_grid, coarsest_size=16, measure_limit=10_000
        )
        res = check_lod_distortion(h, bound=1.0 + 1e-12)
        assert not res.ok

    def test_check_unmeasured_hierarchy_passes(self, small_grid):
        h = build_lod_hierarchy(small_grid, coarsest_size=16, measure_limit=0)
        assert h.max_distortion is None
        assert check_lod_distortion(h, bound=3.0).ok

    def test_tier_names_and_ranks(self):
        assert tier_name(0) == "full"
        assert tier_name(3) == "lod-3"
        assert tier_rank("full") == 0
        assert tier_rank("lod-1") == 1
        assert tier_rank("lod-7") == 7
        assert tier_rank("lod-zzz") == 999
        # Coarser tier => strictly larger rank; ladder tiers rank after
        # every lod tier (a coarse *exact* layout beats an approximation).
        assert tier_rank("full") < tier_rank("lod-1") < tier_rank("lod-2")
        assert tier_rank("lod-9") < tier_rank("baseline")
        assert is_lod_tier("lod-4")
        assert not is_lod_tier("full")
        assert not is_lod_tier(None)

    def test_lod_config_parse(self):
        assert LodConfig.parse(None) is None
        assert LodConfig.parse("off") is None
        assert LodConfig.parse(False) is None
        assert LodConfig.parse("auto").mode == "auto"
        assert LodConfig.parse(True).mode == "auto"
        cfg = LodConfig.parse(250)
        assert cfg.mode == "budget" and cfg.budget_ms == 250
        assert LodConfig.parse("125.5").budget_ms == pytest.approx(125.5)
        with pytest.raises(ValueError):
            LodConfig.parse(-5)
        with pytest.raises(ValueError):
            LodConfig.parse("nonsense")

    def test_parse_lod_value_http(self):
        from repro.service import BadRequest

        assert parse_lod_value(None) is None
        assert parse_lod_value("off") == "off"
        assert parse_lod_value("auto") == "auto"
        assert parse_lod_value("250") == pytest.approx(250.0)
        assert parse_lod_value(True) == "auto"
        with pytest.raises(BadRequest):
            parse_lod_value("fast")
        with pytest.raises(BadRequest):
            parse_lod_value(-1)

    def test_layout_doc_from_query(self):
        from repro.service import BadRequest

        doc = layout_doc_from_query(
            "graph=road&scale=small&seed=3&s=8&lod=auto&include_coords=false"
        )
        assert doc["graph"] == "road"
        assert doc["seed"] == 3 and doc["s"] == 8
        assert doc["lod"] == "auto"
        assert doc["include_coords"] is False
        with pytest.raises(BadRequest):
            layout_doc_from_query("graph=x&bogus=1")


# ---------------------------------------------------------------------------
# progressive generator
# ---------------------------------------------------------------------------


class TestProgressiveLayout:
    def test_monotone_tiers_end_full(self, tiny_mesh):
        frames = list(
            progressive_layout(
                tiny_mesh,
                8,
                config=LodConfig(min_vertices=1, coarsest_size=64),
            )
        )
        assert len(frames) >= 3
        ranks = [tier_rank(f.tier) for f in frames]
        assert ranks == sorted(ranks, reverse=True)
        assert frames[-1].tier == "full"
        for f in frames:
            assert f.result.coords.shape == (tiny_mesh.n, 2)
            assert f.result.quality_tier == f.tier

    def test_small_graph_single_full_frame(self, path10):
        frames = list(progressive_layout(path10, 4))
        assert [f.tier for f in frames] == ["full"]


# ---------------------------------------------------------------------------
# ProgressiveEngine
# ---------------------------------------------------------------------------


_LOD_CFG = LodConfig(min_vertices=1, coarsest_size=64, refine_sweeps=1)


def _grid_loader(name, scale, seed):
    if name != "grid":
        raise KeyError(name)
    return preprocess(grid2d(30, 30), name="grid")


def _poll_until_full(eng, req, budget=30.0):
    tiers = []
    deadline = time.time() + budget
    while time.time() < deadline:
        resp = eng.submit(req)
        tier = resp.result.quality_tier
        if not tiers or tier != tiers[-1]:
            tiers.append(tier)
        if tier == "full":
            return tiers, resp
        time.sleep(0.02)
    raise AssertionError(f"never reached full tier; saw {tiers}")


class TestProgressiveEngine:
    @pytest.fixture()
    def eng(self):
        e = ProgressiveEngine(
            LayoutEngine(graph_loader=_grid_loader, workers=2, timeout=60),
            config=_LOD_CFG,
        )
        yield e
        e.close()

    def test_first_paint_is_coarse_then_converges(self, eng):
        req = LayoutRequest(graph="grid", s=8, lod="auto")
        resp = eng.submit(req)
        assert resp.status == "computed"
        first = resp.result.quality_tier
        assert is_lod_tier(first)
        assert resp.result.coords.shape == (900, 2)
        tiers, final = _poll_until_full(eng, req)
        ranks = [tier_rank(t) for t in [first] + tiers]
        assert ranks == sorted(ranks, reverse=True)
        assert final.result.quality_tier == "full"
        snap = eng.stats()
        assert snap["counters"]["lod.first_paint"] == 1
        assert snap["counters"]["lod.converged"] >= 1
        assert snap["gauges"]["lod.refine_backlog"] == 0.0
        assert len(snap["lod"]["hierarchies"]) == 1

    def test_converged_requests_hit_cache_full(self, eng):
        req = LayoutRequest(graph="grid", s=8, lod="auto")
        eng.submit(req)
        _poll_until_full(eng, req)
        resp = eng.submit(req)
        assert resp.status in ("memory-hit", "disk-hit")
        assert resp.result.quality_tier == "full"

    def test_non_lod_request_never_sees_lod_cache(self, eng):
        req = LayoutRequest(graph="grid", s=8, lod="auto")
        first = eng.submit(req)
        assert is_lod_tier(first.result.quality_tier)
        # Same fingerprint, but with LOD off: the coarse cache entry
        # must be treated as a miss and a genuine full layout computed.
        resp = eng.submit(LayoutRequest(graph="grid", s=8))
        assert resp.result.quality_tier == "full"
        assert eng.stats()["counters"]["lod.tier_misses"] >= 1
        _poll_until_full(eng, req)

    def test_update_invalidates_refinement(self, eng):
        req = LayoutRequest(graph="grid", s=8, lod="auto")
        eng.submit(req)
        from repro.service import UpdateRequest

        eng.update(UpdateRequest(graph="grid", inserts=((0, 899),)))
        # The refinement chain for the pre-update content must abort or
        # its publishes be rejected; polling converges on the *new*
        # graph's full layout regardless.
        tiers, final = _poll_until_full(eng, req)
        assert final.result.quality_tier == "full"
        assert final.result.coords.shape == (900, 2)

    def test_small_graph_bypasses_lod(self):
        e = ProgressiveEngine(
            LayoutEngine(graph_loader=_grid_loader, workers=2),
            config=LodConfig(min_vertices=10_000),
        )
        try:
            resp = e.submit(LayoutRequest(graph="grid", s=6, lod="auto"))
            assert resp.result.quality_tier == "full"
            assert e.stats()["counters"]["lod.bypass_small"] == 1
        finally:
            e.close()

    @pytest.mark.parametrize(
        "config, bypass",
        [
            (LodConfig(min_vertices=10_000), "lod.bypass_small"),
            (_LOD_CFG, "lod.bypass_constrained"),
        ],
    )
    def test_bypass_resolves_and_validates_once(self, config, bypass):
        # A request the LOD path hands back to the plain engine must be
        # validated once: its per-request counters match lod=None's.
        params = {
            "pins": [[3, [0.1, 0.1]]],
            "kernels": {"traversal": "batched"},
        }
        counts = {}
        for lod in (None, "auto"):
            e = ProgressiveEngine(
                LayoutEngine(graph_loader=_grid_loader, workers=1),
                config=config,
            )
            try:
                e.submit(
                    LayoutRequest(graph="grid", s=6, params=params, lod=lod)
                )
                c = e.stats()["counters"]
                counts[lod] = (
                    c.get("constraints.requests"),
                    c.get("kernels.traversal.batched"),
                    c.get(bypass),
                )
            finally:
                e.close()
        assert counts[None] == (1, 1, None)
        assert counts["auto"] == (1, 1, 1)

    def test_lod_off_by_default(self, eng):
        resp = eng.submit(LayoutRequest(graph="grid", s=6))
        assert resp.result.quality_tier == "full"
        assert "lod.first_paint" not in eng.stats()["counters"]

    def test_default_mode_applies_to_bare_requests(self):
        e = ProgressiveEngine(
            LayoutEngine(graph_loader=_grid_loader, workers=2),
            lod="auto",
            config=_LOD_CFG,
        )
        try:
            resp = e.submit(LayoutRequest(graph="grid", s=6))
            assert is_lod_tier(resp.result.quality_tier)
            # Per-request off overrides the engine default.
            resp = e.submit(LayoutRequest(graph="grid", s=7, lod="off"))
            assert resp.result.quality_tier == "full"
        finally:
            e.close()

    def test_in_memory_graph_lod(self, eng, tiny_mesh):
        req = LayoutRequest(graph=tiny_mesh, s=8, lod="auto")
        resp = eng.submit(req)
        assert is_lod_tier(resp.result.quality_tier)
        tiers, final = _poll_until_full(eng, req)
        assert final.result.quality_tier == "full"

    def test_budget_mode_picks_depth(self, eng):
        resp = eng.submit(LayoutRequest(graph="grid", s=8, lod=0.001))
        # A near-zero budget must still serve (coarsest available tier).
        assert resp.result.quality_tier != ""
        snap = eng.stats()
        assert snap["counters"]["lod.requests"] >= 1

    def test_stats_has_lod_section(self, eng):
        snap = eng.stats()
        assert snap["lod"]["distortion_bound"] == _LOD_CFG.distortion_bound
        assert snap["lod"]["hierarchies"] == []
