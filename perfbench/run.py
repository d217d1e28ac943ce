"""Benchmark of ``parhde serve`` over real HTTP (see perfbench/README.md).

    python3 perfbench/run.py --workload cold-compute --seed 1 --seconds 30 --trace 0

``--workload`` is ``hot-read``, ``cold-compute``, ``edit-mix`` or
``all`` (the three in turn, printing every named metric).  With
``--trace 0`` the server is the plain ``parhde serve`` command, the run
is split over ``PARTS`` freshly set-up servers (``setup_s`` is the
median set-up), and the last line of stdout is a JSON object with the
end-to-end metrics.  With
``--trace 1`` each workload runs for a third of ``--seconds`` against the
span-traced launcher, plus one untraced pass of the named workload for
the tracing overhead, and the JSON carries the per-layer metrics.  Run from the repository
root; everything the run writes goes under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys

from harness import ROOT
import layers
from spans import load_spans
import workloads as wl

WORKLOADS = ("hot-read", "cold-compute", "edit-mix")
RUN = {
    "hot-read": (wl.run_hot_read, wl.summarize_hot_read),
    "cold-compute": (wl.run_cold_compute, wl.summarize_cold_compute),
    "edit-mix": (wl.run_edit_mix, wl.summarize_edit_mix),
}
#: An untraced run is split over this many freshly set-up servers.
PARTS = 3


def _post_checks(workload: str, ctx: dict, scale: str, tally: wl.Tally) -> None:
    if workload == "cold-compute":
        wl.check_cold(ctx, scale, tally)
    elif workload == "edit-mix":
        wl.check_edit_mix(ctx, tally)


def measure(workload, work, scale, seed, seconds, parts, tally, trace_dir=None):
    """Run the workload in ``parts`` parts, each on a freshly set-up server.

    Splitting one run over several servers spreads both the set-ups and
    the measured samples over the whole run, so a slow phase of the
    host weighs on a part rather than on a metric.  Part ``p`` uses the
    stream seed ``16 * seed + p``.  Samples are pooled over the parts;
    ``setup_s`` and ``peak_rss_mb`` are medians over them.  The result
    also keeps the last part's ``/stats`` before and after its window.
    """
    run, summarize = RUN[workload]
    pooled: dict = {}
    setups, rss = [], []
    for part in range(parts):
        server, ctx, elapsed = wl.setup(workload, work, scale, trace_dir)
        setups.append(elapsed)
        try:
            before = wl.stats(server.port)
            res = run(server, ctx, scale, 16 * seed + part, seconds / parts, tally)
            after = wl.stats(server.port)
            # cold-compute and edit-mix read it after a fixed request count.
            rss.append(res.pop("peak_rss_mb", None) or server.peak_rss_mb())
        finally:
            server.stop()
        _post_checks(workload, ctx, scale, tally)
        for key, value in res.items():
            if isinstance(value, list):
                pooled.setdefault(key, []).extend(value)
            elif isinstance(value, (int, float)):
                pooled[key] = pooled.get(key, 0) + value
            else:
                pooled[key] = value
    result = {**pooled, **summarize(pooled)}
    result.update(before=before, after=after, setup_s=wl.p50(setups), peak_rss_mb=wl.p50(rss))
    return result


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": (result["setup_s"], "s"),
        "p50_ms": (result["p50_ms"], "ms"),
        "tail_ms": (result["tail_ms"], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
    }


def report(workload: str, result: dict, tally: wl.Tally) -> None:
    """Human-readable lines: every named metric of the workload, with units."""
    print(f"== {workload}")
    for row in result.get("ladder", ()):
        print(
            f"   ladder {row['rate']:>3} req/s: n={row['n']:<4}"
            f" p50={row['p50_ms']:.1f} ms p{wl.LIMIT_PCT}={row['limit_ms']:.1f} ms"
            f" backlog={row['backlog']} {'ok' if row['passed'] else 'over limit'}"
        )
    named = dict(result["named"])
    named["setup_s"] = (result["setup_s"], "s")
    named["peak_rss_mb"] = (result["peak_rss_mb"], "MiB")
    named["failed_share"] = (tally.failed / max(1, tally.attempted), "ratio")
    for name, (value, unit) in named.items():
        print(f"   {name:<40} {value:12.4f} {unit}")


def run_untraced(workload, work, args, tally) -> dict:
    result = measure(workload, work, args.scale, args.seed, args.seconds, PARTS, tally)
    report(workload, result, tally)
    return end_to_end(result)


def run_traced(workload, work, args, tally) -> dict:
    """One traced pass per workload, plus an untraced pass for the overhead."""
    seconds = max(1.0, args.seconds / 3)
    metrics = {}
    primary = {}
    for name in WORKLOADS:
        trace_dir = work / f"trace-{name}"
        result = measure(name, work, args.scale, args.seed, seconds, 1, tally, trace_dir)
        report(f"{name} (traced)", result, tally)
        metrics.update(layers.BY_WORKLOAD[name](load_spans(trace_dir), result))
        primary[name] = result["p50_ms"]
    base = measure(workload, work, args.scale, args.seed, seconds, 1, tally)
    report(f"{workload} (untraced)", base, tally)
    untraced = base["p50_ms"]
    metrics["trace.overhead_share"] = (
        (primary[workload] - untraced) / untraced if untraced else 0.0, "ratio"
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="medium",
                        help="collection scale of every graph (tiny = quick mode)")
    args = parser.parse_args(argv)
    # A SIGTERM unwinds like an error, so every server is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    tally = wl.Tally()
    metrics: dict = {}
    try:
        if args.trace:
            # One traced pass covers every workload; the overhead pass
            # uses the named one (for "all", cold-compute, whose p50
            # varies least between runs).
            name = "cold-compute" if args.workload == "all" else args.workload
            metrics = run_traced(name, work, args, tally)
        else:
            for name in WORKLOADS if args.workload == "all" else (args.workload,):
                found = run_untraced(name, work, args, tally)
                prefix = f"{name}/" if args.workload == "all" else ""
                metrics.update({prefix + k: v for k, v in found.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for why in tally.reasons:
        print(f"   failed: {why}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
