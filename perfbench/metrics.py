"""End-to-end metrics from measured passes.

Gaps are the times between consecutive emissions of one input; for the
verify workload an emission is one graph's finished report, so a gap is the
latency of one ``verify`` call.
"""

from __future__ import annotations

import statistics

TAIL_PCT = 98.0


def percentile(values, pct: float) -> float:
    """Linear-interpolation percentile of ``values`` (pct in 0..100)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def scaled_intervals(p, factor) -> list[float]:
    """``p.intervals()``, each scaled by ``factor`` of its stretch's count
    (see ``Pass.cuts``)."""
    out = p.intervals()
    bounds = p.cuts + [(len(out), 0)]
    for (lo, count), (hi, _) in zip(bounds, bounds[1:]):
        scale = factor(count)
        for k in range(lo, hi):
            out[k] *= scale
    return out


def gaps_of(intervals: list[float]) -> list[float]:
    """Gaps between one input's emissions; a verify pass has one emission,
    timed from the start of the call."""
    return intervals if len(intervals) == 1 else intervals[1:]


def end_to_end(passes, sampler) -> tuple[dict, dict]:
    """The end-to-end metrics of one run, with times scaled to the
    reference host by ``sampler``, and notes printed beside them."""
    scaled = [scaled_intervals(p, sampler.factor) for p in passes]
    gaps = [g for iv in scaled for g in gaps_of(iv)]
    busy = sum(sum(iv) for iv in scaled)
    raw_busy = sum(p.elapsed for p in passes)
    setups = sampler.setup_medians()
    solutions = sum(p.solutions for p in passes)
    factors = [sampler.factor(c) for c in range(1, sampler.count + 1)]
    metrics = {
        "solutions_per_s": (solutions / busy, "1/s"),
        "graphs_per_s": (len(passes) / busy, "1/s"),
        "delay_p50_ms": (statistics.median(gaps) * 1e3, "ms"),
        "delay_tail_ms": (percentile(gaps, TAIL_PCT) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (passes[0].rss_mib, "MiB"),
    }
    notes = {
        "solutions_per_s": f"{solutions} solutions in {busy:.3f} reference "
                           f"s ({solutions / raw_busy:.6g}/s unscaled)",
        "graphs_per_s": f"{len(passes)} graphs",
        "delay_p50_ms": f"{len(gaps)} gaps; host factor median "
                        f"{statistics.median(factors):.3f} over "
                        f"{len(factors)} samples",
        "delay_tail_ms": f"p{TAIL_PCT:g} of {len(gaps)} gaps",
        "setup_s": f"median over {len(setups)} inputs of each one's "
                   "median set-up",
        "peak_rss_mib": "ru_maxrss when the first input ended",
    }
    return metrics, notes
