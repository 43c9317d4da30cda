"""Names of the benchmark's workloads and metrics, and what each layer moves.

BENCHMARK.json declares the same names with their units, directions and
bounds; the self-test checks that the two agree.  PER_LAYER also records,
for every per-layer metric, the end-to-end metric it should move and the
workloads where it should move it, so that a change on one layer can name
its prediction before it is measured.
"""

WORKLOADS = ("detect-l2", "detect-lp", "associate")

# (name, unit, better)
END_TO_END = [
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("exponent_max_err", "exponent", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
]

_L2, _LP, _AS = ("detect-l2",), ("detect-lp",), ("associate",)
_DETECT = _L2 + _LP
_LAT = "latency_p50_ms, throughput_per_s"


_UNITS = {
    "calls": "calls/analysis",
    "self_ms": "ms/analysis",
    "points": "points/analysis",
    "computed_bytes": "B/analysis",
    "windows_tried": "fits/analysis",
    "escalations": "count/analysis",
}
_CS = ("calls", "self_ms")


def _layer(prefix, stats, moves, workloads):
    return [(f"{prefix}.{s}", _UNITS[s], "lower", moves, workloads) for s in stats]


# (name, unit, better, end-to-end metric it should move, workloads)
PER_LAYER = (
    _layer("spectral.lp_norm.p2", _CS, _LAT, _L2)
    + _layer("spectral.dft_synthesize", _CS + ("points", "computed_bytes"), _LAT, _L2)
    + _layer("spectral.lp_norm.p1", _CS, "latency_p90_ms, peak_rss_mb", _LP)
    + _layer("spectral.lp_norm.pinf", _CS, "latency_p50_ms", _LP + _AS)
    + _layer("spectral.SpectralFunction.derivative", _CS, _LAT, _L2)
    + _layer("spectral.convolve_scaled", _CS, "throughput_per_s", _AS)
    + _layer("kernels.Kernel.profile", ("calls", "points", "self_ms"), "throughput_per_s", _AS)
    + _layer("spectral.SpectralFunction.construct", _CS, "throughput_per_s", _AS)
    + _layer("spectral.pairing", _CS, "throughput_per_s", _AS)
    + _layer("nets.NetSpec.call", _CS, "throughput_per_s", _AS)
    + [("nets.eval_distinct_ratio", "ratio", "higher", "throughput_per_s", _AS)]
    + _layer("association.pairing_profile", _CS, _LAT, _AS)
    + _layer("association.association_verdict", _CS, _LAT, _AS)
    + _layer("nets.net_sobolev_profile", _CS, _LAT, _AS)
    + _layer("nets.classify_moderate", _CS, _LAT, _AS)
    + _layer("nets.classify_negligible", _CS, _LAT, _AS)
    + _layer("nets.spike_integral", ("calls",), _LAT, _AS)
    + _layer("scales.critical_exponent", _CS + ("windows_tried",), "latency_p50_ms", _AS + _LP)
    + _layer("besov.detect_regularity", _CS + ("escalations",), "latency_p90_ms", _DETECT)
    + _layer("besov.detect_smooth", _CS, "latency_p90_ms", _DETECT)
    + [
        ("signals.generate.calls", "calls/setup", "lower", "setup_s", _L2 + _LP + _AS),
        ("signals.generate.self_ms", "ms/setup", "lower", "setup_s", _L2 + _LP + _AS),
        ("bench.trace_overhead_pct", "%", "lower", "none (tracing cost)", _L2 + _LP + _AS),
        ("bench.call_count_mismatches", "count", "lower", "none (tracer coverage)", _L2 + _LP + _AS),
    ]
)
