"""Turn a :class:`~perfbench.measure.Measurement` into named metrics.

End-to-end metrics are medians over the untraced points of one run;
per-layer metrics come from the traced points, the counted point and
the set-up probes.  "Per packet" always means per frame the generators
sent over the whole horizon of both deployments.  Every metric is a
``(value, unit)`` pair.

Every time is scaled to the reference host (see :mod:`perfbench.hostspeed`):
a simulate phase by the reference loops' sample taken right before it, a
set-up probe by the sample taken in its own interpreter, and every other
time by :func:`host_scale`; counts and ratios are not.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from perfbench.hostspeed import REFERENCE_S
from perfbench.measure import DeploymentSample, Measurement, Point

Metrics = Dict[str, Tuple[float, str]]

#: End-to-end metrics printed but left out of ``BENCHMARK.json``:
#: ``run_s`` follows the seed's workload (incast-collapse sends 9,037 or
#: 10,822 frames by seed), so its spread across seeds reaches the largest
#: bound allowed.  ``pkts_per_s`` and ``setup_s`` cover its parts.
UNLISTED = ("run_s",)


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def host_scale(m: Measurement) -> float:
    """Factor that turns a time measured in this run into reference-host time."""
    return REFERENCE_S / statistics.median(m.host_samples)


def _setup_median(m: Measurement, *keys: str) -> float:
    """Median over the set-up probes of the summed *keys*.

    Each probe is scaled by its own reference-loop sample.
    """
    return _median([sum(p[k] for k in keys) * REFERENCE_S / p["host_s"] for p in m.setup])


def _scaled_simulate_s(sample: DeploymentSample) -> float:
    return sample.simulate_s * REFERENCE_S / sample.host_s


def end_to_end(m: Measurement) -> Metrics:
    """Simulator speed, run time, set-up time and memory."""
    points = m.untraced

    def rate(point: Point, deployment: str) -> float:
        sample = point.deployments[deployment]
        return sample.frames / _scaled_simulate_s(sample)

    def point_rate(point: Point) -> float:
        return point.frames / sum(map(_scaled_simulate_s, point.deployments.values()))

    def point_scale(point: Point) -> float:
        return REFERENCE_S / statistics.mean(s.host_s for s in point.deployments.values())

    return {
        "pkts_per_s": (_median([point_rate(p) for p in points]), "1/s"),
        "baseline.pkts_per_s": (_median([rate(p, "baseline") for p in points]), "1/s"),
        "payloadpark.pkts_per_s": (_median([rate(p, "payloadpark") for p in points]), "1/s"),
        "run_s": (_median([p.wall_s * point_scale(p) for p in points]), "s"),
        "setup_s": (_setup_median(m, "import_s", "build_s"), "s"),
        "peak_rss_mb": (m.peak_rss_mb, "MB"),
    }


def _counter(point: Point, key: str) -> float:
    return sum(sample.counters[key] for sample in point.deployments.values())


def _layer_totals(traced: List[Point]) -> Tuple[Dict[str, Dict[str, float]], float]:
    """Calls and self time per layer, and the simulate span, over *traced*."""
    layers: Dict[str, Dict[str, float]] = {}
    for point in traced:
        for name, layer in point.tracer.layers().items():
            total = layers.setdefault(name, {"calls": 0, "self_ns": 0.0})
            total["calls"] += layer["calls"]
            total["self_ns"] += layer["self_ns"]
    return layers, sum(point.tracer.simulate_ns() for point in traced)


def per_layer(m: Measurement) -> Metrics:
    """Per-layer work, self time and waste, from the traced points."""
    traced = m.traced
    scale = host_scale(m)
    layers, simulate_ns = _layer_totals(traced)
    frames = sum(point.frames for point in traced)
    # Counters are identical on every point of a run; read one.
    point = traced[0]

    def calls(name: str) -> float:
        return layers[name]["calls"]

    def self_ns(name: str) -> float:
        return layers[name]["self_ns"] * scale

    def per_call(name: str) -> float:
        return _ratio(self_ns(name), calls(name))

    def per_frame(value: float) -> float:
        return _ratio(value, frames)

    counted = m.counted
    splits = _counter(point, "splits")
    return {
        "setup.import_s": (_setup_median(m, "import_s"), "s"),
        "setup.build_s": (_setup_median(m, "build_s"), "s"),
        "report.s": (
            _median([p.wall_s - p.setup_s - p.tracer.simulate_raw_ns / 1e9 for p in traced])
            * scale,
            "s",
        ),
        "eventloop.events_per_pkt": (
            _ratio(sum(s.events for s in point.deployments.values()), point.frames),
            "1/pkt",
        ),
        "eventloop.self_ns_per_pkt": (per_frame(self_ns("eventloop")), "ns/pkt"),
        "link.calls_per_pkt": (per_frame(calls("link")), "1/pkt"),
        "link.ns_per_call": (per_call("link"), "ns/call"),
        "link.buffer_drops_per_pkt": (
            _ratio(_counter(point, "link_buffer_drops"), point.frames),
            "1/pkt",
        ),
        "trafficgen.ns_per_pkt": (per_call("trafficgen"), "ns/pkt"),
        "switch.passes_per_pkt": (
            per_frame(calls("switch.baseline") + calls("switch.payloadpark")),
            "1/pkt",
        ),
        "switch.baseline.ns_per_pass": (per_call("switch.baseline"), "ns/pass"),
        "switch.payloadpark.ns_per_pass": (per_call("switch.payloadpark"), "ns/pass"),
        "switch.node_self_ns_per_pkt": (per_frame(self_ns("switch.node")), "ns/pkt"),
        "park.probe_ns_per_call": (per_call("park.probe"), "ns/call"),
        "park.release_ns_per_call": (per_call("park.release"), "ns/call"),
        "park.merge_per_split": (_ratio(_counter(point, "merges"), splits), "ratio"),
        "park.premature_per_split": (
            _ratio(_counter(point, "premature_evictions"), splits),
            "ratio",
        ),
        "nf.rx_ns_per_call": (per_call("nf.rx"), "ns/call"),
        "nf.chain_ns_per_pkt": (per_call("nf.chain"), "ns/pkt"),
        "nf.drop_frac": (
            _ratio(_counter(point, "nf_dropped"), _counter(point, "nf_offered")),
            "ratio",
        ),
        "transport.on_delivery_ns_per_call": (per_call("transport"), "ns/call"),
        "transport.retx_frac": (
            _ratio(_counter(point, "retransmitted_segments"), _counter(point, "segments_sent")),
            "ratio",
        ),
        "transport.rto_fires": (_counter(point, "timeouts"), "count"),
        "fidelity.fluid_time_frac": (
            _ratio(_counter(point, "fluid_time_ns"), _counter(point, "horizon_ns")),
            "ratio",
        ),
        "fidelity.controller_self_s": (self_ns("fidelity") / 1e9 / len(traced), "s"),
        "fidelity.jumps": (_counter(point, "jumps"), "count"),
        "fidelity.rejected_calibrations": (_counter(point, "rejected_calibrations"), "count"),
        "trace.unattributed_frac": (
            _ratio(layers["eventloop"]["self_ns"], simulate_ns),
            "ratio",
        ),
        "trace.overhead_frac": (
            _median([p.wall_s for p in traced]) / _median([p.wall_s for p in m.untraced]) - 1.0,
            "ratio",
        ),
        "py_calls_per_pkt": (_ratio(counted.py_calls, counted.frames), "1/pkt"),
    }


def layer_shares(m: Measurement) -> Dict[str, float]:
    """Each layer's self time as a share of the simulate span."""
    layers, simulate_ns = _layer_totals(m.traced)
    return {name: _ratio(layer["self_ns"], simulate_ns) for name, layer in layers.items()}
