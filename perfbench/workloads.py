"""The benchmark's workloads: four operating points of the simulator.

Each workload is one scenario run with both deployments (baseline, then
PayloadPark) by ``ExperimentRunner.compare``.  The seed given on the
command line becomes the scenario seed, so the same seed always builds
the same traffic.  ``WHY`` records, for each workload, which layers it
loads and which it bypasses; ``BENCHMARK.json`` repeats these sentences.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict

from repro.experiments import scenarios
from repro.experiments.runner import ScenarioConfig

#: Seed used when a figure is quoted without one, and a seed kept out of
#: tuning so that a later performance claim can be checked on it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9173


def _fig07_10g() -> ScenarioConfig:
    return scenarios.fw_nat_lb_10ge(10.5)


def _flood_churn() -> ScenarioConfig:
    # A 1 ms horizon (250 us warm-up): the flood offers ~8.7k frames per
    # simulated millisecond and every frame opens a NAT binding that is
    # never released, so the 40,001-port pool raises NatPortExhausted
    # past ~4.6 ms.  At 1 ms one operating point also takes about as
    # long to simulate as fig07-10g's 6 ms.
    scenario = scenarios.workload_scenario("flood-churn", chain="fw_nat_lb")
    return replace(scenario, duration_us=1_000.0, warmup_us=250.0)


def _incast_collapse() -> ScenarioConfig:
    return scenarios.workload_scenario("incast-collapse")


def _steady_auto() -> ScenarioConfig:
    # Not listed in BENCHMARK.json: fluid jumps extrapolate each link's
    # sent and delivered counters separately, so the validated run fails
    # the packet-conservation invariant and the workload never measures
    # as correct.
    return replace(scenarios.fw_nat_lb_10ge(6.0), duration_us=120_000.0, fidelity="auto")


SCENARIOS: Dict[str, Callable[[], ScenarioConfig]] = {
    "fig07-10g": _fig07_10g,
    "flood-churn": _flood_churn,
    "incast-collapse": _incast_collapse,
    "steady-auto": _steady_auto,
}

WHY: Dict[str, str] = {
    "fig07-10g": (
        "Headline point: FW-NAT-LB at 10.5 Gbps, enterprise mix; pipeline, parking "
        "table and NF chain do the work with every per-flow cache hitting."
    ),
    "flood-churn": (
        "64 B frames, fresh 5-tuple each: every per-flow cache misses and nothing "
        "parks, so split/merge is bypassed; smallest frame, per-packet cost dominates."
    ),
    "incast-collapse": (
        "64 NewReno flows in closed loop: the only workload where transport, link "
        "buffer drops and premature parking evictions do work."
    ),
    "steady-auto": (
        "FW-NAT-LB at 6 Gbps over 120 ms with fidelity auto: fluid jumps cover most "
        "of the horizon, the only workload where the fidelity tier works."
    ),
}


def build(name: str, seed: int) -> ScenarioConfig:
    """The scenario of workload *name*, seeded with *seed*."""
    return replace(SCENARIOS[name](), seed=seed)
