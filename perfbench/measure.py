"""Timed, traced, validated and counted runs of one benchmark workload.

One run of the benchmark measures one workload at one seed:

1. A few fresh interpreters each import the simulator and build both
   deployments up to ``on_run_start`` (``setup_probe.py``); the median
   is the set-up time.  Imports read cached bytecode, as they do for a
   user past the first run.
2. One untimed warm-up operating point (``ExperimentRunner.compare``)
   fills lazy imports and caches; the peak RSS is read after it.
3. Timed operating points repeat until the time budget is spent, each
   deployment's simulate phase preceded by a sample of the host-speed
   reference loops (``hostspeed.py``).  With tracing on, untraced and
   traced points alternate, after one point counted under
   ``sys.setprofile``.
4. One run under :class:`~repro.validation.engine.ValidationObserver`
   checks the invariants.  It comes last and is not timed, because its
   per-event monitor and post-horizon drain would tax the timed points.

Every point must reproduce the validated run's report byte for byte,
and its event and frame counts exactly.  A point that raises or differs,
and a violated invariant, count as failed.

Frames are counted at the generators over the whole horizon, warm-up
included, when ``on_run_end`` fires; the windowed
``DeploymentReport.packets_sent`` would overstate every per-frame cost.
The simulate phase of a deployment runs from ``on_run_start`` to
``on_run_end``.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.program import PayloadParkProgram
from repro.experiments.runner import ExperimentRunner, RunObserver, run_observer
from repro.validation.engine import ValidationObserver

from perfbench import workloads
from perfbench.hostspeed import HostSpeed
from perfbench.tracer import LayerTracer, wrapper_cost

#: Untraced (and traced) points measured even when the budget is spent.
MIN_POINTS = 3
#: Fresh interpreters timed for the set-up figures.
SETUP_PROBES = 5

_ROOT = Path(__file__).resolve().parent.parent


@dataclass
class DeploymentSample:
    """What one deployment run did, read when ``on_run_end`` fires."""

    setup_s: float
    simulate_s: float
    #: The host-speed reference loops' time, sampled right before the
    #: simulate phase; 0 when the point was not timed against them.
    host_s: float
    frames: int
    events: int
    counters: Dict[str, float]


@dataclass
class Point:
    """One operating point: both deployments of one ``compare`` call."""

    wall_s: float
    report: str
    deployments: Dict[str, DeploymentSample]
    tracer: Optional[LayerTracer] = None
    py_calls: int = 0

    @property
    def frames(self) -> int:
        return sum(sample.frames for sample in self.deployments.values())

    @property
    def simulate_s(self) -> float:
        return sum(sample.simulate_s for sample in self.deployments.values())

    @property
    def setup_s(self) -> float:
        return sum(sample.setup_s for sample in self.deployments.values())

    def fingerprint(self):
        """What every point of one workload and seed must reproduce."""
        counts = {
            name: (sample.frames, sample.events) for name, sample in self.deployments.items()
        }
        return self.report, counts


def _layer_counters(topology, program) -> Dict[str, float]:
    """Whole-horizon counters of the layers that keep their own."""
    counters: Dict[str, float] = {
        "link_buffer_drops": 0,
        "nf_offered": 0,
        "nf_dropped": 0,
        "splits": 0,
        "merges": 0,
        "premature_evictions": 0,
        "segments_sent": 0,
        "retransmitted_segments": 0,
        "timeouts": 0,
        "fluid_time_ns": 0,
        "jumps": 0,
        "rejected_calibrations": 0,
        "horizon_ns": topology.env.now,
    }
    for attachment in topology.attachments:
        links = (*attachment.gen_links, attachment.server_link)
        counters["link_buffer_drops"] += sum(link.buffer_drops() for link in links)
        server = attachment.server.stats()
        counters["nf_offered"] += server["accepted_packets"] + server["overflow_drops"]
        counters["nf_dropped"] += server["chain_dropped_packets"] + server["overflow_drops"]
        transport = attachment.pktgen.transport
        if transport is not None:
            summary = transport.state_summary()
            for key in ("segments_sent", "retransmitted_segments", "timeouts"):
                counters[key] += summary[key]
    if isinstance(program, PayloadParkProgram):
        park = program.counters_for().as_dict()
        for key in ("splits", "merges", "premature_evictions"):
            counters[key] += park[key]
    controller = getattr(topology, "tier_controller", None)
    if controller is not None:
        counters["fluid_time_ns"] = controller.fluid_time_ns
        counters["jumps"] = len(controller.jumps)
        counters["rejected_calibrations"] = controller.rejected_calibrations
    return counters


class _PointObserver(RunObserver):
    """Times each deployment's phases and reads its counters.

    *inner* (the validation observer) sees the run after this observer
    has read it, so its post-horizon drain is neither timed nor counted.
    With *count_calls*, Python function calls inside the simulate phase
    are counted through ``sys.setprofile``.
    """

    def __init__(self, started: float, inner: Optional[RunObserver] = None,
                 count_calls: bool = False, host: Optional[HostSpeed] = None) -> None:
        self.inner = inner
        self.count_calls = count_calls
        self.host = host
        self.py_calls = 0
        #: Wall time spent in the reference loops, kept out of the point's.
        self.host_wall_s = 0.0
        self.samples: Dict[str, DeploymentSample] = {}
        self._mark = started
        self._setup_s = 0.0
        self._host_s = 0.0

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self.py_calls += 1

    def on_run_start(self, scenario, deployment, topology, program) -> None:
        # The previous deployment's testbed is garbage by now.  Collecting
        # it here, always, keeps its pause and its memory from landing
        # wherever the allocation counters happen to trigger a collection,
        # which made run time and peak RSS bimodal across seeds.
        gc.collect()
        if self.inner is not None:
            self.inner.on_run_start(scenario, deployment, topology, program)
        now = time.perf_counter()
        self._setup_s = now - self._mark
        self._mark = now
        if self.host is not None:
            self._host_s = self.host.sample()
            self._mark = time.perf_counter()
            self.host_wall_s += self._mark - now
        if self.count_calls:
            sys.setprofile(self._profile)

    def on_run_end(self, scenario, deployment, topology, program, reports) -> None:
        if self.count_calls:
            sys.setprofile(None)
        now = time.perf_counter()
        self.samples[deployment.value] = DeploymentSample(
            setup_s=self._setup_s,
            simulate_s=now - self._mark,
            host_s=self._host_s,
            frames=sum(a.pktgen.packets_sent for a in topology.attachments),
            events=topology.env.events_executed,
            counters=_layer_counters(topology, program),
        )
        if self.inner is not None:
            self.inner.on_run_end(scenario, deployment, topology, program, reports)
        self._mark = time.perf_counter()


def run_point(workload: str, seed: int, time_scale: float = 1.0,
              inner: Optional[RunObserver] = None, tracer: Optional[LayerTracer] = None,
              count_calls: bool = False, host: Optional[HostSpeed] = None) -> Point:
    """Build the workload's scenario and run both deployments once.

    With *host*, each deployment's simulate phase is preceded by a
    sample of the reference loops, whose time is left out of every
    time the point reports.
    """
    gc.collect()
    started = time.perf_counter()
    observer = _PointObserver(started, inner=inner, count_calls=count_calls, host=host)
    traced = tracer.installed() if tracer is not None else nullcontext()
    with run_observer(observer), traced:
        result = ExperimentRunner(time_scale=time_scale).compare(workloads.build(workload, seed))
    wall_s = time.perf_counter() - started - observer.host_wall_s
    return Point(
        wall_s=wall_s,
        report=json.dumps(asdict(result.comparison), sort_keys=True),
        deployments=observer.samples,
        tracer=tracer,
        py_calls=observer.py_calls,
    )


def probe_setup(workload: str, seed: int, time_scale: float, probes: int) -> List[Dict[str, float]]:
    """Time import and build in *probes* fresh interpreters.

    The interpreters share a bytecode cache in ``.perfbench-cache``,
    filled by one untimed probe first, so every timed import is warm
    whether or not the environment lets Python write bytecode.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(_ROOT / ".perfbench-cache")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_ROOT / "src"), str(_ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(_ROOT / "perfbench" / "setup_probe.py"),
        workload, str(seed), repr(time_scale),
    ]
    results = []
    for _ in range(probes + 1):
        done = subprocess.run(
            command, env=env, cwd=str(_ROOT), capture_output=True, text=True,
            timeout=120, check=True,
        )
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results[1:]


@dataclass
class Measurement:
    """Everything one benchmark run measured, with its verdict."""

    workload: str
    seed: int
    #: Runs attempted and failed: the batch of set-up probes, every
    #: operating point and the validated run.
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    setup: List[Dict[str, float]] = field(default_factory=list)
    untraced: List[Point] = field(default_factory=list)
    traced: List[Point] = field(default_factory=list)
    counted: Optional[Point] = None
    peak_rss_mb: float = 0.0
    #: Times of the host-speed reference loops (see perfbench.hostspeed).
    host_samples: List[float] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


class _Runs:
    """Runs points and checks them against the validated run."""

    def __init__(self, measurement: Measurement, time_scale: float) -> None:
        self.m = measurement
        self.time_scale = time_scale
        #: The reference loops, once built; points run before are untimed.
        self.host: Optional[HostSpeed] = None
        self._unchecked: List[Tuple[str, Point]] = []

    def fail(self, message: str) -> None:
        self.m.failed += 1
        self.m.problems.append(message)
        print(f"perfbench: {message}", file=sys.stderr)

    def run(self, label: str, **kwargs) -> Optional[Point]:
        """One point; None when it raised or its trace does not add up."""
        self.m.attempted += 1
        try:
            point = run_point(
                self.m.workload, self.m.seed, self.time_scale, host=self.host, **kwargs
            )
        except Exception:
            self.fail(f"{label} run raised:\n" + traceback.format_exc())
            return None
        if point.tracer is not None and not point.tracer.reconciles():
            self.fail(f"{label} run's layer self times do not sum to its simulate span")
            return None
        self._unchecked.append((label, point))
        return point

    def validate(self) -> None:
        """The validated run; every earlier point must reproduce it."""
        self.m.attempted += 1
        observer = ValidationObserver()
        try:
            reference = run_point(
                self.m.workload, self.m.seed, self.time_scale, inner=observer
            ).fingerprint()
        except Exception:
            self.fail("validated run raised:\n" + traceback.format_exc())
            return
        if observer.violations:
            self.fail(
                f"{len(observer.violations)} invariant violation(s), first: "
                + json.dumps(observer.violations[0].as_dict(), sort_keys=True)
            )
        for label, point in self._unchecked:
            if point.fingerprint() != reference:
                self.fail(f"{label} run's report or counts differ from the validated run's")


def measure(workload: str, seed: int, seconds: float, trace: bool,
            time_scale: float = 1.0, probes: int = SETUP_PROBES) -> Measurement:
    """Measure *workload* at *seed* for about *seconds* of timed points."""
    m = Measurement(workload=workload, seed=seed)
    runs = _Runs(m, time_scale)
    m.attempted += 1
    try:
        m.setup = probe_setup(m.workload, m.seed, time_scale, probes)
    except (subprocess.SubprocessError, ValueError) as exc:
        runs.fail(f"set-up probe failed: {exc!r} {getattr(exc, 'stderr', '')}")
    runs.run("warm-up")
    # Read before the reference loops are built, and before the
    # validated run, whose post-horizon drain and invariant checks
    # would set the peak otherwise.
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    runs.host = HostSpeed()
    m.host_samples = runs.host.samples
    if trace:
        cost = wrapper_cost()
        m.counted = runs.run("counted", count_calls=True)
    deadline = time.perf_counter() + seconds
    while True:
        point = runs.run("untraced")
        if point is not None:
            m.untraced.append(point)
        if trace:
            point = runs.run("traced", tracer=LayerTracer(*cost))
            if point is not None:
                m.traced.append(point)
        enough = len(m.untraced) >= MIN_POINTS and (not trace or len(m.traced) >= MIN_POINTS)
        if time.perf_counter() >= deadline and (enough or m.failed):
            break
    runs.validate()
    return m
