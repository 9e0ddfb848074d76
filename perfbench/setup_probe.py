"""Time the simulator's set-up in a fresh interpreter.

Usage: ``setup_probe.py WORKLOAD SEED TIME_SCALE`` with ``src`` and the
repository root on ``PYTHONPATH``.  Prints one JSON line:

* ``import_s``: importing the experiment runner and the scenarios;
* ``build_s``: building the workload's scenario and, for each
  deployment, its program and topology up to ``on_run_start``;
* ``host_s``: one sample of the host-speed reference loops
  (``hostspeed.py``), taken afterwards in the same interpreter, so
  that each probe's times can be scaled by the host speed it met.

The deployment runs are stopped at ``on_run_start``, so nothing is
simulated.
"""

import json
import sys
import time


def main(workload: str, seed: int, time_scale: float) -> dict:
    started = time.perf_counter()
    from repro.experiments import scenarios  # noqa: F401  (timed import)
    from repro.experiments.runner import (
        DeploymentKind,
        ExperimentRunner,
        RunObserver,
        run_observer,
    )

    imported = time.perf_counter()
    from perfbench import workloads

    class _Stop(Exception):
        pass

    class _StopAtStart(RunObserver):
        def on_run_start(self, scenario, deployment, topology, program):
            raise _Stop

    build_s = 0.0
    mark = time.perf_counter()
    scenario = workloads.build(workload, seed)
    runner = ExperimentRunner(time_scale=time_scale)
    for deployment in (DeploymentKind.BASELINE, DeploymentKind.PAYLOADPARK):
        try:
            with run_observer(_StopAtStart()):
                runner.run_deployment(scenario, deployment)
        except _Stop:
            build_s += time.perf_counter() - mark
        else:
            raise RuntimeError("the deployment run never reached on_run_start")
        mark = time.perf_counter()
    from perfbench.hostspeed import HostSpeed

    return {"import_s": imported - started, "build_s": build_s, "host_s": HostSpeed().sample()}


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], int(sys.argv[2]), float(sys.argv[3]))))
