"""Benchmark the packet-level simulator on one workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig07-10g --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics, measured untraced;
``--trace 1`` reports the per-layer metrics from a separate traced
measurement.  Every metric is printed as ``name value unit``, with
times scaled to a reference host speed (``perfbench/hostspeed.py``).
``run_s`` (see ``metrics.UNLISTED``) and ``error_rate`` are printed but
left out of the JSON's metrics; ``error_rate`` is 0 on a correct run,
and every listed metric must be non-zero.  The last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every run was correct, 1 when one failed and 2 when the
simulator's sources are missing or an argument is invalid.  The
workloads are described in ``perfbench/workloads.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must not be negative")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import metrics, workloads
    from perfbench.measure import measure

    if args.workload not in workloads.SCENARIOS:
        print(
            f"error: unknown workload {args.workload!r}; expected one of "
            f"{sorted(workloads.SCENARIOS)}",
            file=sys.stderr,
        )
        return 2

    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    points = m.traced if args.trace else m.untraced
    results = {}
    if m.correct and points:
        results = metrics.per_layer(m) if args.trace else metrics.end_to_end(m)
        kind = "traced" if args.trace else "untraced"
        print(f"workload {m.workload} seed {m.seed}: {len(points)} {kind} points")
        for name, (value, unit) in results.items():
            print(f"{name} {value!r} {unit}")
        print(f"  times scaled to the reference host by {metrics.host_scale(m)!r} (run median)")
        if args.trace:
            for name, share in sorted(metrics.layer_shares(m).items(), key=lambda kv: -kv[1]):
                print(f"  self time {name}: {share:.1%} of the simulate span")
    print(f"error_rate {m.failed / max(m.attempted, 1)!r} ratio")
    listed = {name: value for name, value in results.items() if name not in metrics.UNLISTED}
    print(json.dumps({
        "correct": m.correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in listed.items()
        },
    }))
    return 0 if m.correct else 1


if __name__ == "__main__":
    sys.exit(main())
