"""Outside-in layer tracing: time the public methods of each layer.

:class:`LayerTracer` replaces a fixed set of methods on their classes
with timing wrappers for the duration of a ``with tracer.installed():``
block and puts the originals back afterwards.  The simulator looks these
methods up on the instance at every call, so the wrappers see every
call without any change to the simulator.

Each wrapped call is a span.  A span's self time is its duration minus
the time covered by the spans it encloses.  The spans a traced run
opens at the top level are the event loop's ``run_until`` (and, on the
fidelity tier, ``TierController.advance``); together they are the
simulate span, and the self time of ``run_until`` is the part of it no
other layer claims: event dispatch plus every callback that is not
wrapped.

A wrapper costs time of its own.  :func:`wrapper_cost` measures that
cost on a no-op method: ``inside_ns`` is the part that falls within the
span it opens, ``outside_ns`` the part that falls in the enclosing span.
:meth:`LayerTracer.layers` subtracts both, so the corrected self times
still sum to the corrected simulate span.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Tuple

#: Layer name -> the ``module:Class.method`` targets timed as that layer.
LAYER_TARGETS: Dict[str, Tuple[str, ...]] = {
    "eventloop": ("repro.netsim.topology:BaseTopology.run_until",),
    "fidelity": ("repro.fidelity.controller:TierController.advance",),
    "link": ("repro.netsim.link:Link.transmit",),
    "trafficgen": (
        "repro.traffic.pktgen:PacketFactory.next_packet",
        "repro.workloads.generative:GenerativePacketSource.next_packet",
    ),
    "switch.node": ("repro.netsim.switch_node:SwitchNode.handle_packet",),
    # ``SwitchProgram.process`` is inherited; wrapping it on each
    # subclass splits the pipeline pass by program.
    "switch.baseline": ("repro.core.program:BaselineProgram.process",),
    "switch.payloadpark": ("repro.core.program:PayloadParkProgram.process",),
    "park.probe": ("repro.core.lookup_table:LookupTable.probe_and_claim",),
    "park.release": ("repro.core.lookup_table:LookupTable.validate_and_release",),
    "nf.rx": ("repro.netsim.server_node:NfServerNode.handle_packet",),
    "nf.chain": ("repro.nf.server:NfServerModel.process_packet",),
    "transport": ("repro.workloads.transport:ClosedLoopTransport.on_delivery",),
}

#: Index of each field in a layer's raw record.
CALLS, TOTAL_NS, SELF_NS, CHILD_CALLS = range(4)


def resolve_target(target: str):
    module_name, _, qualname = target.partition(":")
    class_name, _, method = qualname.partition(".")
    return getattr(importlib.import_module(module_name), class_name), method


class LayerTracer:
    """Span bookkeeping for the layers in :data:`LAYER_TARGETS`."""

    def __init__(self, inside_ns: float = 0.0, outside_ns: float = 0.0) -> None:
        #: One ``[child_ns, child_calls]`` frame per open span; the bottom
        #: frame collects the top-level spans.
        self._stack: List[List[int]] = [[0, 0]]
        self.records: Dict[str, List[int]] = {name: [0, 0, 0, 0] for name in LAYER_TARGETS}
        #: The wrapper's own cost per call, from :func:`wrapper_cost`.
        self.inside_ns = inside_ns
        self.outside_ns = outside_ns

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #

    def _wrap(self, record: List[int], fn):
        clock = time.perf_counter_ns
        stack = self._stack

        def traced(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record[CALLS] += 1
                record[TOTAL_NS] += elapsed
                record[SELF_NS] += elapsed - frame[0]
                record[CHILD_CALLS] += frame[1]
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += 1

        return traced

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every layer target; restore the classes on exit."""
        saved = []
        try:
            for layer, targets in LAYER_TARGETS.items():
                for target in targets:
                    cls, method = resolve_target(target)
                    saved.append((cls, method, cls.__dict__.get(method)))
                    setattr(cls, method, self._wrap(self.records[layer], getattr(cls, method)))
            yield self
        finally:
            for cls, method, original in reversed(saved):
                if original is None:
                    delattr(cls, method)
                else:
                    setattr(cls, method, original)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    @property
    def simulate_raw_ns(self) -> int:
        """Summed duration of the top-level spans, wrapper cost included."""
        return self._stack[0][0]

    def layers(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls and self time net of the wrapper cost (ns)."""
        return {
            name: {
                "calls": record[CALLS],
                "self_ns": record[SELF_NS]
                - record[CALLS] * self.inside_ns
                - record[CHILD_CALLS] * self.outside_ns,
            }
            for name, record in self.records.items()
        }

    def simulate_ns(self) -> float:
        """The simulate span net of the cost of every wrapper inside it."""
        calls = sum(record[CALLS] for record in self.records.values())
        top_calls = self._stack[0][1]
        return (
            self.simulate_raw_ns
            - calls * self.inside_ns
            - (calls - top_calls) * self.outside_ns
        )

    def reconciles(self) -> bool:
        """Whether the layer self times sum to the simulate span.

        Exact on the raw integer clock; to rounding once the wrapper
        cost is taken out.  A span lost to an unbalanced stack, or a
        layer timed outside the simulate span, breaks the identity.
        """
        raw_self = sum(record[SELF_NS] for record in self.records.values())
        net_self = sum(layer["self_ns"] for layer in self.layers().values())
        simulate = self.simulate_ns()
        return (
            len(self._stack) == 1
            and raw_self == self.simulate_raw_ns
            and abs(net_self - simulate) <= 1e-6 * max(abs(simulate), 1.0)
        )


def wrapper_cost(calls: int = 100_000, trials: int = 5) -> Tuple[float, float]:
    """The wrapper's own cost per call, ``(inside_ns, outside_ns)``.

    Measured on a no-op method: the median over *trials* of *calls*
    calls, against the same calls without the wrapper.
    """

    class _Bare:
        def noop(self, value):
            return value

    class _Traced(_Bare):
        pass

    tracer = LayerTracer()
    record = [0, 0, 0, 0]
    _Traced.noop = tracer._wrap(record, _Bare.noop)
    bare, traced = _Bare(), _Traced()
    clock = time.perf_counter_ns
    loops = range(calls)
    inside, total = [], []
    for _ in range(trials):
        start = clock()
        for _ in loops:
            pass
        empty = clock() - start
        start = clock()
        for _ in loops:
            bare.noop(1)
        bare_ns = clock() - start
        record[TOTAL_NS] = 0
        start = clock()
        for _ in loops:
            traced.noop(1)
        wrapped_ns = clock() - start
        total.append((wrapped_ns - bare_ns) / calls)
        inside.append((record[TOTAL_NS] - (bare_ns - empty)) / calls)
    inside_ns = max(statistics.median(inside), 0.0)
    return inside_ns, max(statistics.median(total) - inside_ns, 0.0)
