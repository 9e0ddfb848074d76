"""How fast the host runs Python right now, from fixed reference loops.

On a shared host the simulator's wall time swings by up to 2x within
seconds, because neighbours contend for the same cores, caches and
memory.  The benchmark therefore times reference loops right before
every deployment's simulate phase, and after every set-up probe, and
scales each of those times by the ratio of :data:`REFERENCE_S` to the
loops' time next to it: a time is reported as it would read on a host
where the loops take :data:`REFERENCE_S`.  The loops belong to the
benchmark, so a change to the simulator cannot move them.

Two loops stand in for the simulator's two kinds of work: one chases
pointers through a shuffled ring of 50,000 objects, each looked up in
its own dict, as the simulator walks its flows, tables and callbacks;
the other runs a small event heap that pops packet-like objects with
payloads of 64 to 1,463 bytes, counts them per flow and schedules new
ones, as the simulator does with frames in flight.  A sample is the
geometric mean of their times.

The loops run in the process whose time they scale, on its core and
beside its memory.  Timed in a separate, otherwise idle interpreter,
they tracked the simulator worse than no scaling at all.  In the
benchmark's own process their ~18 MB are allocated after the peak RSS
has been read.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from typing import List

#: One :meth:`HostSpeed.sample` on the reference host: a 2-vCPU Intel
#: Xeon virtual machine shared with other tenants, in its typical,
#: contended state.
REFERENCE_S = 0.16

_RING = 50_000
_CHASE_STEPS = 200_000
_HEAP = 2_048
_EVENTS = 30_000


class _Node:
    __slots__ = ("next", "value", "table")

    def __init__(self, value: int) -> None:
        self.value = value
        self.table = {"key": value}
        self.next = None


class _Frame:
    __slots__ = ("flow", "payload", "meta")

    def __init__(self, flow, payload: bytes, sent: int) -> None:
        self.flow = flow
        self.payload = payload
        self.meta = {"tx": sent}


class HostSpeed:
    """The reference loops and the times they took."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        rng = random.Random(11)
        nodes = [_Node(index) for index in range(_RING)]
        order = list(range(_RING))
        rng.shuffle(order)
        for current, following in zip(order, order[1:] + order[:1]):
            nodes[current].next = nodes[following]
        self._start = nodes[0]

    def _chase(self) -> int:
        node, total = self._start, 0
        for _ in range(_CHASE_STEPS):
            total += node.table["key"] + node.value
            node = node.next
        return total

    @staticmethod
    def _events() -> int:
        rng = random.Random(5)
        heap, flows, total, seq = [], {}, 0, 0
        for index in range(_HEAP):
            seq += 1
            frame = _Frame((index & 255, index), bytes(64 + index % 1400), index)
            heapq.heappush(heap, (rng.randrange(1000), seq, frame))
        for index in range(_EVENTS):
            now, _, frame = heapq.heappop(heap)
            state = flows.get(frame.flow)
            if state is None:
                flows[frame.flow] = state = [0, 0]
            state[0] += 1
            state[1] += len(frame.payload)
            total += frame.meta["tx"] & 7
            seq += 1
            frame = _Frame(((index * 7) & 4095, index & 3), bytes(64 + (index * 37) % 1400), now)
            heapq.heappush(heap, (now + rng.randrange(1000), seq, frame))
        return total

    def sample(self) -> float:
        """Time the reference loops once, keep the time and return it."""
        times = []
        for loop in (self._chase, self._events):
            started = time.perf_counter()
            loop()
            times.append(time.perf_counter() - started)
        elapsed = math.sqrt(times[0] * times[1])
        self.samples.append(elapsed)
        return elapsed
