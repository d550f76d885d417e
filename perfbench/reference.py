"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on shared virtual machines whose CPU speed drifts by tens
of percent over seconds to minutes, for every program alike. The timed loop
runs this kernel between items and reports each item's time as a multiple of
the kernel's time around it (``ref`` units), so that drift cancels while a
change to the library still moves the figure: the kernel does not use hdse
and its input is the same on every run and every commit.

The kernel mirrors the two kinds of work the workloads do: a breadth-first
search over adjacency lists writing hop counts into a numpy row (the shape of
the library's SPD and refinement loops), and small dense numpy operations
(the shape of its attention and training steps).
"""

from __future__ import annotations

import time
from collections import deque

import numpy as np

NODES, EDGES, SOURCES = 300, 1200, 35
DENSE_STEPS = 900
# The median time of one call over 40 runs on the 2 GHz Xeon vCPU the
# benchmark was tuned on (single calls read 25-46 ms there). A time divided by
# the kernel's time and multiplied by this reads as seconds on that host.
NOMINAL_S = 0.035


class Reference:
    def __init__(self):
        rng = np.random.default_rng(20230822)
        self.adj: list[list[int]] = [[] for _ in range(NODES)]
        for u, v in rng.integers(0, NODES, (EDGES, 2)).tolist():
            if u != v:
                self.adj[u].append(v)
                self.adj[v].append(u)
        self.x = rng.standard_normal((20, 32))
        self.w = rng.standard_normal((32, 32)) * 0.1
        self.check = self._run()

    def _run(self) -> tuple[int, float]:
        reached = 0
        for s in range(SOURCES):
            row = np.full(NODES, -1, dtype=np.int32)
            row[s] = 0
            q = deque([s])
            while q:
                v = q.popleft()
                dv = row[v]
                for u in self.adj[v]:
                    if row[u] < 0:
                        row[u] = dv + 1
                        q.append(u)
            reached += int((row >= 0).sum())
        x = self.x
        for _ in range(DENSE_STEPS):
            x = np.tanh(x @ self.w)
            x = x - x.mean(axis=0)
        return reached, float(np.abs(x).sum())

    def seconds(self) -> float:
        """Wall time of one kernel call; its output must not change."""
        t0 = time.perf_counter()
        out = self._run()
        dt = time.perf_counter() - t0
        if out != self.check:
            raise RuntimeError(f"reference kernel output changed: {out}")
        return dt
