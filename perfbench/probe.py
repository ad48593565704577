"""A fixed reference workload that reads the host's current speed.

The 2-vCPU host this benchmark was built on runs the same Python code up to
~1.7x slower in phases lasting seconds to minutes (other tenants), which no
run length averages out.  The benchmark therefore times this probe right
before and right after every op and divides the op's time by the probe's,
scaled by ``NOMINAL_S``: wall times are reported at the host speed at which
the probe takes ``NOMINAL_S``.  The probe's mix -- JSON encoding, hashing,
dict walks, float arithmetic and sorting -- is the interpreter work the
program's layers spend their time on; it never calls the program, so no
change to the program can move it.
"""

from __future__ import annotations

import hashlib
import json
import time

#: Probe seconds on the reference host (Intel Xeon, 2 vCPUs, uncontended).
NOMINAL_S = 0.025

_DATA = {f"k{i}": [i * 0.5, str(i), i % 7] for i in range(400)}


def probe_seconds() -> float:
    """Wall seconds of one fixed unit of reference work."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(64):
        text = json.dumps(_DATA, sort_keys=True)
        total += len(hashlib.sha256(text.encode()).hexdigest())
        for a, b, c in _DATA.values():
            total += a * c + len(b)
        total += sum(sorted(value[0] for value in _DATA.values()))
    return time.perf_counter() - start


def slowdown(before: float, after: float) -> float:
    """How much slower than nominal the host ran between two probes."""
    return (before + after) / (2.0 * NOMINAL_S)
