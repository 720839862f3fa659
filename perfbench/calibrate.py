"""Machine-speed calibration for a shared, noisy host.

On a small virtual machine the speed of a vCPU drifts by tens of percent
within seconds and between minutes, as other tenants come and go; CPU time
drifts with it. `calibrate()` runs a fixed slice of pure-Python work (the
integer, complex, dict and serialization operations lgw itself is made of)
and returns its wall time. The harness runs a slice next to every timed
unit of work and rescales that unit's wall time to a machine on which the
slice takes CAL_REF_S:

    calibrated = measured * CAL_REF_S / calibration slice time

Both run in the same process within a second of each other, so host drift
cancels to first order. The loop contains no lgw code, so a change to lgw
moves only the measured side. Raw wall times are printed beside every
calibrated one.

Set-up time (a fresh interpreter up to `import lgw`) is dominated by process
start and shared-library loading, which the slice does not track. Each
set-up sample is instead paired with REFERENCE_LAUNCH, a fresh interpreter
that imports numpy alone (lgw's only dependency), and rescaled the same
way to LAUNCH_REF_S. Over 3 minutes of 9-sample windows on that VM, the
window medians spread by 22% raw, 14% against the slice, and 4% against
the reference launch.
"""

from __future__ import annotations

import cmath
import json
import time

# Nominal slice time: about what the slice takes on an uncontended
# 2-vCPU Xeon VM with CPython 3.11.
CAL_REF_S = 0.25
# What REFERENCE_LAUNCH takes on the same machine.
LAUNCH_REF_S = 0.12
REFERENCE_LAUNCH = "import time\nimport numpy\nprint(time.monotonic_ns(), numpy.__file__)"


def calibrate() -> float:
    t0 = time.perf_counter()
    acc = 0
    counts: dict[int, int] = {}
    z = 0j
    for i in range(1, 240_001):
        q = i % 97
        acc += (i * i) % (q + 1)
        counts[q] = counts.get(q, 0) + 1
        z += cmath.exp(complex(0.0, i * 1e-3)) / i
    text = json.dumps([{"i": i, "x": i * 0.5, "s": str(i)} for i in range(30_000)])
    acc += len(json.loads(text))
    if acc < 0 or z == 0:  # keep the work observable
        raise AssertionError("unreachable")
    return time.perf_counter() - t0


def rescale(seconds: float, cal_seconds: float, reference: float = CAL_REF_S) -> float:
    return seconds * reference / cal_seconds
