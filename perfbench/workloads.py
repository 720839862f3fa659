"""Workload definitions shared by the harness and the measured child.

Three workloads, chosen so that each layer is stressed by one of them and
bypassed by another:

- imag-scan: `lgw scan --imaginary` to a file, then `lgw table` over it.
  Exact integer arithmetic in `fields` plus JSON serialization; `wfunc`
  and `solver` see about twenty calls.
- real-scan: `lgw scan --real --format csv`. Reduced indefinite forms and
  continued-fraction units in `fields`, pairwise distinctness in `survey`,
  one Lambert argument family (+-2*pi*i*L) in `wfunc`.
- point-eval: a closed loop of one client over a seeded query pool. Halley
  iterations in `wfunc` and the closed forms in `solver`; `fields` and
  `survey` idle.

The scan inputs are fixed discriminant ranges; the seed only picks the rows
that are cross-checked. The query pool is a pure function of the seed.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("imag-scan", "real-scan", "point-eval")

# On a 2-vCPU Xeon VM one imag-scan pass (scan+table) takes about 19 s at
# 1e6, 5-7 s at 5e5 and 2-4 s at 3e5; one real-scan pass takes 3.5-5.5 s at
# 2e4 and about a quarter of that at 1e4. Pass times on that host swing by
# +-20% from one pass to the next, and the calibration slice between passes
# tracks that swing only when passes are short. At 2e4 the real-scan spread
# over ten runs reached 19%, so each scan uses the size that gives five or
# more passes in a 20 s run.
FULL_SIZES = {
    "imag-scan": {"limit": 300_000},
    "real-scan": {"limit": 10_000},
    "point-eval": {"pool": 100_000},
}
SMOKE_SIZES = {
    "imag-scan": {"limit": 20_000},
    "real-scan": {"limit": 2_000},
    "point-eval": {"pool": 2_000},
}


def scan_argv(workload: str, sizes: dict) -> list[str]:
    limit = str(sizes[workload]["limit"])
    if workload == "imag-scan":
        return ["scan", "--imaginary", "--limit", limit]
    return ["scan", "--real", "--limit", limit, "--format", "csv"]


def golden_key(workload: str, sizes: dict, command: str) -> str:
    return f"{workload}/{sizes[workload]['limit']}/{command}"


# -- point-eval query pool ------------------------------------------------------

W, W_REAL, SOLVE, ALPHA_C, ALPHA_R = "w", "w_real", "solve", "alpha_complex", "alpha_real"
KINDS = (W, W_REAL, SOLVE, ALPHA_C, ALPHA_R)
_WEIGHTS = (0.60, 0.10, 0.10, 0.10, 0.10)

_BRANCH_POINT = -1.0 / math.e
# The nontrivial torsion units of imaginary quadratic fields.
_TORSION = (
    -1 + 0j,
    1j,
    -1j,
    complex(0.5, math.sqrt(3) / 2),
    complex(-0.5, math.sqrt(3) / 2),
    complex(-0.5, -math.sqrt(3) / 2),
    complex(0.5, -math.sqrt(3) / 2),
)


def _uniform_complex(rng: random.Random, half_width: float) -> complex:
    return complex(rng.uniform(-half_width, half_width), rng.uniform(-half_width, half_width))


def make_pool(seed: int, n: int) -> list[tuple]:
    """Seeded query stream: a list of (kind, args) tuples.

    W queries take k in [-5, 5] and z log-uniform in |z| in [1e-2, 1e3] with
    a uniform angle. The k = 0 annulus near |z| ~ 1.1-1.8, where Halley can
    land on a neighbouring branch, is deliberately left in the stream.
    """
    rng = random.Random(seed)
    pool = []
    for kind in rng.choices(KINDS, weights=_WEIGHTS, k=n):
        if kind == W:
            z = cmath.rect(10 ** rng.uniform(-2.0, 3.0), rng.uniform(-math.pi, math.pi))
            args = (rng.randint(-5, 5), z)
        elif kind == W_REAL:
            k = rng.choice((0, -1))
            if k == -1 or rng.random() < 0.25:
                x = _BRANCH_POINT * rng.uniform(1e-3, 1.0)
            else:
                x = 10 ** rng.uniform(-2.0, 3.0)
            args = (k, x)
        elif kind == SOLVE:
            args = (_uniform_complex(rng, 2.0), _uniform_complex(rng, 2.0),
                    _uniform_complex(rng, 2.0), rng.randint(-3, 3))
        elif kind == ALPHA_C:
            args = (rng.choice(_TORSION), rng.randint(-2, 2), rng.randint(-3, 3),
                    rng.uniform(-1.0, 1.0))
        else:
            args = (10 ** rng.uniform(-0.5, 1.7), rng.randint(-3, 3),
                    rng.choice(("conjugate-branch", "same-branch")))
        pool.append((kind, args))
    return pool
