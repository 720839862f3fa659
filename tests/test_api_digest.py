"""The bits of every public Lambert and solver entry point, pinned as one
sha256 per entry point over a seeded set of arguments.

The arguments cover every seed region of the W seed table on many branches,
the branch point, exact roots, z = 0, subnormal |z| (the log-space Newton)
and errors; the real fast path on both branches; and the solver's three
queries, with subnormal Lambert arguments and both real-case pairings. Each
result is written as the repr of its values (repr keeps every bit, and the
sign of a zero), each error as its class name.
"""

import cmath
import hashlib
import math
import random

import pytest

from lgw.errors import LgwError
from lgw.solver import (
    Case,
    ExpLinearEquation,
    Pairing,
    UnitInput,
    alpha_complex_case,
    alpha_real_case,
    solve_exp_linear,
)
from lgw.wfunc import BRANCH_POINT_Z, lambert_w, lambert_w_real

_BRANCHES = (0, 1, -1, 2, -2, 3, -5, 7, 40, -25)
_TINY = 2.2250738585072014e-308  # the smallest normal float


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10 ** rng.uniform(lo, hi)


def _rect(rng: random.Random, r: float) -> complex:
    return cmath.rect(r, rng.uniform(-math.pi, math.pi))


def _w_arguments(rng: random.Random) -> list[tuple[int, complex]]:
    args = []
    for _ in range(8000):  # the branch-point series, and the branches that miss it
        z = BRANCH_POINT_Z + _rect(rng, 0.3 * rng.random() ** 0.5)
        args.append((rng.choice((0, -1, 1, 2, -2)), z))
    for _ in range(8000):  # the Pade box of W_0 and its edges
        args.append((0, complex(rng.uniform(-1.2, 1.7), rng.uniform(-1.2, 1.2))))
    for _ in range(8000):  # W_0's three-term seed, |z| <= 2, and the series beyond
        args.append((0, _rect(rng, rng.uniform(0.0, 4.0))))
    for _ in range(5000):  # W_-1's real segment, with either zero sign of Im z
        args.append((-1, complex(rng.uniform(BRANCH_POINT_Z, 0.0), rng.choice((0.0, -0.0)))))
    for _ in range(20000):  # the asymptotic series on every branch, and W_0 far out
        args.append((rng.choice(_BRANCHES), _rect(rng, _log_uniform(rng, -300.0, 300.0))))
    for _ in range(5000):  # the real axis, either zero sign of Im z
        x = rng.choice((-1.0, 1.0)) * _log_uniform(rng, -5.0, 5.0)
        args.append((rng.choice(_BRANCHES), complex(x, rng.choice((0.0, -0.0)))))
    for _ in range(5000):  # subnormal |z|, where k != 0 solves in log space
        args.append((rng.choice(_BRANCHES), _rect(rng, _log_uniform(rng, -323.3, math.log10(_TINY)))))
    for w in (-3, -2, -1.5, -1, -0.5, 0.5, 1, 2, 3):  # exact roots w e^w
        for k in (0, -1, 1):
            args.append((k, complex(w * math.exp(w))))
    for k in (0, -1, 1, 2):  # the branch point, z = 0, and their neighbours
        for z in (BRANCH_POINT_Z, math.nextafter(BRANCH_POINT_Z, 0.0), math.nextafter(BRANCH_POINT_Z, -1.0),
                  complex(BRANCH_POINT_Z, 1e-300), complex(BRANCH_POINT_Z, -1e-300), 0j, 5e-324, -5e-324):
            args.append((k, complex(z)))
    return args


def _w_real_arguments(rng: random.Random) -> list[tuple[int, float]]:
    args = []
    for _ in range(5000):
        args.append((0, BRANCH_POINT_Z + rng.uniform(0.0, 0.4)))
        args.append((0, _log_uniform(rng, -300.0, 300.0)))
        args.append((-1, rng.uniform(BRANCH_POINT_Z, 0.0)))
        args.append((-1, -_log_uniform(rng, -323.3, -0.44)))
    for k in (0, -1):
        for x in (BRANCH_POINT_Z, math.nextafter(BRANCH_POINT_Z, 0.0), -5e-324, -_TINY, 0.0, math.e, 2 * math.e**2):
            args.append((k, x))
    return args


def _solve_arguments(rng: random.Random) -> list[tuple[complex, complex, complex, int]]:
    args = []
    for _ in range(8000):
        a, b, c = (complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(3))
        args.append((a, b, c, rng.randint(-3, 3)))
    for _ in range(3000):  # a subnormal Lambert argument -B*C*exp(A*C): tiny B, or Re(A*C) < -708
        c = _rect(rng, rng.uniform(0.5, 4.0))
        if rng.random() < 0.5:
            a, b = complex(rng.uniform(-1.0, 1.0)), _rect(rng, _log_uniform(rng, -323.0, -308.0))
        else:
            a, b = complex(rng.uniform(-745.0, -708.0), rng.choice((0.0, rng.uniform(-20.0, 20.0)))) / c, _rect(rng, 1.0)
        args.append((a, b, c, rng.randint(-3, 3)))
    return args


def _alpha_complex_arguments(rng: random.Random) -> list[tuple[UnitInput, int, float]]:
    torsion = (-1 + 0j, 1j, -1j, complex(0.5, math.sqrt(3) / 2), complex(-0.5, math.sqrt(3) / 2),
               complex(-0.5, -math.sqrt(3) / 2), complex(0.5, -math.sqrt(3) / 2), 1 + 0j)
    args = []
    for _ in range(6000):
        eps = rng.choice(torsion) if rng.random() < 0.5 else _rect(rng, _log_uniform(rng, -3.0, 3.0))
        u = UnitInput.complex_unit(eps, rng.randint(-2, 2))
        args.append((u, rng.randint(-3, 3), rng.uniform(-1.0, 1.0)))
    for _ in range(2000):  # a tiny log(eps): the Lambert argument is subnormal
        u = UnitInput.from_log(_rect(rng, _log_uniform(rng, -323.0, -300.0)))
        args.append((u, rng.randint(-3, 3), 0.0))
    return args


def _alpha_real_arguments(rng: random.Random) -> list[tuple[UnitInput, int, Pairing]]:
    args = []
    for _ in range(8000):
        L = _log_uniform(rng, -323.3, 3.0) if rng.random() < 0.25 else _log_uniform(rng, -1.0, 2.0)
        args.append((UnitInput.from_log(L, Case.REAL), rng.randint(-5, 5), rng.choice(tuple(Pairing))))
    return args


def _digest(fn, arguments) -> tuple[int, str]:
    h = hashlib.sha256()
    for args in arguments:
        try:
            out = repr(fn(*args))
        except LgwError as exc:
            out = type(exc).__name__
        h.update(out.encode())
        h.update(b"\n")
    return len(arguments), h.hexdigest()


def _w(k, z):
    return tuple(lambert_w(k, z))


def _solve(a, b, c, k):
    return solve_exp_linear(ExpLinearEquation(a, b, c), k)


def _report(rep):
    return (rep.alpha, rep.branch, rep.beta, rep.residual_defining, rep.residual_split_1,
            rep.residual_split_2, rep.residual_sum_equation, rep.conventions)


def _alpha_complex(u, j, beta):
    return _report(alpha_complex_case(u, j, beta))


def _alpha_real(u, j, pairing):
    return _report(alpha_real_case(u, j, pairing))


class TestApiDigest:
    """Each digest as the entry points gave it before their per-call paths
    were trimmed; a change in any last bit, iteration count or error class
    changes it."""

    @pytest.mark.parametrize(
        "fn, arguments, count, digest",
        [
            (_w, _w_arguments, 59059, "819ea6861a118a1e3c5439decd3c783957373031c1fe9a86781e58dcfd099ffa"),
            (lambert_w_real, _w_real_arguments, 20014, "16d84d8624e8651eb348dc0c176708bfeba4e8ea815e16571da4163ff61ba5ab"),
            (_solve, _solve_arguments, 11000, "04ce49b1f200c41203230ea29a8103d1c047edbc99c2e7eeb01d6037bb8a1293"),
            (_alpha_complex, _alpha_complex_arguments, 8000, "0bf9e4259c2a324cff71abe2255e4e7bbf3589ad5781aa4c26eacab4c78d4a6e"),
            (_alpha_real, _alpha_real_arguments, 8000, "e77d7e6ff716012bca43eab805902301804178baf259d71ab8534adc2bb02b97"),
        ],
        ids=["lambert_w", "lambert_w_real", "solve_exp_linear", "alpha_complex_case", "alpha_real_case"],
    )
    def test_digest(self, fn, arguments, count, digest):
        assert _digest(fn, arguments(random.Random(30))) == (count, digest)
