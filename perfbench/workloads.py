"""The benchmark's workloads: fracvar CLI studies, each with its output check.

A study is one ``fracvar`` command line; a round is one full pass over a
workload's studies.  Every round draws its inputs from the seeded generator:
the order alpha for the subcommands that take one (``derivative``,
``bounds``, ``indirect``), and a jitter of a few percent on each mesh size.
The catalog problems ex1-ex3 fix alpha = 1/2.  Both draws are stratified
(see ``Draws``), so that the median round time of a run hardly depends on
the seed.

Each workload also names its scaling-probe path (one solve at mesh size n,
alpha = 1/2, no jitter), the fixed grid of n the probe searches, and the
study whose last entry's error is ``final_error``: the probe path, or for
``linear-solve`` the TPBVP, at the nominal largest sweep entry.
"""

from dataclasses import dataclass
from typing import Callable

import oracles

ALPHAS = (0.3, 0.5, 0.7)
JITTER = 0.02
PROBE_ALPHA = 0.5

#: Wrong answers that the seed commit is known to give; they count as
#: failed entries but leave the run's ``correct`` flag set.
KNOWN_DEFECTS = {
    "ex4-moment:N=8": "moment-route TPBVP at N=8 returns an L2 error above the "
    "solution's norm without raising",
}


@dataclass(frozen=True)
class Study:
    argv: tuple
    check: Callable  # parsed CSV rows -> list of oracles.Entry


class Draws:
    """Per-round inputs from one seed, stratified over blocks of three rounds.

    Each block gets a seeded shuffle of the three alphas and, independently,
    of three jitter strata (low, middle, high third of [-JITTER, JITTER]), so
    every run sees the same mix of inputs and only their order, and the
    uniform draws inside each stratum, depend on the seed."""

    def __init__(self, rng):
        self.rng = rng
        self._block = []
        self._alpha = self._stratum = None

    def next_round(self):
        if not self._block:
            self._block = list(zip(self.rng.permutation(ALPHAS), self.rng.permutation(3)))
        alpha, stratum = self._block.pop()
        self._alpha, self._stratum = float(alpha), int(stratum)
        return self

    def alpha(self):
        return self._alpha

    def sizes(self, ns):
        def jitter():
            return JITTER * (2 * self._stratum - 2 + self.rng.uniform(-1.0, 1.0)) / 3.0

        return [int(round(n * (1.0 + jitter()))) for n in ns]


def _ints(values):
    return [str(v) for v in values]


def _geometric(base, count, per_doubling):
    """Fixed probe grid base * 2^(k/per_doubling), k = 0..count-1."""
    return tuple(int(round(base * 2.0 ** (k / per_doubling))) for k in range(count))


# ---------------------------------------------------------------------------
# studies
# ---------------------------------------------------------------------------


def direct(example, ns):
    return Study(("direct", "--example", example, "--n", *_ints(ns)),
                 lambda d: oracles.check_direct(example, ns, d))


def tpbvp(alpha, n, Ns):
    argv = ("indirect", "--example", "ex4-moment", "--alpha", repr(alpha), "--n", str(n),
            "--N", *_ints(Ns))
    return Study(argv, lambda d: oracles.check_tpbvp(alpha, n, Ns, d))


def mesh(method, function, alpha, ns):
    argv = ("derivative", "--method", method, "--function", function, "--alpha", repr(alpha),
            "--n", *_ints(ns))
    return Study(argv, lambda d: oracles.check_mesh(method, function, alpha, ns, d))


def bounds(method, function, alpha, Ns):
    argv = ("bounds", "--method", method, "--function", function, "--alpha", repr(alpha),
            "--N", *_ints(Ns))
    return Study(argv, lambda d: oracles.check_bounds(method, function, alpha, Ns, d))


def moment(function, alpha, Ns, extra=()):
    argv = ("derivative", "--method", "moment", "--function", function, "--alpha", repr(alpha),
            "--N", *_ints(Ns), *extra)
    return Study(argv, lambda d: oracles.check_moment_derivative(function, alpha, Ns, d))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    round: Callable  # (Draws, tiny: bool) -> list of Study
    probe: Callable  # n -> Study on the probe path
    grid: tuple
    final: Study  # its last entry's error is final_error
    warmup: tuple  # argv of the set-up warm-up call


def _direct_newton(draws, tiny):
    return [direct("ex3", draws.sizes((10, 15, 20) if tiny else (40, 60, 80)))]


def _linear_solve(draws, tiny):
    # sized so that the direct half and the TPBVP half take about as long
    ns = (20, 40, 80) if tiny else (80, 160, 320)
    return [
        direct("ex1", draws.sizes(ns)),
        direct("ex2", draws.sizes(ns)),
        tpbvp(draws.alpha(), draws.sizes((200 if tiny else 1200,))[0], (2, 4, 8)),
    ]


def _derivative_sweep(draws, tiny):
    alpha = draws.alpha()
    if tiny:
        return [
            mesh("diethelm", "t2", alpha, draws.sizes((50, 100, 200))),
            mesh("diethelm", "exp2t", alpha, draws.sizes((50, 100))),
            mesh("gl", "t2", alpha, draws.sizes((100, 200, 400, 800))),
            bounds("moment", "t4", alpha, (2, 3)),
            bounds("hadamard", "exp2t", alpha, (2, 3)),
            moment("exp2t", alpha, (2, 4), ("--points", "10")),
        ]
    return [
        mesh("diethelm", "t2", alpha, draws.sizes((200, 400, 800))),
        mesh("diethelm", "exp2t", alpha, draws.sizes((200, 400))),
        mesh("gl", "t2", alpha, draws.sizes((400, 800, 1600, 3200))),
        bounds("moment", "t4", alpha, tuple(range(2, 11))),
        bounds("hadamard", "exp2t", alpha, tuple(range(2, 11))),
        moment("exp2t", alpha, (2, 4, 8)),
    ]


# Probe grids.  The machine the benchmark was built on (2-core x86-64
# container) runs every process in one of two speed states about 1.5x apart,
# switching every few seconds to minutes.  That moves a 1 s point by 1.5^(1/p)
# for a path whose time grows as n^p: 13% for ex3 (p ~ 3.3), whose grid
# steps by 26% (2^(1/3)) and gives n = 65 in both states; 22% for ex1 and
# Diethelm (p ~ 2), whose grids step by 19% (2^(1/4)) so that runs split
# between two neighbouring points (ex1 410 / 488, Diethelm 830 / 987) stay
# within the metric's 0.25 bound.  linear-solve probes the affine ex1 path
# because the TPBVP's time grows only as n (a 50% move).  The grids reach
# far up (ex3 ~4200, ex1 ~26k, Diethelm ~850k) to keep measuring after large
# speed-ups.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "direct-newton",
            _direct_newton,
            lambda n: direct("ex3", [n]),
            _geometric(16.25, 25, 3),
            direct("ex3", [80]),
            ("direct", "--example", "ex3", "--n", "8"),
        ),
        Workload(
            "linear-solve",
            _linear_solve,
            lambda n: direct("ex1", [n]),
            _geometric(102.5, 33, 4),
            tpbvp(PROBE_ALPHA, 1200, [4]),
            ("indirect", "--example", "ex4-moment", "--n", "40", "--N", "2"),
        ),
        Workload(
            "derivative-sweep",
            _derivative_sweep,
            lambda n: mesh("diethelm", "t2", PROBE_ALPHA, [n]),
            _geometric(103.75, 53, 4),
            mesh("diethelm", "t2", PROBE_ALPHA, [800]),
            ("derivative", "--method", "diethelm", "--function", "t2", "--n", "10"),
        ),
    )
}

