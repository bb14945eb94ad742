"""Seeded argument vectors for the four benchmark workloads.

A workload is a sequence of passes and a pass is a list of `zipcone`
argument vectors.  Pass k of a workload under a seed is a pure function of
(workload, seed, k), so the process that runs a pass regenerates it from
those three values and the program receives nothing but the argv.

Sizes are chosen so that several passes fit in one timed run: the
benchmark reports medians over passes, and the speed of a shared two-core
machine drifts too much for a single long pass to be a steady measurement.
"""

from __future__ import annotations

import random

WORKLOADS = ("certify", "path", "sweep", "queries")

# Passes of these workloads each run in a fresh process, as separate CLI
# invocations do: state cached by one pass must not speed up the next.
# `queries` keeps one warm process for the whole run on purpose.
FRESH_PROCESS_PER_PASS = {"certify": True, "path": True, "sweep": True, "queries": False}

PRIMES = (2, 3, 5, 7, 11, 13)
CERTIFY_RANKS = (8, 12, 16)
PATH_RANKS = (12, 16)
SWEEP_RANK = 5
SWEEP_SAMPLES = 20_000
QUERY_RANKS = (6, 8, 10)

# One queries pass: (verb kind, rank) -> count, 100 operations.  The
# pha-wmax kinds build the cone with its Fourier-Motzkin equivalence proof
# and take 40-200 ms; everything else takes a few ms.  The n = 10 pha-wmax
# kinds are a fifth of the pass, so the 90th percentile sits in the middle
# of that class and the median in the middle of the fast ones, on every
# seed.
QUERY_MIX = {
    ("cone-pha-wmax", 10): 10,
    ("farkas-pha-wmax", 10): 10,
    ("cone-pha-wmax", 8): 3,
    ("farkas-pha-wmax", 8): 3,
    ("cone-pha-wmax", 6): 3,
    ("farkas-pha-wmax", 6): 3,
}
for _n in QUERY_RANKS:
    QUERY_MIX.update(
        {
            ("weyl-act", _n): 4,
            ("neighbors", _n): 4,
            ("bruhat", _n): 4 if _n != 10 else 3,
            ("cone-lmin", _n): 4,
            ("cone-pha", _n): 3,
            ("farkas-lmin-i", _n): 4,
        }
    )
del _n
QUERIES_PER_PASS = sum(QUERY_MIX.values())


def _rng(workload: str, seed: int, k: int) -> random.Random:
    # string seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{k}")


def pass_ops(workload: str, seed: int, k: int) -> list[list[str]]:
    """The argument vectors of pass k of a workload under a seed."""
    rng = _rng(workload, seed, k)
    if workload == "certify":
        return [
            ["verify-theorem", "--n", str(n), "--p", str(rng.choice(PRIMES)), "--json"]
            for n in CERTIFY_RANKS
        ]
    if workload == "path":
        return [
            ["path", "--n", str(n), "--p", str(rng.choice(PRIMES)), "--json"]
            for n in PATH_RANKS
        ]
    if workload == "sweep":
        return [
            ["sweep", "--suite", "gamma", "--n", str(SWEEP_RANK), "--jobs", "1", "--json"],
            [
                "sweep", "--suite", "bruhat", "--n", str(SWEEP_RANK),
                "--samples", str(SWEEP_SAMPLES), "--seed", str(rng.randrange(2**31)),
                "--jobs", "1", "--json",
            ],
        ]
    if workload == "queries":
        ops = [
            _query(kind, n, rng)
            for (kind, n), count in sorted(QUERY_MIX.items())
            for _ in range(count)
        ]
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# query generators


def _window(n: int, rng: random.Random) -> str:
    m = 2 * n
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    first = [v if rng.random() < 0.5 else m + 1 - v for v in perm]
    second = [m + 1 - v for v in reversed(first)]
    return " ".join(str(v) for v in first + second)


def _char(a, b=0) -> str:
    return ",".join(str(x) for x in a) + f"|{b}"


def _lam(n: int, rng: random.Random) -> str:
    # half the characters lie in the top-stratum cone {a_i <= 0}, so both
    # membership answers occur
    if rng.random() < 0.5:
        return _char([-rng.randint(0, 9) for _ in range(n)], rng.randint(-2, 2))
    return _char([rng.randint(-9, 9) for _ in range(n)], rng.randint(-2, 2))


def _pha_wmax_target(n: int, rng: random.Random) -> str:
    # half implied (c >= 0, c_b = 0), half random, which takes the witness branch
    if rng.random() < 0.5:
        return _char([rng.randint(0, 3) for _ in range(n)], 0)
    return _char([rng.randint(-3, 3) for _ in range(n)], rng.randint(-1, 1))


def _lmin_i_target(n: int, p: int, rng: random.Random) -> str:
    # Half implied: a multiple of one prefix row, sometimes plus the first
    # dominance row.  Half not implied: coefficients summing below zero, so
    # (-1, ..., -1 | 0), which lies in the cone, violates the target.
    # Targets are kept to these two kinds because the cost of
    # Fourier-Motzkin on other implied targets is erratic: dense
    # nonnegative combinations of many rows take seconds at n = 7 and do
    # not finish at n = 8.
    if rng.random() < 0.5:
        j, mult = rng.randint(1, n), rng.randint(1, 3)
        coeffs = [mult * (p if i <= j else 1) for i in range(1, n + 1)]
        if rng.random() < 0.5:
            coeffs[0] -= 1
            coeffs[1] += 1
        return _char(coeffs, 0)
    coeffs = [rng.randint(-3, 3) for _ in range(n)]
    if sum(coeffs) > 0:
        coeffs = [-c for c in coeffs]
    if sum(coeffs) == 0:
        coeffs[rng.randrange(n)] -= 1
    return _char(coeffs, 0)


def _query(kind: str, n: int, rng: random.Random) -> list[str]:
    p = str(rng.choice(PRIMES))
    if kind == "weyl-act":
        return ["weyl", "--elem", _window(n, rng), f"--act={_lam(n, rng)}", "--json"]
    if kind == "neighbors":
        return ["neighbors", "--elem", _window(n, rng), "--json"]
    if kind == "bruhat":
        return ["bruhat", "--elem", _window(n, rng), "--elem2", _window(n, rng), "--json"]
    if kind == "cone-lmin":
        return ["cone-check", "--cone", "lmin", "--p", p, f"--lambda={_lam(n, rng)}", "--json"]
    if kind == "cone-pha":
        return [
            "cone-check", "--cone", "pha", "--p", p, "--elem", _window(n, rng),
            f"--lambda={_lam(n, rng)}", "--json",
        ]
    if kind == "cone-pha-wmax":
        return ["cone-check", "--cone", "pha-wmax", f"--lambda={_lam(n, rng)}", "--json"]
    if kind == "farkas-pha-wmax":
        return ["farkas", "--cone", "pha-wmax", f"--target={_pha_wmax_target(n, rng)}", "--json"]
    if kind == "farkas-lmin-i":
        return [
            "farkas", "--cone", "lmin-i", "--p", p,
            f"--target={_lmin_i_target(n, int(p), rng)}", "--json",
        ]
    raise ValueError(f"unknown query kind {kind!r}")
