"""Every pinned output of the library, bit for bit, in one table.

Each survey returns the bytes of some library output: a `compare` CSV, or the
float.hex of each value a seeded sweep reads (the error's type where a call
raises). PINS holds the sha256 of those bytes and, for the two optimizers, the
kernel evaluations behind them. A change that moves an output or an evaluation
says so in CHANGES.md and records here the digest and count its failing test
prints, so one test run restates every pin the change moves.
"""

import hashlib
import math
import random
import tempfile
from pathlib import Path

import pytest

from betatails import _verify, bounds, chernoff, specfun
from betatails.bounds import TailSide, exact_tail, subgaussian_optimal_proxy
from betatails.chernoff import chernoff_exponent_numeric, chernoff_exponents
from betatails.cli import main
from betatails.moments import BetaParams
from betatails.specfun import ConvergenceError, regularized_incomplete_beta

ERRORS = (ConvergenceError, ValueError, OverflowError)


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _hex(result):
    if isinstance(result, float):
        return result.hex()
    return f"{result.exponent.hex()} {result.t_star.hex()} {result.converged}"


def _outcome(call):
    try:
        return _hex(call())
    except ERRORS as exc:
        return type(exc).__name__


def _lines(lines):
    return "\n".join(lines).encode()


def _compare(alpha, beta, stop):
    def survey():  # the CSV `betatails compare` writes on the grid 0:stop:100
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "table.csv"
            assert main(["compare", "--alpha", str(alpha), "--beta", str(beta),
                         "--grid", f"0:{stop}:100", "--out", str(out)]) == 0
            return out.read_bytes()

    survey.__name__ = f"compare_beta_{alpha}_{beta}"
    return survey


def proxy():
    """150 shapes log-uniform in [1e-3, 1e7] and 400 with beta/alpha - 1 in [1e-16, 1e-2]."""
    rng = random.Random(26)
    shapes = [(_log_uniform(rng, 1e-3, 1e7), _log_uniform(rng, 1e-3, 1e7)) for _ in range(150)]
    near = random.Random(2017)  # the draws of test_near_symmetric_roots_stop_clear_of_zero
    for _ in range(400):
        a = 10.0 ** near.uniform(-3.0, 7.0)
        shapes.append((a, a * (1.0 + 10.0 ** near.uniform(-16.0, -2.0))))
    return _lines(_outcome(lambda: subgaussian_optimal_proxy(BetaParams(a, b))) for a, b in shapes)


def cold_chernoff():
    """150 shapes log-uniform in [1e-3, 1e7] on a random side, each at a deviation deep
    inside the support and one out to 1 - 1e-12 of its width."""
    rng = random.Random(2602)
    lines = []
    for _ in range(150):
        p = BetaParams(_log_uniform(rng, 1e-3, 1e7), _log_uniform(rng, 1e-3, 1e7))
        side = rng.choice([TailSide.UPPER, TailSide.LOWER])
        a, b = (p.alpha, p.beta) if side is TailSide.UPPER else (p.beta, p.alpha)
        width = 1.0 - a / (a + b)  # as chernoff_exponent_numeric forms it
        for fraction in (_log_uniform(rng, 1e-8, 1.0), 1.0 - _log_uniform(rng, 1e-12, 1.0)):
            eps = fraction * width
            lines.append(_outcome(lambda: chernoff_exponent_numeric(p, eps, side)))
    return _lines(lines)


def warm_chernoff():
    """20 shapes log-uniform in [1e-2, 1e5], each swept over 40 even deviations up to
    0.1 to 1.05 times its upper width."""
    rng = random.Random(2603)
    lines = []
    for _ in range(20):
        p = BetaParams(_log_uniform(rng, 1e-2, 1e5), _log_uniform(rng, 1e-2, 1e5))
        stop = rng.uniform(0.1, 1.05) * (1.0 - float(p.mean()))
        try:
            lines.extend(_hex(r) for r in chernoff_exponents(p, [stop * i / 39 for i in range(40)]))
        except ERRORS as exc:
            lines.append(type(exc).__name__)
    return _lines(lines)


def kernel_forward_pass():
    """repr((a, b, t, _cgf_kernel(a, b, t))) at 400 seeded (a, b, t): shapes log-uniform
    in [1e-3, 1e4], t log-uniform between the centered series' edge 4 sqrt(s+1) and
    (10 s + 90) / (a + 9), kept where the 1F1 series peaks below k0 = 10."""
    rng = random.Random(7)
    out = []
    while len(out) < 400:
        a, b = 10 ** rng.uniform(-3, 4), 10 ** rng.uniform(-3, 4)
        s = a + b
        lo, hi = 4 * math.sqrt(s + 1), (10 * s + 90) / (a + 9)
        if hi <= lo * 1.0001:
            continue
        t = lo * (hi / lo) ** rng.random()
        p = t + 1 - s  # term k tops term k - 1 while k^2 - p k - (a - 1) t < 0
        disc = p * p + 4 * (a - 1) * t
        if disc < 0 or 0.5 * (p + math.sqrt(disc)) < 10:
            out.append(repr((a, b, t, specfun._cgf_kernel(a, b, t))).encode())
    return b"".join(out)


def _kernel_at(a, b, t):
    def survey():  # the float.hex of _cgf_kernel(a, b, t), space-separated
        return " ".join(x.hex() for x in specfun._cgf_kernel(float(a), float(b), float(t))).encode()

    survey.__name__ = f"kernel_at_{a}_{b}_{t}"
    return survey


def incomplete_beta():
    """700 shapes log-uniform in [1e-3, 1e7], each at a uniform x, an x about the mean
    and the crossover x = (a+1) / (a+b+2)."""
    rng = random.Random(27)
    lines = []
    for _ in range(700):
        a, b = (10.0 ** rng.uniform(-3.0, 7.0) for _ in range(2))
        s = a + b
        sd = math.sqrt((a / s) * (b / s) / (s + 1.0))
        near = min(max(a / s + sd * rng.gauss(0.0, 1.0), 0.0), 1.0)
        for x in (rng.random(), near, (a + 1.0) / (a + b + 2.0)):
            lines.append(_outcome(lambda: regularized_incomplete_beta(a, b, x)))
    return _lines(lines)


def exact_tails():
    """Both tails of Beta(2,98) and Beta(2,998) at 211 deviations, 0 to 1.05 widths."""
    lines = []
    for a, b in ((2, 98), (2, 998)):
        p, mu = BetaParams(a, b), a / (a + b)
        for side, width in ((TailSide.UPPER, 1.0 - mu), (TailSide.LOWER, mu)):
            lines.extend(exact_tail(p, width * i / 200, side).hex() for i in range(211))
    return _lines(lines)


PINS = [  # (survey, sha256 of the bytes it returns, kernel evaluations it takes or None)
    (_compare(*_verify.PAPER_TABLES[0]),
     "4a18b2ba2160cf42cd594b7b40a1ecb598e3985636c82c2ab3d0c91e5fa30c1b", None),
    (_compare(*_verify.PAPER_TABLES[1]),
     "6d769afd5b4fa6931889656c82a7bfc91c4b7e65dc37496ab48cabed6790f6c2", None),
    (_compare(5, 5, 0.45),
     "0dbf6f5317e0586c4c77296c3674744e3092b57499fa31bf58d9c3d80d416a67", None),
    (proxy, "5113e78f5328a0f4b90885ad3c4b67e3765a3b36e3cb3df5da980a91df7e1809", 9955),
    (cold_chernoff, "cc3d1698cf6313aa14db05774c6b940f6c1f65334adfe848ddaeba1df0f0bbf7", 4286),
    (warm_chernoff, "9e4595c250932422ec5420edbb20ff9432d5f35cfefa4252a91a06242bb9da2c", 2158),
    (kernel_forward_pass,
     "7f4a906b2982d6f59678491090cb3fdc5a3ad3f92d9c514c2c7c72ea628660d2", None),
    # four forward-pass points first recorded from the int-counter loop the pass replaced
    (_kernel_at("0.5", "700", "450"),
     "f87fca42554da173295cc88b32baaa44d79afb28effec9525858c17aa4db519b", None),
    (_kernel_at("1", "1e5", "5e4"),
     "623f1e63ad976c8e052ce1015ba7f5c5933c7b1b6a651adac2e4d19b89c85f5f", None),
    (_kernel_at("2", "98", "60"),
     "f1a7d3ccec30a70a43faab428b1897c9f693c6147a7c7527277615b888217c9b", None),
    (_kernel_at("2", "998", "600"),
     "406412e082f5f1abec9371ade23216fba581173a70aca2f0da12a5860906852c", None),
    # k0 = 0 at t = 1e10: the bell spans about 9 sqrt(1e10) terms, under the 2^20 step cap
    (_kernel_at("1", "1e10", "1e10"),
     "fadc6c58ae8040e2db017aa83c407eb76e1dfe466c77a3a958de01288e3f7f84", None),
    (incomplete_beta, "80ee68ed31589d5d12ad827996d9c73fda35ddd74a7b416a606aa10a1219875f", None),
    (exact_tails, "9f4c718e0155348d855a86b94846bc2275331fa60ca8bed8ae14bc834f694bee", None),
]


@pytest.mark.parametrize("survey,digest,evaluations", PINS, ids=[pin[0].__name__ for pin in PINS])
def test_survey_keeps_its_bits(monkeypatch, survey, digest, evaluations):
    calls = []
    for module in (bounds, chernoff):
        def counted(*args, kernel=module._cgf_kernel):
            calls.append(args)
            return kernel(*args)
        monkeypatch.setattr(module, "_cgf_kernel", counted)
    got = (hashlib.sha256(survey()).hexdigest(), None if evaluations is None else len(calls))
    assert got == (digest, evaluations), f"{survey.__name__} now reads (digest, evaluations) {got}"
