"""Pinned bits and work of the two optimizers: the sub-gaussian proxy and the Chernoff solve.

Each survey hashes the float.hex of every output (the error's type where a
call raises) and counts the kernel evaluations behind them. A change to
either solve that moves an output or an evaluation must say so in
CHANGES.md and record the new digest and count here, as
test_paper_tables_keep_their_bytes asks of the paper tables.
"""

import hashlib
import math
import random

import pytest

from betatails import bounds, chernoff
from betatails.bounds import TailSide, subgaussian_optimal_proxy
from betatails.chernoff import chernoff_exponent_numeric, chernoff_exponents
from betatails.moments import BetaParams
from betatails.specfun import ConvergenceError


def _log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _hex(result):
    if isinstance(result, float):
        return result.hex()
    return f"{result.exponent.hex()} {result.t_star.hex()} {result.converged}"


def _outcome(call):
    try:
        return _hex(call())
    except (ConvergenceError, ValueError, OverflowError) as exc:
        return type(exc).__name__


def _proxy_lines():
    rng = random.Random(26)
    shapes = [(_log_uniform(rng, 1e-3, 1e7), _log_uniform(rng, 1e-3, 1e7)) for _ in range(150)]
    near = random.Random(2017)  # the draws of test_near_symmetric_roots_stop_clear_of_zero
    for _ in range(400):
        a = 10.0 ** near.uniform(-3.0, 7.0)
        shapes.append((a, a * (1.0 + 10.0 ** near.uniform(-16.0, -2.0))))
    return [_outcome(lambda: subgaussian_optimal_proxy(BetaParams(a, b))) for a, b in shapes]


def _cold_lines():
    rng = random.Random(2602)
    lines = []
    for _ in range(150):
        p = BetaParams(_log_uniform(rng, 1e-3, 1e7), _log_uniform(rng, 1e-3, 1e7))
        side = rng.choice([TailSide.UPPER, TailSide.LOWER])
        a, b = (p.alpha, p.beta) if side is TailSide.UPPER else (p.beta, p.alpha)
        width = 1.0 - a / (a + b)  # as chernoff_exponent_numeric forms it
        # deviations from deep inside the support out to 1 - 1e-12 of its width
        for fraction in (_log_uniform(rng, 1e-8, 1.0), 1.0 - _log_uniform(rng, 1e-12, 1.0)):
            eps = fraction * width
            lines.append(_outcome(lambda: chernoff_exponent_numeric(p, eps, side)))
    return lines


def _warm_lines():
    rng = random.Random(2603)
    lines = []
    for _ in range(20):
        p = BetaParams(_log_uniform(rng, 1e-2, 1e5), _log_uniform(rng, 1e-2, 1e5))
        stop = rng.uniform(0.1, 1.05) * (1.0 - float(p.mean()))
        epss = [stop * i / 39 for i in range(40)]
        try:
            lines.extend(_hex(r) for r in chernoff_exponents(p, epss))
        except (ConvergenceError, ValueError, OverflowError) as exc:
            lines.append(type(exc).__name__)
    return lines


SURVEYS = {"proxy": _proxy_lines, "cold": _cold_lines, "warm": _warm_lines}


def _survey(name, monkeypatch):
    """(sha256 of the survey's output lines, kernel evaluations they took)."""
    calls = 0

    def counted(kernel):
        def wrapper(a, b, t):
            nonlocal calls
            calls += 1
            return kernel(a, b, t)
        return wrapper

    for module in (bounds, chernoff):
        monkeypatch.setattr(module, "_cgf_kernel", counted(module._cgf_kernel))
    lines = SURVEYS[name]()
    return hashlib.sha256("\n".join(lines).encode()).hexdigest(), calls


@pytest.mark.parametrize("name,digest,evaluations", [
    pytest.param("proxy", "5113e78f5328a0f4b90885ad3c4b67e3765a3b36e3cb3df5da980a91df7e1809", 9955, id="proxy"),
    pytest.param("cold", "cc3d1698cf6313aa14db05774c6b940f6c1f65334adfe848ddaeba1df0f0bbf7", 4286, id="cold"),
    pytest.param("warm", "9e4595c250932422ec5420edbb20ff9432d5f35cfefa4252a91a06242bb9da2c", 2158, id="warm"),
])
def test_optimizers_keep_their_bits_and_work(monkeypatch, name, digest, evaluations):
    assert _survey(name, monkeypatch) == (digest, evaluations)
