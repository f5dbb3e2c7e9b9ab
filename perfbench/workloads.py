"""The three benchmark workloads: seeded inputs, the timed operation, its checks.

Each workload builds its inputs from a Halton sequence whose leading axes
are shifted mod 1 by amounts drawn from the seed. Every seed then gets a
different point set, while any run's prefix of it covers the input ranges
evenly, so two seeds time nearly the same mix of cheap and expensive
operations. The first axis goes to the property that sets an operation's
cost.

Inputs hold plain numbers. `run`, the only code inside the timed region,
builds the library's objects from them, so no state the library might keep
on an object carries over from one pass over the inputs to the next or
from `check`. It calls the library through module attributes, so a tracer
that rebinds them sees every call. `check` runs after the clock stops and
returns an error message or None.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
from fractions import Fraction
from pathlib import Path

# A probability may exceed its bound by this much before it counts as an
# error; the library's own comparison-row checks use the same slack.
PROB_SLACK = 1e-10
# Tolerance of the Chernoff exponent against the Bernstein exponent it must
# dominate. The relative part is above the rounding of t*eps - psi(t). The
# absolute part is the optimizer's documented exponent tolerance (chernoff.py:
# its golden-section search stops within about 7e-14 of the peak). At eps
# near 1e-5 both exponents are near 1e-9 and differ by O(eps^4), so the
# search error alone decides the sign there (down to -4.2e-15 over 300 seeds).
EXPONENT_RTOL = 1e-9
EXPONENT_ATOL = 1e-12
# Relative tolerance of compare output against the stored reference CSVs.
# Byte differences within it are reported as drift, not as errors.
CSV_RTOL = 1e-9
REFERENCES = Path(__file__).resolve().parent / "references"


def _radical_inverse(i: int, base: int) -> float:
    inv, scale = 0.0, 1.0
    while i:
        i, digit = divmod(i, base)
        scale /= base
        inv += digit * scale
    return inv


def shifted_halton(
    rng: random.Random, count: int, bases: tuple[int, ...], shifted: int
) -> list[list[float]]:
    """`count` Halton points in [0, 1)^len(bases); the first `shifted` axes
    are shifted mod 1 by amounts drawn from `rng`, the others are not."""
    shifts = [rng.random() if axis < shifted else 0.0 for axis in range(len(bases))]
    return [
        [(_radical_inverse(i, b) + s) % 1.0 for b, s in zip(bases, shifts)]
        for i in range(count)
    ]


class PaperCompare:
    """`betatails compare` on the paper's two shapes, in process.

    One operation is a pair of compare calls, one per shape, in an order set
    by the seed. The two tables differ in cost about fivefold, so timing them
    as one operation keeps the median off the gap between them.
    """

    pool_size = 1
    trace_ops = 1
    block = 1
    # alpha, beta, grid, output file: the jobs of scripts/make_comparison_data.py
    JOBS = (
        ("2", "98", "0:0.05:100", "beta_2_98.csv"),
        ("2", "998", "0:0.005:100", "beta_2_998.csv"),
    )

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.references = {job[3]: (REFERENCES / job[3]).read_bytes() for job in self.JOBS}
        self.digests: dict[str, str] = {}
        self.drift = {job[3]: 0 for job in self.JOBS}

    def inputs(self, lib, seed: int, count: int):
        jobs = self.JOBS if random.Random(seed).random() < 0.5 else self.JOBS[::-1]
        return [jobs] * count

    def warmup(self, lib):
        return [(("2", "98", "0:0.05:4", "warmup.csv"),)]

    def run(self, lib, jobs):
        codes = []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for alpha, beta, grid, out in jobs:
                argv = ["compare", "--alpha", alpha, "--beta", beta,
                        "--grid", grid, "--out", str(self.work_dir / out)]
                codes.append(lib.cli.main(argv))
        return codes

    def check(self, lib, jobs, codes) -> str | None:
        errors = []
        for (_, _, _, out), code in zip(jobs, codes):
            path = self.work_dir / out
            if code != 0:
                errors.append(f"{out}: exit code {code}")
                continue
            data = path.read_bytes()
            path.unlink()
            reference = self.references[out]
            self.digests[out] = hashlib.sha256(data).hexdigest()
            if data != reference:
                self.drift[out] += 1
            mismatch = _csv_mismatch(data.decode(), reference.decode())
            if mismatch:
                errors.append(f"{out}: {mismatch}")
        return "; ".join(errors) or None

    def report(self) -> list[str]:
        lines = []
        for _, _, _, out in self.JOBS:
            ref = hashlib.sha256(self.references[out]).hexdigest()
            lines.append(
                f"fingerprint {out} sha256 {self.digests.get(out, 'none')} "
                f"reference {ref} drift {self.drift[out]}"
            )
        return lines


def _csv_mismatch(text: str, reference: str) -> str | None:
    rows, ref_rows = text.splitlines(), reference.splitlines()
    if len(rows) != len(ref_rows) or rows[:1] != ref_rows[:1]:
        return f"{len(rows)} lines with header {rows[:1]}, reference has {len(ref_rows)}"
    for line, ref_line in zip(rows[1:], ref_rows[1:]):
        values = [float(x) for x in line.split(",")]
        ref_values = [float(x) for x in ref_line.split(",")]
        if len(values) != len(ref_values) or values[0] != ref_values[0]:
            return f"row {line!r} does not match reference row {ref_line!r}"
        for got, want in zip(values[1:], ref_values[1:]):
            if not math.isclose(got, want, rel_tol=CSV_RTOL, abs_tol=0.0):
                return f"value {got!r} differs from reference {want!r} in row {line!r}"
    return None


class ChernoffSweep:
    """Chernoff exponent plus exact tail at one (shape, side, eps) per operation.

    The optimizer's cost grows with its tilt t*, and near the support edge
    t* ~ (alpha+beta)/d, where d = 1 - eps/width. The first axis sets
    L = log10((alpha+beta)/d) uniform over [0, 6] less the band TILT_GAP;
    the second puts alpha+beta log-uniform within [1, 1e3] as far as d stays
    in [1e-3, 1]; the third splits the total between the shapes, the fourth
    picks the side. So eps runs over (0, 0.999) of the support width, with
    tilts past the optimizer's bracket cap, where it returns converged=False.

    Tilts from 1e4 to 1.3e5 (TILT_GAP) are left out. Near the cap, one
    operation takes either ~1.5 s (converged) or ~0.1 s (not), depending on
    where its doubling sequence lands, and the count of slow ones in a run
    made throughput differ by 20% between seeds; below the cap, the few
    operations of 0.3 to 1 s made op_p90_ms differ by 17%. Only the tilt and
    total axes are shifted by the seed: shifting the split and side axes too
    doubled the between-seed spread of the median latency.

    On the gaussian branch (the other shape larger than the edge shape, so
    c < 0) an eps less than v/|c|, where v + c*eps vanishes, by under
    SINGULAR_GAP (relative) moves down to v/|c| * (1 - SINGULAR_GAP). The
    optimizer's first guess t0 = eps/(v + c*eps) diverges as eps rises to
    v/|c|: Beta(527.9, 263.4) at eps=0.3325 upper took 11 s with a first
    guess of 2.4e7, and points nearer still would outlast a run. Above v/|c|
    the first guess is eps/v, which is harmless. report() prints how many
    inputs were moved.
    """

    pool_size = 2048  # a whole number of blocks
    trace_ops = 32
    block = 64  # one operation per 1/64 of the tilt axis
    LOG_TILT_MAX = 6.0
    TILT_GAP = (4.0, 5.1)
    LOG_TOTAL_MAX = 3.0
    MIN_FRACTION = 1e-6  # keeps eps > 0 where the drawn total meets the tilt
    SINGULAR_GAP = 0.01

    def __init__(self):
        self.moved = 0
        self.count = 0

    def inputs(self, lib, seed: int, count: int):
        TailSide = lib.bounds.TailSide
        self.moved, self.count = 0, count
        points = shifted_halton(random.Random(seed), count, (2, 3, 5, 7), shifted=2)
        inputs = []
        for u_tilt, u_total, u_split, u_side in points:
            gap_lo, gap_hi = self.TILT_GAP
            log_tilt = (self.LOG_TILT_MAX - gap_hi + gap_lo) * u_tilt
            if log_tilt > gap_lo:
                log_tilt += gap_hi - gap_lo
            lo = max(0.0, log_tilt - self.LOG_TOTAL_MAX)
            hi = min(self.LOG_TOTAL_MAX, log_tilt)
            total = 10.0 ** (lo + (hi - lo) * u_total)
            # edge shape k and other shape m, both at least 1/2
            spread = math.log((total - 0.5) / 0.5)
            k = total / (1.0 + math.exp(-spread * (2.0 * u_split - 1.0)))
            m = total - k
            upper = u_side < 0.5
            alpha, beta = (m, k) if upper else (k, m)
            fraction = max(1.0 - total / 10.0**log_tilt, self.MIN_FRACTION)
            eps = fraction * k / total  # the side's support width is k / total
            if m > k:  # gaussian branch: c < 0, and v + c*eps vanishes inside the support
                v = k * m / (total * total * (total + 1.0))
                c = 2.0 * (k - m) / (total * (total + 2.0))
                edge = -v / c * (1.0 - self.SINGULAR_GAP)
                if edge < eps < -v / c:
                    eps = edge
                    self.moved += 1
            side = TailSide.UPPER if upper else TailSide.LOWER
            inputs.append(((alpha, beta), eps, side))
        return inputs

    def warmup(self, lib):
        TailSide = lib.bounds.TailSide
        return [((2.0, 98.0), 0.01, TailSide.UPPER), ((2.0, 98.0), 0.01, TailSide.LOWER)]

    def run(self, lib, inp):
        shape, eps, side = inp
        params = lib.moments.BetaParams(*shape)
        result = lib.chernoff.chernoff_exponent_numeric(params, eps, side)
        tail = lib.bounds.exact_tail(params, eps, side)
        return result, tail

    def check(self, lib, inp, out) -> str | None:
        (a, b), eps, side = inp
        where = f"Beta({a!r}, {b!r}) {side.value} eps={eps!r}"
        result, tail = out
        psi = result.exponent
        if not (math.isfinite(psi) and psi >= 0.0):
            return f"{where}: exponent {psi!r}"
        if math.exp(-psi) < tail - PROB_SLACK:
            return f"{where}: exp(-{psi!r}) below exact tail {tail!r}"
        if side is lib.bounds.TailSide.LOWER:
            a, b = b, a
        if b >= a:  # sub-gamma branch
            s = a + b
            v = a * b / (s * s * (s + 1.0))
            c = 2.0 * (b - a) / (s * (s + 2.0))
            bernstein = eps * eps / (2.0 * (v + c * eps / 3.0))
            if psi < bernstein * (1.0 - EXPONENT_RTOL) - EXPONENT_ATOL:
                return f"{where}: exponent {psi!r} below Bernstein exponent {bernstein!r}"
        return None

    def report(self) -> list[str]:
        return [f"inputs moved below v/|c|: {self.moved} of {self.count}"]


class ShapeQueries:
    """Moments, Bernstein bounds and exact tails for one shape per operation.

    Each operation queries its shape twice: as exact rationals (denominators
    up to 1000) and as floats. Exact queries cost one to three orders more
    than float ones, so operations that took one form each would split the
    median between two clusters. The first axis sets the moment order
    log-uniform over [4, 512], which sets the cost of the exact path; the
    next two set alpha and beta log-uniform over [1e-2, 1e5]; the last
    places four deviations between 0.25 and 5 standard deviations, each
    queried on both sides. Only the order and alpha axes are shifted by the
    seed: shifting all four doubled the between-seed spread of op_p90_ms.
    """

    pool_size = 2025  # a whole number of blocks
    trace_ops = 64
    block = 81  # one operation per 1/81 of the order axis
    MAX_DENOMINATOR = 1000

    def inputs(self, lib, seed: int, count: int):
        points = shifted_halton(random.Random(seed), count, (3, 5, 7, 11), shifted=2)
        inputs = []
        for u_order, u_alpha, u_beta, u_eps in points:
            order = round(4 * 128**u_order)
            alpha, beta = 10.0 ** (7.0 * u_alpha - 2.0), 10.0 ** (7.0 * u_beta - 2.0)
            exact = (
                Fraction(alpha).limit_denominator(self.MAX_DENOMINATOR),
                Fraction(beta).limit_denominator(self.MAX_DENOMINATOR),
            )
            sd = math.sqrt(alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1.0)))
            eps = tuple(0.25 * 20.0 ** ((j + u_eps) / 4.0) * sd for j in range(4))
            inputs.append(((exact, (alpha, beta)), order, eps))
        return inputs

    def warmup(self, lib):
        return [(((Fraction(2), Fraction(98)), (0.5, 3e4)), 16, (1e-5, 1e-3))]

    def run(self, lib, inp):
        shapes, order, epss = inp
        TailSide = lib.bounds.TailSide
        results = []
        for shape in shapes:
            params = lib.moments.BetaParams(*shape)
            table = lib.moments.central_moments_recursive(params, order)
            tails = []
            for eps in epss:
                for side in (TailSide.UPPER, TailSide.LOWER):
                    bound = lib.bounds.bernstein_tail_bound(params, eps, side)
                    tails.append((eps, side, bound, lib.bounds.exact_tail(params, eps, side)))
            results.append((table, tails))
        return results

    def check(self, lib, inp, out) -> str | None:
        shapes, order, _ = inp
        for shape, (table, tails) in zip(shapes, out):
            params = lib.moments.BetaParams(*shape)
            central = table.central
            if len(central) != order + 1 or central[1] != 0:
                return f"{params}: moment table of length {len(central)}, mu_1={central[1]!r}"
            if params.is_exact and central[2] != lib.bounds.sub_gamma_params(params).v:
                return f"{params}: mu_2={central[2]} differs from v"
            for eps, side, bound, tail in tails:
                if tail > bound + PROB_SLACK:
                    return (f"{params} {side.value} eps={eps!r}: "
                            f"exact tail {tail!r} above bound {bound!r}")
        return None

    def report(self) -> list[str]:
        return []
