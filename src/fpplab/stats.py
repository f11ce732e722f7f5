"""Estimators, the two-sided concentration machinery, and the block stream
rule every Monte Carlo sampler draws by (:func:`blocks`, :class:`RowStream`).

Moment estimates carry leave-one-out jackknife standard errors (ratio
statistics like sd/mean have no closed-form CI).  The scale-free smallness
measure is the fixed point of the empirical tail, and the explicit lower
modulus is evaluated entirely in log space because it underflows doubles
well before the interesting range.  The Theorem 1 checks and the modulus
return plain dicts, keyed as ``report.json`` keys them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LOG_NEG_INF = float("-inf")
MIN_RUNS = 1000    # fewest Monte Carlo runs behind a sampled verdict
BAND_SIGMAS = 3.0  # verdict band half-width, in jackknife standard errors

BLOCK_RUNS = 1024      # runs per block, at most
BLOCK_CELLS = 1 << 20  # uniforms per block of a numpy-kernel (FPP) sampler
# Uniforms per block of a row sampler (Propositions 1-3), whose runs read
# on from streams of their own.  It fixes B, and so every run's row: it
# stays 2**15 (256 KB), chosen while these runs were Python loops over
# their rows, when a larger block raised packing-growth's peak resident set.
ROW_CELLS = 1 << 15
TINY = np.nextafter(0.0, 1.0)  # the smallest positive double


# ---------------------------------------------------------------------------
# The block stream rule, shared by every Monte Carlo sampler

def spawn_seeds(seed, n: int) -> list[np.random.SeedSequence]:
    """The n independent child seeds of ``seed`` (an int, an entropy list or
    a SeedSequence).  Every sampler draws in blocks (:func:`blocks`): block
    j of a batch draws its uniforms from ``default_rng(spawn_seeds(seed,
    n_blocks)[j])``, one row per run, and run i reads row ``i % B`` of
    block ``i // B``; a run that outlives its row reads on from a stream of
    its own (:class:`RowStream`).  So every result is fixed by (seed, run
    index), and a shorter batch is a prefix of a longer one.  A given
    SeedSequence is not advanced: the children are spawned from a fresh
    copy, so passing it twice gives the same runs."""
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key,
                                  pool_size=ss.pool_size).spawn(n)


def block_runs(c: int, cells: int = BLOCK_CELLS) -> int:
    """B: the largest power of two up to ``BLOCK_RUNS`` with B * c <=
    ``cells``, for c uniforms per run."""
    b = BLOCK_RUNS
    while b > 1 and b * c > cells:
        b //= 2
    return b


def blocks(seed, runs: int, c: int, cells: int = BLOCK_CELLS):
    """(generator, run slice) for each block of a ``runs``-run batch with c
    uniforms per run.  ``Generator.random`` fills row-major, so a block of
    k rows is the first k rows of a full one.  Only uniforms keep that
    prefix property: the ziggurat behind ``exponential`` takes a variable
    number of raw draws, so the samplers transform uniforms instead."""
    b = block_runs(c, cells)
    for j, child in enumerate(spawn_seeds(seed, -(-runs // b))):
        yield np.random.default_rng(child), slice(j * b, min(runs, (j + 1) * b))


class RowStream:
    """The uniforms that row r of a block's run reads once its row is used
    up: ``SeedSequence(child.entropy, spawn_key=child.spawn_key + (r,))``
    for the block's seed ``child``, a generator made only on the first
    draw.  :meth:`random` reads like ``Generator.random``, so a plain
    generator can stand in for it."""

    __slots__ = ("_block", "_row", "_rng")

    def __init__(self, block: np.random.Generator, row: int):
        self._block, self._row, self._rng = block, row, None

    def random(self, shape) -> np.ndarray:
        if self._rng is None:
            child = self._block.bit_generator.seed_seq
            self._rng = np.random.default_rng(np.random.SeedSequence(
                child.entropy, spawn_key=child.spawn_key + (self._row,)))
        return self._rng.random(shape)


def python_values(a: np.ndarray):
    """The elements of a 1-D array as Python numbers, as ``a.tolist()``
    gives them, converted 256 at a time: nearly as fast as one ``tolist``,
    without a list of every element (3 000 FPP runs held as lists raised
    fpp-small's peak resident set by half a megabyte)."""
    for lo in range(0, len(a), 256):
        yield from a[lo:lo + 256].tolist()


def exponential_in_place(u: np.ndarray, w) -> np.ndarray:
    """Overwrite Uniform[0,1) draws ``u`` with the Exponential(rate w) draws
    -ln(u)/w, making no temporary copies (an FPP block of 2**20 costs
    8 MB).  A draw u == 0 (probability 2**-53) reads as the smallest
    positive double, so the time stays finite and strictly positive
    without consuming another draw."""
    np.maximum(u, TINY, out=u)
    np.log(u, out=u)
    u /= -w
    return u


@dataclass
class SampleStats:
    n: int
    mean: float
    variance: float  # unbiased
    sd: float
    ratio: float     # sd / mean
    mean_se: float
    sd_se: float
    ratio_se: float

    @classmethod
    def from_samples(cls, samples) -> "SampleStats":
        x = np.asarray(samples, dtype=float)
        n = len(x)
        if n < 3:
            raise ValueError("need at least 3 samples")
        mean = float(x.mean())
        var = float(x.var(ddof=1))
        sd = math.sqrt(var)
        s1 = x.sum()
        s2 = (x * x).sum()
        loo_mean = (s1 - x) / (n - 1)
        loo_var = np.maximum((s2 - x * x - (n - 1) * loo_mean**2) / (n - 2), 0.0)
        loo_sd = np.sqrt(loo_var)
        with np.errstate(divide="ignore", invalid="ignore"):
            loo_ratio = np.where(loo_mean != 0.0, loo_sd / loo_mean, 0.0)
        return cls(
            n=n, mean=mean, variance=var, sd=sd,
            ratio=sd / mean if mean != 0.0 else 0.0,
            mean_se=_jack_se(loo_mean),
            sd_se=_jack_se(loo_sd),
            ratio_se=_jack_se(loo_ratio),
        )

    @property
    def variance_se(self) -> float:  # delta method: d(sd^2) = 2 sd d(sd)
        return 2.0 * self.sd * self.sd_se


def band_verdict(stat: float, bound: float, band: float) -> tuple[bool, bool]:
    """(holds, inconclusive) for the sampled claim ``stat <= bound``: it FAILs
    only when the whole band ``stat +- band`` lies above the bound, and is
    inconclusive when that band straddles the bound."""
    holds = bool(stat <= bound + band)
    return holds, holds and bool(stat + band > bound)


def wilson_band(p: float, n: int) -> tuple[float, float]:
    """Centre and half-width of the ``BAND_SIGMAS`` Wilson score interval
    of a binomial proportion ``p`` from ``n`` trials.  Unlike the Wald
    band, its width stays positive at p = 0 or 1."""
    z2 = BAND_SIGMAS**2 / n
    centre = (p + z2 / 2.0) / (1.0 + z2)
    band = BAND_SIGMAS * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n)) / (1.0 + z2)
    return centre, band


def _jack_se(loo_values: np.ndarray) -> float:
    n = len(loo_values)
    center = loo_values.mean()
    return float(math.sqrt((n - 1) / n * float(((loo_values - center) ** 2).sum())))


# ---------------------------------------------------------------------------
# The scale-free smallness measure: inf{d : P(|V| > d) <= d}

def l0_norm_estimate(samples) -> float:
    """Smallest threshold d with (empirical fraction of |v| > d) <= d.

    The empirical tail is a right-continuous nonincreasing step function,
    so the fixed point sits either at a sample value or at one of the
    levels (n - i)/n.  It lies on the first constant piece, left to right,
    whose tail is below the piece's right end (the last piece's tail is 0),
    at the larger of that tail and the piece's left end.
    """
    v = np.abs(np.asarray(samples, dtype=float))
    n = len(v)
    if n < 1:
        raise ValueError("need at least one sample")
    vs = np.sort(v)
    u = vs[np.r_[True, vs[1:] != vs[:-1]]]  # the distinct values, ascending
    # piece boundaries: [0, u0), [u0, u1), ..., [u_last, inf)
    ge_counts = n - np.searchsorted(vs, u, side="left")
    lefts = np.concatenate([[0.0], u])
    rights = np.concatenate([u, [math.inf]])
    tails = np.concatenate([ge_counts / n, [0.0]])  # tail on each piece
    i = int(np.argmax(tails < rights))
    return float(max(lefts[i], tails[i]))


# ---------------------------------------------------------------------------
# Shortfall moment of a uniform sum (Irwin-Hall second shortfall moment)

def F_K_eval(K: int, s: float) -> dict:
    """E (max(0, s - sum of K iid Uniform(0,1)))^2, exact for every s >= 0,
    as ``value`` (0.0 when below double-precision range) and ``log_value``.

    On s <= 1 (all that psi_- and the Theorem 1 lower bound use) it is the
    closed form 2 s^(K+2) / (K+2)!, evaluated in log space.  Above 1 it is
    the Irwin-Hall alternating sum
    2/(K+2)! * sum_{j <= min(s, K)} (-1)^j C(K, j) (s - j)^(K+2),
    summed in integers over the exact ratio of s, so the heavy cancellation
    costs no precision; the log is taken of numerator and denominator
    apart.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not 0.0 <= s < math.inf:
        raise ValueError("s must be finite and >= 0")
    if s == 0.0:
        return {"value": 0.0, "log_value": LOG_NEG_INF}
    if s <= 1.0:
        log_val = math.log(2.0) + (K + 2) * math.log(s) - math.lgamma(K + 3)
        return {"value": math.exp(log_val), "log_value": log_val}
    from fractions import Fraction

    p, q = Fraction(s).as_integer_ratio()
    total = sum((-1) ** j * math.comb(K, j) * (p - j * q) ** (K + 2)
                for j in range(min(p // q, K) + 1))
    num, den = 2 * total, math.factorial(K + 2) * q ** (K + 2)
    return {"value": num / den, "log_value": math.log(num) - math.log(den)}


def modulus_terms(delta: float) -> tuple[int, float, float]:
    """K = ceil(3/d^2), s = d^2/(3-d^2) and the log of
    (1/4)(3/d - d)^2 F_K(s), the factor that psi_- and the Theorem 1 lower
    bound share.  Raises ValueError for a delta outside (0, 1], or one so
    small that K or the log is not a finite double (below about 4.8e-153)."""
    if not (0.0 < delta <= 1.0):
        raise ValueError("delta must lie in (0, 1]")
    try:
        K = math.ceil(3.0 / delta**2)
        s = delta**2 / (3.0 - delta**2)
        log_coef = (math.log(0.25) + 2.0 * math.log(3.0 / delta - delta)
                    + F_K_eval(K, s)["log_value"])
    except (OverflowError, ZeroDivisionError):
        log_coef = math.nan
    if not math.isfinite(log_coef):
        raise ValueError(f"delta {delta!r} is too small to evaluate in log space")
    return K, s, log_coef


def psi_minus_eval(delta: float) -> dict:
    """Explicit lower modulus: sqrt of
    (1/4)(3/d - d)^2 * F_K(d^2/(3-d^2)) * d/3 with K = ceil(3/d^2),
    evaluated in log space (astronomically small for small d), as
    ``delta``, ``K``, ``log_value`` and ``value`` (0.0 when below
    double-precision range); a delta :func:`modulus_terms` rejects raises
    ValueError."""
    K, _, log_coef = modulus_terms(delta)
    log_value = 0.5 * (log_coef + math.log(delta / 3.0))
    value = math.exp(log_value) if log_value > -700 else 0.0
    return {"delta": delta, "K": K, "log_value": log_value, "value": value}


# ---------------------------------------------------------------------------
# Two-sided verification helpers

def theorem1_lower_check(xi_samples, mean_x: float, var_x: float,
                         deltas) -> list[dict]:
    """Per grid delta, check
    var X/(E X)^2 >= (1/4)(3/d - d)^2 F_K(d^2/(3-d^2)) (P(Xi/EX >= d) - d/3 - 1/(dK))^+
    with K = ceil(3/d^2).  The right side grows with the tail, so the
    check is the sampled claim "tail <= the largest tail the bound
    allows", judged by :func:`band_verdict` on the centre and half-width
    of the tail's :func:`wilson_band`, which keeps a nonzero width at an
    empirical tail of 0 or 1.  That largest tail is
    found in log space, since F_K underflows; a clamped-to-zero slack
    makes the bound at the empirical tail zero.  A delta
    :func:`modulus_terms` rejects raises ValueError.

    One point per delta: ``delta``, ``K``, ``tail`` (the empirical P(Xi/E X
    >= delta)), ``tail_band`` (the Wilson half-width), ``slack`` (tail
    minus (delta/3 + 1/(delta K)), clamped at 0), ``log_rhs`` (the log of
    the lower bound), ``lhs`` (var X/(E X)^2), ``holds`` and
    ``inconclusive``."""
    xi = np.asarray(xi_samples, dtype=float)
    lhs = var_x / mean_x**2
    log_lhs = math.log(lhs) if lhs > 0 else LOG_NEG_INF
    out = []
    for delta in deltas:
        K, _, log_coef = modulus_terms(delta)
        tail = float(np.mean(xi / mean_x >= delta))
        centre, band = wilson_band(tail, len(xi))
        floor = delta / 3.0 + 1.0 / (delta * K)
        # exp stays finite; a slack of e^700 lies past any tail + band
        max_tail = floor + math.exp(min(log_lhs - log_coef, 700.0))
        holds, inconclusive = band_verdict(centre, max_tail, band)
        slack = max(tail - floor, 0.0)
        log_rhs = log_coef + math.log(slack) if slack > 0.0 else LOG_NEG_INF
        out.append({"delta": delta, "K": K, "tail": tail, "slack": slack, "log_rhs": log_rhs,
                    "lhs": lhs, "holds": holds, "tail_band": band,
                    "inconclusive": inconclusive})
    return out


def _average_ranks(x) -> np.ndarray:
    """1-based ranks, ties sharing the mean of the ranks they span."""
    _, inv, cnt = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(cnt) - (cnt - 1) / 2.0)[inv]


def _spearman(a, b) -> float:
    """Spearman's rho: the Pearson correlation of the average ranks."""
    ranks = np.column_stack([_average_ranks(a), _average_ranks(b)])
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def theorem1_trend_experiment(members, runs: int, seed) -> dict:
    """Per family member, estimate sd(X)/E X and the smallness measure of
    Xi/E X, then report both sequences and their Spearman rank
    correlation.  ``members`` holds (name, param, graph, source, target);
    the report holds ``members``, one row each of ``name``, ``param``,
    ``sd_over_mean``, its jackknife ``ratio_se``, ``l0_xi`` and
    ``n_runs``, and ``spearman``."""
    from .fpp import sample_fpp_batch

    if len(members) < 5:
        raise ValueError("trend experiment needs at least 5 family members")
    rows = []
    for (name, param, g, source, target), member_seed in zip(
            members, spawn_seeds(seed, len(members))):
        batch = sample_fpp_batch(g, source, target, runs, member_seed)
        stats = SampleStats.from_samples(batch.X)
        rows.append({"name": name, "param": float(param), "sd_over_mean": stats.ratio,
                     "ratio_se": stats.ratio_se, "l0_xi": l0_norm_estimate(batch.Xi / stats.mean),
                     "n_runs": runs})
    rho = _spearman([r["sd_over_mean"] for r in rows], [r["l0_xi"] for r in rows])
    return {"members": rows, "spearman": rho}
