"""Cochran's Q over annotation matrices, with a self-contained chi-square tail.

The test statistic for an i x j binary matrix with row totals u and column
totals T is

    Q = j * (j - 1) * sum_k (T_k - mean(T))^2 / (j * sum(u) - sum(u^2)),

referred to chi-square with j - 1 degrees of freedom. The numerator splits
by agreement strength: columns marked by exactly t subjects contribute one
additive component each, so the components sum to Q and can be tested
separately.

Results are plain dicts: cochran_q returns exactly what `segtool cochran
--json` prints after the narrative id, and null_calibration the statistics
of its calibration block.

The chi-square survival function is computed here from the regularized
incomplete gamma function (series below a + 1, continued fraction above)
rather than taken from a stats library, so the toolkit's p-values do not
depend on one. Cochran (1950, Biometrika 37) is the source of the test.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections.abc import Iterator

import numpy as np

from .corpus import AnnotationMatrix
from .errors import DegenerateDataError, ValidationError

_EPS = 1e-14
_QUANTILE_TOL = 1e-12
_MAX_ITER = 10**6
# The simulation keeps one float per trial, so this bounds its memory (8 MB).
MAX_TRIALS = 10**6
# Cells (trials x sites) simulated at once. A chunk keeps a 0/1 mark byte and
# a column-total byte (two past 255 subjects) per cell, about 2 MB in all.
_CHUNK_CELLS = 2**20
# Raw draws mapped at once by one numpy pass (64 KiB of uint64), and never
# fewer than one Floyd step's.
_BLOCK_WORDS = 2**13
# Where the low 32 bits of a uint64 lie in its two uint32 halves.
_LOW_HALF = int(sys.byteorder == "big")

DEGENERATE_MESSAGE = "degenerate: no boundary variance"


# ---------------------------------------------------------------------------
# Chi-square tail


class _NoConvergence(ArithmeticError):
    pass


def _lower_gamma_series(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by power series (x < a + 1)."""
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise _NoConvergence(f"gamma series did not converge for a={a}, x={x}")


def _upper_gamma_cf(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) by continued fraction (x >= a + 1).

    Modified Lentz evaluation of the standard continued fraction.
    """
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for n in range(1, _MAX_ITER):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h
    raise _NoConvergence(f"gamma continued fraction did not converge for a={a}, x={x}")


def _real(value) -> float:
    """value as a float; nan, which every range check refuses, for a bool, a non-real (a
    string) or a real past the float range."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)  # np.bool_ is no Real
    try:
        return float(value) if real else math.nan
    except OverflowError:
        return math.nan


def _degrees(df) -> int:
    """df as an int, refused unless it is a positive integer, numpy's too, and no bool."""
    if not isinstance(df, (int, np.integer)) or isinstance(df, bool) or df < 1:
        raise ValidationError(f"degrees of freedom must be a positive integer, got {df!r}")
    return int(df)


def chi_square_sf(x: float, df: int) -> float:
    """Upper-tail probability P(X >= x) for chi-square with df degrees of freedom.

    Parameters
    ----------
    x : float
        Observed statistic, a finite real >= 0 and no bool.
    df : int
        Degrees of freedom, an integer >= 1 (numpy's too) and no bool.

    Returns
    -------
    float
        The survival function value, in [0, 1]. chi_square_sf(0, df) is
        exactly 1.
    """
    df, value = _degrees(df), _real(x)
    if not 0 <= value < math.inf:
        raise ValidationError(f"chi-square statistic must be finite and non-negative, got {x!r}")
    if value == 0.0:
        return 1.0
    a = df / 2.0
    half = value / 2.0
    if half < a + 1.0:
        upper = 1.0 - _lower_gamma_series(a, half)
    else:
        upper = _upper_gamma_cf(a, half)
    return min(1.0, max(0.0, upper))


def chi_square_critical(tail: float, df: int) -> float:
    """The x with chi_square_sf(x, df) == tail, found by bisection."""
    p = _real(tail)
    if not 0.0 < p < 1.0:
        raise ValidationError(f"tail probability must be in (0, 1), got {tail!r}")
    df = _degrees(df)
    lo, hi = 0.0, max(df * 4.0, 16.0)
    while chi_square_sf(hi, df) > p:
        hi *= 2.0
        if hi > 1e12:
            raise ValidationError(f"no chi-square quantile found for tail {tail}")
    while hi - lo > _QUANTILE_TOL * max(1.0, hi):
        mid = (lo + hi) / 2.0
        if chi_square_sf(mid, df) > p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# Cochran's Q


def _q_denominator(sites: int, row_totals) -> tuple[int, int]:
    """N = sum(u) and j*N - sum(u^2) = sum_i u_i * (j - u_i), 0 iff no row has variance."""
    total = sum(row_totals)
    return total, sites * total - sum(u * u for u in row_totals)


def _q_from_square_sum(sites: int, total: int, denom: int, square_sum):
    """Q = (j - 1) * (j*S - N^2) / denom from S = sum_k T_k^2, an int or int64 array.

    An array divides as the int does while (j - 1) * (j*S - N^2) < 2**53, so
    a trial with the observed column profile ties the observed Q exactly.
    """
    return (sites - 1) * (sites * square_sum - total * total) / denom


def cochran_q(matrix: AnnotationMatrix, component_df: str = "count") -> dict:
    """Cochran's Q test of whether subjects mark sites at equal rates.

    Parameters
    ----------
    matrix : AnnotationMatrix
        Binary subjects x sites judgements, at least 2 sites.
    component_df : str
        Degrees-of-freedom rule for the per-strength components: each
        component is referred to chi-square with df equal to the number of
        its columns ("count", the default) or that number minus one
        ("count-1"); components left with zero degrees of freedom get
        p = None.

    Returns
    -------
    dict
        "q", the statistic; "df", j - 1; "p", its upper-tail probability;
        and "components", the per-strength partition as a list of
        {"strength", "sites", "q", "df", "p"} in ascending strength, one
        for each strength t (t = 0 included) of the "sites" = n_t > 0
        columns marked by exactly t subjects. Those columns share the
        squared deviation (t - mean(T))^2, so strength t contributes

            q_t = j * (j - 1) * n_t * (t - mean(T))^2 / denominator

        and sum_t q_t = Q exactly.

    Raises
    ------
    DegenerateDataError
        When every row is all zeros or all ones, so the statistic's
        denominator vanishes.
    """
    j = matrix.sites
    if j < 2:
        raise ValidationError("Q needs at least 2 sites")
    total, denom = _q_denominator(j, matrix.row_totals.tolist())
    if denom == 0:
        raise DegenerateDataError(DEGENERATE_MESSAGE)
    if component_df not in ("count", "count-1"):
        raise ValidationError(f"component_df must be 'count' or 'count-1', got {component_df!r}")
    counts = np.bincount(matrix.column_totals, minlength=matrix.subjects + 1)
    square_sum = 0
    components = []
    for t, n_t in enumerate(counts.tolist()):
        if n_t == 0:
            continue
        square_sum += n_t * t * t
        # The n_t columns of strength t share (t - N/j)^2 = (j*t - N)^2 / j^2.
        q_t = (j - 1) * n_t * (j * t - total) ** 2 / (j * denom)
        df_t = n_t if component_df == "count" else n_t - 1
        p_t = chi_square_sf(q_t, df_t) if df_t >= 1 else None
        components.append({"strength": t, "sites": n_t, "q": q_t, "df": df_t, "p": p_t})
    q = _q_from_square_sum(j, total, denom, square_sum)
    df = j - 1
    return {"q": q, "df": df, "p": chi_square_sf(q, df), "components": components}


# ---------------------------------------------------------------------------
# Monte-Carlo calibration of the null


_QUANTILE_LEVELS = (0.5, 0.9, 0.95, 0.99)


def null_calibration(
    row_totals,
    sites: int,
    trials: int,
    seed: int,
    observed_q: float | None = None,
) -> dict:
    """Simulate Q under row-preserving random placement of boundary marks.

    Each trial places every subject's u marks on a uniformly random u-subset
    of the sites (Floyd's algorithm), independently per subject. Trials are
    simulated in chunks of max(1, _CHUNK_CELLS // sites) trials; chunk c
    draws from default_rng((seed, c)) what one integers() call per Floyd
    step would, made from its raw words a block of steps at a time
    (_FloydDraws). So the same inputs give the same result on every run; a
    run longer than max(1, 2**18 // sites) trials gives other numbers than
    versions that used 2**18-cell chunks. observed_q, when given, is a real
    number (not a bool) that is finite and non-negative; its empirical p
    uses the add-one rule (1 + exceedances) / (trials + 1). After the
    argument checks, row totals with no variance (each 0 or sites) raise
    DegenerateDataError, as cochran_q does.

    Returns a dict of the run's statistics. "trials" and "seed" are the
    arguments as ints. "quantiles" maps the levels 0.5, 0.9, 0.95 and 0.99
    (floats) to the empirical Q quantiles, and "chi_square_quantiles" maps
    them to the chi-square(sites - 1) quantiles. "rejection_rate_05" is the
    fraction of trials at or above the chi-square 5% critical value, so a
    well-calibrated null puts it near 0.05. "empirical_p" is observed_q's
    empirical p. "rejection_rate_05_se" and "empirical_p_se" are the
    Monte-Carlo standard errors sqrt(p * (1 - p) / trials) of those two
    estimates. empirical_p and empirical_p_se are None when observed_q is.
    """
    u = tuple(row_totals)
    if not u:
        raise ValidationError("row totals must be non-empty")
    if not isinstance(sites, (int, np.integer)) or isinstance(sites, bool) or sites < 2:
        raise ValidationError("sites must be an integer >= 2")
    for name, x in (*(("row total", x) for x in u), ("trials", trials), ("seed", seed)):
        if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
            raise ValidationError(f"{name} must be an integer, got {x!r}")
    u, sites, trials, seed = tuple(map(int, u)), int(sites), int(trials), int(seed)
    for x in u:
        if not 0 <= x <= sites:
            raise ValidationError(f"row total {x} outside [0, {sites}]")
    if trials < 1000:
        raise ValidationError("at least 1000 trials are required")
    if trials > MAX_TRIALS:
        raise ValidationError(f"at most {MAX_TRIALS} trials are allowed")
    if seed < 0:
        raise ValidationError("seed must be non-negative")
    if observed_q is not None:
        observed_q = _real(observed_q)
        if not 0 <= observed_q < math.inf:
            raise ValidationError("observed_q must be finite and non-negative")

    j = sites
    df = j - 1
    total, denom = _q_denominator(j, u)
    if denom == 0:  # every simulated matrix keeps these row totals, so none has a Q
        raise DegenerateDataError(DEGENERATE_MESSAGE)

    stats = np.empty(trials, dtype=np.float64)
    chunk = max(1, _CHUNK_CELLS // j)
    for index, start in enumerate(range(0, trials, chunk)):
        n = min(chunk, trials - start)
        columns = _chunk_columns(u, j, n, np.random.default_rng((seed, index)))
        square_sums = np.einsum("ij,ij->i", columns, columns, dtype=np.int64)
        del columns  # freed before the next chunk allocates its own
        stats[start:start + n] = _q_from_square_sum(j, total, denom, square_sums)

    critical_05 = chi_square_critical(0.05, df)
    rejection_rate = float((stats >= critical_05).mean())
    empirical_p = None
    if observed_q is not None:
        empirical_p = (1 + int((stats >= observed_q).sum())) / (trials + 1)
    return {
        "trials": trials,
        "seed": seed,
        "quantiles": dict(zip(_QUANTILE_LEVELS, np.quantile(stats, _QUANTILE_LEVELS).tolist())),
        "chi_square_quantiles": {
            level: chi_square_critical(1.0 - level, df) for level in _QUANTILE_LEVELS
        },
        "rejection_rate_05": rejection_rate,
        "rejection_rate_05_se": _standard_error(rejection_rate, trials),
        "empirical_p": empirical_p,
        "empirical_p_se": _standard_error(empirical_p, trials),
    }


def _standard_error(p: float | None, trials: int) -> float | None:
    return None if p is None else math.sqrt(p * (1.0 - p) / trials)


def _chunk_columns(
    u: tuple[int, ...], sites: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Column totals (n x sites, the least uint dtype for len(u)) of n trials.

    Floyd's algorithm picks a uniform u-subset of range(sites) in u steps:
    at step s it draws t from [0, k] with k = sites - u + s, and takes t, or
    k when t is already taken. Every trial of the chunk runs each step at
    once on a sites x n mark array, taking from _FloydDraws the positions
    t * n + trial of a block of steps at a time: site k is never taken
    before step k, so its row becomes the trials whose t was taken, and
    then every trial's t is marked. The marks and totals are kept sites x n
    so that the row of k is contiguous; the result is the totals'
    transposed view. rng must be fresh, or hold no 32-bit half, as its raw
    words are read directly; it is left with some words read ahead.
    """
    columns = np.zeros((sites, n), dtype=np.min_scalar_type(len(u)))
    mark = np.zeros((sites, n), dtype=bool)
    marks, true = mark.reshape(-1), np.array(True)  # 0-d: numpy's scalar path
    draws = _FloydDraws(rng.bit_generator, n)
    for u_i in filter(None, u):
        k = sites - u_i
        for block in draws.blocks(range(k + 1, sites + 1)):
            for t in block:
                mark[k] = marks[t]
                marks[t] = true
                k += 1
        columns += mark.view(np.uint8)  # its 0/1 bytes as they are, with no cast from bool
        mark[:] = False
    return columns.T


class _FloydDraws:
    """The n draws of each Floyd step of a chunk, made from a bit generator's
    raw 64-bit words as Generator.integers makes them from the same stream
    when the generator is fresh, or has no 32-bit half held back.

    integers(0, b, size=n) reads 32-bit words, each raw word giving its low
    half and then its high half, and maps a word w to (w * b) >> 32
    (Lemire's multiply-shift), refusing w, for the next word, when
    (w * b) mod 2**32 < (2**32 - b) % b. A bound of 1 takes no word. The
    words are held as uint64 rows of n, one row a step, and mapped in
    blocks of max(1, _BLOCK_WORDS // n) rows: one multiply by the block's
    column of bounds, one minimum of the low halves (tested word by word
    only when it falls below the largest threshold of the run), one shift,
    and one pass that turns each draw t into its mark position t * n + trial.
    """

    def __init__(self, bit_generator: np.random.BitGenerator, n: int) -> None:
        self._random_raw = bit_generator.random_raw
        self._n = n = int(n)  # a numpy uint64 would turn the int64 passes float
        self._rows = max(1, _BLOCK_WORDS // n)
        self._trials = np.arange(n, dtype=np.int64)[None]
        # A read fills it to a block, and to two steps at least. The grid and
        # its views are its whole rows.
        self._words = np.empty(max(2, self._rows) * n + 1, dtype=np.uint64)
        self._grid = self._words[:len(self._words) // n * n].reshape(-1, n)
        self._low = self._grid.view(np.uint32)[:, _LOW_HALF::2]
        self._positions = self._grid.view(np.int64)
        # 0-d operands take numpy's scalar loop, unlike an int or a 1 x 1 column.
        self._n_0d, self._shift_0d = np.array(n), np.array(32, dtype=np.uint64)
        self._start = self._stop = 0  # the words read but not yet used; start begins a row

    def blocks(self, bounds: range) -> Iterator[np.ndarray]:
        """Yield the steps of bounds in blocks of rows, in order: the row of b
        holds t * n + trial for the draws t of integers(0, b, size=n).

        Each bound is in [1, 2**32]. Each int64 block yielded is a view that
        the caller must not change and a later block may overwrite. A block
        whose rows hold a refused word is cut before the row of the first
        one: the rows from there on are divided back to their words, that
        word is dropped, and the next block starts at that row.
        """
        n, trials = self._n, self._trials
        if bounds and bounds[0] == 1:
            yield trials
            bounds = bounds[1:]
        column = np.arange(bounds.start, bounds.stop, bounds.step, dtype=np.uint64)
        refuse = 2**32 % column  # equals (2**32 - b) % b
        highest = int(refuse.max(initial=0))  # no bound refuses a low half at or above it
        i = 0
        while i < len(column):
            m = min(self._rows, len(column) - i)
            if self._stop - self._start < m * n:
                self._read()
            j = self._start // n
            block = self._grid[j:j + m]
            block *= column[i, ...] if m == 1 else column[i:i + m, None]
            low = self._low[j:j + m]
            if low.min() < highest:
                refused = low < refuse[i:i + m, None]
                first = int(refused.argmax())
                if refused.flat[first]:
                    block[first // n:] //= column[i + first // n:i + m, None]
                    m, first = first // n, self._start + first
                    self._words[first:self._stop - 1] = self._words[first + 1:self._stop]
                    self._stop -= 1
                    block = block[:m]
            self._start += m * n
            block >>= self._shift_0d
            positions = self._positions[j:j + m]
            positions *= self._n_0d
            positions += trials
            i += m
            yield positions

    def _read(self) -> None:
        """Move the unused words to the front and fill the rest from the stream."""
        held = self._stop - self._start
        self._words[:held] = self._words[self._start:self._stop]
        pairs = self._random_raw((len(self._words) - held) // 2)
        # Little-endian bytes put each raw word's low half first.
        fresh = pairs.astype("<u8", copy=False).view("<u4")
        self._start, self._stop = 0, held + len(fresh)
        self._words[held:self._stop] = fresh
