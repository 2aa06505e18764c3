"""Cochran's Q, the chi-square tail, and the Monte-Carlo null.

Oracles: adaptive quadrature of the chi-square density (scipy.integrate)
for the tail function, and a straight-line transliteration of the Q formula
for the statistic. The library itself never imports scipy.
"""

from __future__ import annotations

import itertools
import json
import math
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst
from scipy import integrate
from scipy import stats as sps

from segtool import (
    DegenerateDataError,
    ValidationError,
    chi_square_critical,
    chi_square_sf,
    cochran_q,
    null_calibration,
)
from segtool.significance import _CHUNK_CELLS, _chunk_columns, _FloydDraws
from conftest import load_panel


def quad_sf(x: float, df: int) -> float:
    """Upper chi-square tail by adaptive integration of the density.

    The integral is split at the density's bulk so the adaptive rule cannot
    overlook a peak far from the lower limit.
    """
    a = df / 2.0

    def density(t):
        return math.exp((a - 1.0) * math.log(t) - t / 2.0 - a * math.log(2.0) - math.lgamma(a))

    if x == 0.0:
        return 1.0
    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
    split = float(df)
    if x < split:
        left, _ = integrate.quad(density, x, split, **opts)
        right, _ = integrate.quad(density, split, np.inf, **opts)
        return left + right
    value, _ = integrate.quad(density, x, np.inf, **opts)
    return value


def brute_force_q(cells) -> float:
    """The displayed formula, transliterated with plain loops."""
    i = len(cells)
    j = len(cells[0])
    col = [sum(cells[s][k] for s in range(i)) for k in range(j)]
    row = [sum(cells[s]) for s in range(i)]
    mean = sum(col) / j
    numerator = j * (j - 1) * sum((t - mean) ** 2 for t in col)
    denominator = j * sum(row) - sum(r * r for r in row)
    return numerator / denominator


WORKED_3x4 = [[1, 1, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]]


class TestChiSquareTail:
    def test_against_quadrature_oracle(self):
        for df in (1, 2, 3, 5, 10, 50, 99, 200):
            for x in (0.01, 0.5, 1.0, 3.841, 7.2, 20.0, 45.87, 100.0, 500.0, 1e4):
                assert abs(chi_square_sf(x, df) - quad_sf(x, df)) <= 1e-10, (x, df)

    def test_against_scipy_tail(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            df = int(rng.integers(1, 201))
            x = float(rng.uniform(0, 4 * df))
            assert chi_square_sf(x, df) == pytest.approx(
                sps.chi2.sf(x, df), abs=1e-12
            )

    def test_known_value(self):
        assert abs(chi_square_sf(3.841, 1) - 0.0500) <= 1e-3

    def test_zero_is_one_exactly(self):
        for df in (1, 2, 7, 100):
            assert chi_square_sf(0.0, df) == 1.0

    def test_monotone_non_increasing(self):
        for df in (1, 3, 10, 99):
            grid = np.linspace(0.0, 40.0 + 4 * df, 2500)
            values = [chi_square_sf(float(x), df) for x in grid]
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            chi_square_sf(-1.0, 3)
        with pytest.raises(ValidationError):
            chi_square_sf(1.0, 0)
        with pytest.raises(ValidationError):
            chi_square_sf(float("nan"), 3)

    @pytest.mark.parametrize("tail, df", [(1e-12, 1), (1e-300, 2), (1e-15, 999)])
    def test_critical_far_in_the_tail(self, tail, df):
        # The first two lie past the starting bracket max(4 df, 16), which
        # must then widen.
        assert chi_square_critical(tail, df) == pytest.approx(sps.chi2.isf(tail, df), rel=1e-11)

    @pytest.mark.parametrize("tail", [0.0, 1.0, -0.5, 1.5, float("nan"), "x", None, "0.5",
                                      [0.5]])
    def test_critical_tail_range(self, tail):
        with pytest.raises(ValidationError) as excinfo:
            chi_square_critical(tail, 3)
        assert str(excinfo.value) == f"tail probability must be in (0, 1), got {tail!r}"

    @pytest.mark.parametrize("x", [True, np.bool_(False), "3", None, 10**400, -(10**400),
                                   Fraction(10**400), [1.0], -1],
                             ids=["True", "np.False_", "'3'", "None", "10**400", "-10**400",
                                  "Fraction(10**400)", "[1.0]", "-1"])
    def test_statistic_must_be_a_finite_non_negative_real(self, x):
        with pytest.raises(ValidationError) as excinfo:
            chi_square_sf(x, 2)
        assert str(excinfo.value) == (
            f"chi-square statistic must be finite and non-negative, got {x!r}")

    @pytest.mark.parametrize("df", [True, np.bool_(True), 2.0, np.float64(2), "2", None, 0])
    def test_df_must_be_a_positive_integer(self, df):
        message = f"degrees of freedom must be a positive integer, got {df!r}"
        for call in (lambda: chi_square_sf(1.0, df), lambda: chi_square_critical(0.5, df)):
            with pytest.raises(ValidationError) as excinfo:
                call()
            assert str(excinfo.value) == message

    def test_any_real_statistic_and_numpy_integer_df_accepted(self):
        value = chi_square_sf(3.0, 2)
        for x in (3, np.int64(3), np.float32(3), Fraction(3)):
            assert chi_square_sf(x, 2) == value
        for df in (np.int64(2), np.uint8(2)):
            assert type(chi_square_sf(3.0, df)) is float and chi_square_sf(3.0, df) == value
            assert chi_square_critical(0.05, df) == chi_square_critical(0.05, 2)
        assert chi_square_critical(Fraction(1, 20), 2) == chi_square_critical(0.05, 2)

    def test_critical_inverts_sf(self):
        for df in (1, 5, 10, 99):
            for tail in (0.5, 0.1, 0.05, 0.01):
                x = chi_square_critical(tail, df)
                assert chi_square_sf(x, df) == pytest.approx(tail, abs=1e-9)
                assert x == pytest.approx(sps.chi2.isf(tail, df), rel=1e-8)


class TestCochranQ:
    def test_worked_3x4_example(self):
        result = cochran_q(load_panel(WORKED_3x4))
        assert result["q"] == pytest.approx(7.2, abs=1e-12)
        assert result["df"] == 3
        assert result["p"] == pytest.approx(0.0658, abs=1e-3)
        assert quad_sf(7.2, 3) == pytest.approx(0.0658, abs=1e-3)

    def test_worked_3x4_partition(self):
        components = cochran_q(load_panel(WORKED_3x4))["components"]
        assert [c["strength"] for c in components] == [0, 1, 3]
        zero, one, three = components
        assert three["q"] == pytest.approx(4.8, abs=1e-12)
        assert three["sites"] == 1
        assert one["q"] == pytest.approx(0.0, abs=1e-12)
        assert zero["q"] == pytest.approx(2.4, abs=1e-12)
        assert zero["sites"] == 2
        assert zero["df"] == 2

    def test_equal_column_totals_give_zero(self):
        result = cochran_q(load_panel([[1, 0], [0, 1]]))
        assert result["q"] == 0.0
        assert result["p"] == 1.0

    def test_matches_straight_line_formula(self):
        rng = np.random.default_rng(29)
        done = 0
        while done < 200:
            cells = rng.integers(0, 2, size=(5, 10))
            row = cells.sum(axis=1)
            if ((row == 0) | (row == 10)).all():
                continue
            result = cochran_q(load_panel(cells))
            assert result["q"] == pytest.approx(brute_force_q(cells.tolist()), rel=1e-12)
            done += 1

    def test_partition_sums_to_q(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            cells = rng.integers(0, 2, size=(7, 50))
            result = cochran_q(load_panel(cells))
            total = sum(c["q"] for c in result["components"])
            assert total == pytest.approx(result["q"], rel=1e-12)

    def test_invariant_under_permutations(self):
        rng = np.random.default_rng(37)
        cells = rng.integers(0, 2, size=(6, 12))
        base = cochran_q(load_panel(cells))
        for _ in range(10):
            rows = rng.permutation(6)
            cols = rng.permutation(12)
            permuted = cochran_q(load_panel(cells[np.ix_(rows, cols)]))
            assert permuted["q"] == pytest.approx(base["q"], rel=1e-12)
            assert permuted["p"] == pytest.approx(base["p"], rel=1e-9)

    def test_degenerate_rows_raise(self):
        all_zero = load_panel(np.zeros((7, 11), dtype=int))
        with pytest.raises(DegenerateDataError, match="no boundary variance"):
            cochran_q(all_zero)
        all_ones = load_panel(np.ones((3, 4), dtype=int))
        with pytest.raises(DegenerateDataError):
            cochran_q(all_ones)
        mixed = load_panel([[0, 0, 0], [1, 1, 1]])
        with pytest.raises(DegenerateDataError):
            cochran_q(mixed)

    def test_single_site_rejected(self):
        with pytest.raises(ValidationError):
            cochran_q(load_panel([[1], [0]]))

    def test_component_df_flag(self):
        zero, _, three = cochran_q(load_panel(WORKED_3x4), component_df="count-1")["components"]
        assert zero["df"] == 1
        assert three["df"] == 0
        assert three["p"] is None
        with pytest.raises(ValidationError):
            cochran_q(load_panel(WORKED_3x4), component_df="bogus")

    def test_fixture_scale_p_order_of_magnitude(self, pear9):
        _, matrix = pear9
        result = cochran_q(matrix)
        assert result["q"] == pytest.approx(45.8667, abs=1e-3)
        assert 1e-7 < result["p"] < 1e-5

    def test_strong_columns_drive_p_below_1e6(self):
        rng = np.random.default_rng(41)
        cells = np.zeros((7, 100), dtype=int)
        cells[:, :8] = 1
        scatter = rng.integers(0, 2, size=(7, 92)) * (
            rng.random((7, 92)) < 0.1
        ).astype(int)
        cells[:, 8:] = scatter
        result = cochran_q(load_panel(cells))
        assert result["p"] < 1e-6


class TestNullCalibration:
    def test_deterministic_for_seed(self):
        first = null_calibration((2, 3, 1), 8, trials=1000, seed=99)
        second = null_calibration((2, 3, 1), 8, trials=1000, seed=99)
        assert first == second
        third = null_calibration((2, 3, 1), 8, trials=1000, seed=100)
        assert (third["rejection_rate_05"], third["quantiles"]) != (
            first["rejection_rate_05"],
            first["quantiles"],
        )

    def test_empirical_p_for_fixture_profile(self, pear9):
        _, matrix = pear9
        observed = cochran_q(matrix)["q"]
        result = null_calibration(
            [int(x) for x in matrix.row_totals],
            matrix.sites,
            trials=1000,
            seed=4,
            observed_q=observed,
        )
        assert result["empirical_p"] is not None
        assert result["empirical_p"] < 0.01

    @pytest.mark.parametrize("rows", [(0, 0, 0), (5, 5, 5)], ids=["all-zero", "all-ones"])
    def test_degenerate_rows_raise(self, rows):
        """Row totals of 0 or sites leave Q's denominator 0 in every trial, as in cochran_q."""
        with pytest.raises(DegenerateDataError, match="^degenerate: no boundary variance$"):
            null_calibration(rows, 5, trials=1000, seed=1, observed_q=0.0)

    def test_bad_trials_reported_before_degenerate_rows(self):
        with pytest.raises(ValidationError, match="^at least 1000 trials are required$"):
            null_calibration((0, 0, 0), 5, trials=10, seed=1)

    def test_tracks_chi_square_reference(self):
        result = null_calibration((3, 4, 2, 5), 20, trials=4000, seed=8)
        for level in (0.5, 0.9, 0.95):
            empirical = result["quantiles"][level]
            reference = result["chi_square_quantiles"][level]
            assert empirical == pytest.approx(reference, rel=0.15)

    def test_validation(self):
        with pytest.raises(ValidationError):
            null_calibration((2, 3), 8, trials=10, seed=0)
        with pytest.raises(ValidationError):
            null_calibration((9,), 8, trials=1000, seed=0)
        with pytest.raises(ValidationError):
            null_calibration((), 8, trials=1000, seed=0)
        with pytest.raises(ValidationError):
            null_calibration((2,), 1, trials=1000, seed=0)
        message = "^observed_q must be finite and non-negative$"
        for observed in (-1.0, float("inf"), float("nan"), True, np.bool_(False), "3", 10**400,
                         -(10**400), Fraction(10**400), [1.0], np.float64("nan")):
            with pytest.raises(ValidationError, match=message):
                null_calibration((2, 3), 8, trials=1000, seed=0, observed_q=observed)

    def test_observed_q_of_any_real_type(self):
        result = null_calibration((2, 3), 8, trials=1000, seed=0, observed_q=3.0)
        for observed in (3, np.int64(3), np.float32(3), Fraction(3)):
            again = null_calibration((2, 3), 8, trials=1000, seed=0, observed_q=observed)
            assert again == result
        assert null_calibration((2, 3), 8, 1000, 0, observed_q=10**300)["empirical_p"] == 1 / 1001

    @pytest.mark.parametrize("rows, trials, seed, message", [
        ((2, 2.5), 1000, 0, "row total must be an integer, got 2.5"),
        ((2, True), 1000, 0, "row total must be an integer, got True"),
        ((2, np.float64(3)), 1000, 0, f"row total must be an integer, got {np.float64(3)!r}"),
        ((2, 3), 1000.0, 0, "trials must be an integer, got 1000.0"),
        ((2, 3), True, 0, "trials must be an integer, got True"),
        ((2, 3), 1000, 1.5, "seed must be an integer, got 1.5"),
        ((2, 3), 1000, False, "seed must be an integer, got False"),
    ])
    def test_non_integer_arguments_refused(self, rows, trials, seed, message):
        with pytest.raises(ValidationError) as excinfo:
            null_calibration(rows, 8, trials, seed)
        assert str(excinfo.value) == message

    def test_numpy_integers_accepted(self):
        result = null_calibration(np.array([2, 3]), 8, np.int64(1000), np.uint8(7))
        assert result == null_calibration((2, 3), 8, 1000, 7)
        # uint8 row totals would wrap in their sum, 270.
        result = null_calibration(np.array([150, 120], dtype=np.uint8), 200, 1000, 0)
        assert result == null_calibration((150, 120), 200, 1000, 0)

    def test_numpy_trials_and_seed_stored_as_ints(self):
        result = null_calibration((2, 3), 8, np.int64(1000), np.uint8(7))
        assert (type(result["trials"]), type(result["seed"])) == (int, int)
        assert json.loads(json.dumps(result))["seed"] == 7

    def test_numpy_integer_sites_accepted(self):
        result = null_calibration((2, 3), np.int64(8), 1000, 0)
        assert result == null_calibration((2, 3), 8, 1000, 0)
        # uint8 arithmetic would wrap in the Q denominator, 200 * 270.
        result = null_calibration((150, 120), np.uint8(200), 1000, 0)
        assert result == null_calibration((150, 120), 200, 1000, 0)

    @pytest.mark.parametrize("sites", [True, np.bool_(True), 8.0, np.float64(8)])
    def test_non_integer_sites_refused(self, sites):
        with pytest.raises(ValidationError, match="^sites must be an integer >= 2$"):
            null_calibration((2, 3), sites, 1000, 0)

    def test_chunk_c_draws_from_its_own_stream(self):
        rows, sites, trials, seed = (30, 50, 10), 200, 6000, 9
        chunk = _CHUNK_CELLS // sites
        columns = np.concatenate([
            _chunk_columns(rows, sites, n, np.random.default_rng((seed, c)))
            for c, n in enumerate((chunk, trials - chunk))
        ]).astype(np.int64)
        total, denom = sum(rows), sites * sum(rows) - sum(u * u for u in rows)
        stats = (sites - 1) * (sites * (columns**2).sum(axis=1) - total**2) / denom
        observed = float(np.median(stats))
        result = null_calibration(rows, sites, trials, seed, observed_q=observed)
        assert result["quantiles"] == {level: float(np.quantile(stats, level))
                                       for level in result["quantiles"]}
        assert result["empirical_p"] == (1 + (stats >= observed).sum()) / (trials + 1)

    def test_column_totals_past_255_subjects(self):
        # Both columns are marked by at least 299 subjects, so every trial
        # has the observed profile (300, 299) in some order and Q = 1.
        result = null_calibration((2,) * 299 + (1,), 2, 1000, 0)
        assert result["quantiles"] == dict.fromkeys((0.5, 0.9, 0.95, 0.99), 1.0)

    STRESS_ROWS = tuple(np.random.default_rng(3).integers(100, 200, size=40).tolist())

    @pytest.mark.parametrize("rows, sites, trials, seed, observed, quantiles, rate, p", [
        (STRESS_ROWS, 1000, 2000, 0, 1050.0,
         (999.1037749776211, 1056.5791471985372, 1071.7462593123898, 1106.075820178508),
         0.0455, 0.13193403298350825),
        (STRESS_ROWS, 1000, 2000, 1, 1050.0,
         (997.7068041250293, 1054.2242534755967, 1070.1896346480735, 1100.092793584122),
         0.043, 0.12243878060969515),
        ((15, 12, 11, 13, 15, 12, 21), 100, 10_000, 0, 120.0,
         (97.4500059304946, 116.23781283359033, 120.93476455936425, 132.67714387379908),
         0.0456, 0.058994100589941006),
    ])
    def test_wide_panels_keep_their_values(self, rows, sites, trials, seed, observed,
                                           quantiles, rate, p):
        # Printed by the reader that drew one Floyd step per call; the
        # 40 x 1000 runs take two chunks of 1048 and 952 trials.
        result = null_calibration(rows, sites, trials, seed, observed_q=observed)
        assert result["quantiles"] == dict(zip((0.5, 0.9, 0.95, 0.99), quantiles))
        assert (result["rejection_rate_05"], result["empirical_p"]) == (rate, p)

    def test_memory_of_a_stress_panel(self):
        rows = np.random.default_rng(3).integers(100, 200, size=40).tolist()
        tracemalloc.start()
        try:
            null_calibration(rows, 1000, 2000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2,248,383 B with numpy 2.4.6 and blocks of 2**13 words; blocks of
        # 2**14 words read 2,317,285 B, past the bound.
        assert peak < 2.2 * 2**20, peak

    def test_memory_of_a_narrow_panel(self):
        # 524288 trials a chunk: the per-trial arrays, not the marks, set the peak.
        tracemalloc.start()
        try:
            null_calibration((1,) * 7, 2, 10**6, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2**20, peak


def lemire_draws(bit_generator, runs, n, refusals=None):
    """integers(0, b, size=n) for each b of each run, in pure Python.

    Each raw 64-bit word gives its low 32 bits, then its high 32 bits. A
    word w maps to (w * b) >> 32 unless (w * b) mod 2**32 falls below
    (2**32 - b) % b, when the draw takes the next word. A bound of 1 takes
    no word. A refusals list gets the number of words each bound refused.
    """
    def words():
        while True:
            raw = int(bit_generator.random_raw())
            yield raw & 0xFFFFFFFF
            yield raw >> 32

    stream = words()
    rows = []
    for b in itertools.chain.from_iterable(runs):
        row, refused = [], 0
        for _ in range(n):
            product = next(stream) * b if b > 1 else 0
            while product % 2**32 < (2**32 - b) % b:
                product = next(stream) * b
                refused += 1
            row.append(product >> 32)
        rows.append(row)
        if refusals is not None:
            refusals.append(refused)
    return rows


class TestFloydDraws:
    """_FloydDraws against integers() one call per bound, and against
    Lemire's rule over the raw words in plain Python.

    Bounds just past 2**31 refuse about half their words, 3 * 2**30 a
    quarter, and 2**32 // 3 = 1431655765 one word in 2**32 (its threshold
    (2**32 - b) % b is 1, while 2**32 // 3 + 1 refuses a third). 2**32 - 7
    refuses few, 2**32 none, and a bound of 1 takes no word at all.
    """

    RUNS = (range(1, 4), range(2**31 + 1, 2**31 + 6), range(7, 9),
            range(3 * 2**30, 3 * 2**30 + 2), range(2**32 // 3, 2**32 // 3 + 2),
            range(2**32 - 7, 2**32 + 1), range(1000, 1003), range(2, 3))
    # 2**22 + 1 and 2**22 + 2 refuse about one word in 1000, several in each
    # of their steps of 2**13 + 1 draws, where a block holds one step.
    WIDE = (range(1, 4), range(2**22, 2**22 + 3), range(2**32 - 7, 2**32 + 1))
    # Rows 0-2 (thresholds 4, 2 and 0) refuse almost never, and row 3 of the
    # five-row block about half its words, so a block is cut in its middle.
    MIDDLE = (range(2**31 - 2, 2**31 + 3),)
    # 3000 steps of 7 draws: blocks of 1170 steps, each read anew.
    LONG = (range(2, 3002),)
    # One draw a step: the 2**13-step read ends on the buffer's last word,
    # and the next step's row starts there.
    LAST_WORD = (range(2, 3), range(2, 2**13 + 2), range(2, 3))
    SHAPES = [pytest.param(WIDE, 2**13 + 1, id="wide-8193"),
              pytest.param(MIDDLE, 5, id="middle-5"), pytest.param(LONG, 7, id="long-7"),
              pytest.param(LAST_WORD, 1, id="last-word-1")]

    @staticmethod
    def drawn(seed, n, runs):
        """The draws t of each step, and how many reads the stream took."""
        draws = _FloydDraws(np.random.default_rng(seed).bit_generator, n)
        read, reads = draws._random_raw, []
        draws._random_raw = lambda size: reads.append(size) or read(size)
        rows = []
        for run in runs:
            for block in draws.blocks(run):
                assert block.dtype == np.int64
                assert (block % n == np.arange(n)).all()
                rows += (block // n).tolist()
        return rows, len(reads)

    @pytest.mark.parametrize("runs, n", [
        pytest.param(RUNS, 1, id="1"), pytest.param(RUNS, 2, id="2"),
        pytest.param(RUNS, 7, id="7"), pytest.param(RUNS, 33, id="33"), *SHAPES])
    def test_equal_to_integers_calls(self, runs, n):
        for seed in range(4):
            rng = np.random.default_rng(seed)
            expected = [rng.integers(0, b, size=n).tolist() for run in runs for b in run]
            assert self.drawn(seed, n, runs)[0] == expected, (seed, n)

    @pytest.mark.parametrize("runs, n", [
        pytest.param(RUNS, 1, id="1"), pytest.param(RUNS, 3, id="3"),
        pytest.param(RUNS, 8, id="8"), *SHAPES])
    def test_equal_to_lemire_over_raw_words(self, runs, n):
        for seed in range(4):
            bit_generator = np.random.default_rng(seed).bit_generator
            assert self.drawn(seed, n, runs)[0] == lemire_draws(bit_generator, runs, n)

    def test_the_cases_reach_their_shapes(self):
        def refusals(seed, n, runs):
            counts = []
            lemire_draws(np.random.default_rng(seed).bit_generator, runs, n, counts)
            return counts

        assert _FloydDraws(np.random.default_rng(0).bit_generator, 2**13 + 1)._rows == 1
        assert _FloydDraws(np.random.default_rng(0).bit_generator, 5)._rows >= 5
        for seed in range(4):
            assert min(refusals(seed, 2**13 + 1, self.WIDE)[4:6]) > 0
            middle = refusals(seed, 5, self.MIDDLE)
            assert middle[:3] == [0, 0, 0] and middle[3] > 0
            assert self.drawn(seed, 7, self.LONG)[1] >= 3

    def test_bound_one_takes_no_word(self):
        for n in (1, 3):
            rng = np.random.default_rng(5)
            assert self.drawn(5, n, (range(1, 2),)) == ([[0] * n], 0)
            assert self.drawn(5, n, (range(1, 2), range(5, 7)))[0] == [[0] * n] + [
                rng.integers(0, b, size=n).tolist() for b in (5, 6)]


def exact_null(row_totals, sites):
    """Every row-preserving placement, as (integer deviation, matrix) pairs.

    The deviation is sum_k (j*T_k - N)^2, which orders placements by Q.
    """
    rows_per_subject = [
        [np.isin(np.arange(sites), chosen).astype(int)
         for chosen in itertools.combinations(range(sites), u)]
        for u in row_totals
    ]
    total = sum(row_totals)
    placements = []
    for rows in itertools.product(*rows_per_subject):
        columns = np.sum(rows, axis=0)
        placements.append((int(((sites * columns - total) ** 2).sum()), np.array(rows)))
    return placements


def floyd_columns(row_totals, sites, n, rng):
    """Column totals of n trials by Floyd's algorithm, one trial at a time.

    Each subject's draws come from one integers() call whose row s holds the
    n draws from [0, sites - u + s], the stream that _chunk_columns takes.
    """
    columns = np.zeros((n, sites), dtype=np.int64)
    for u in row_totals:
        if not u:
            continue
        draws = rng.integers(0, np.arange(sites - u + 1, sites + 1)[:, None], size=(u, n))
        for trial in range(n):
            chosen = set()
            for k, t in zip(range(sites - u, sites), draws[:, trial].tolist()):
                chosen.add(k if t in chosen else t)
            columns[trial, sorted(chosen)] += 1
    return columns


class TestExactNull:
    """Cochran's null model itself, against full enumeration of tiny panels.

    On (2, 3, 1) x 6 no placement reaches the chi-square 5% value, so the
    simulated rejection rate must be exactly 0; (1, 2, 3) x 7 puts 4% of
    placements there.
    """

    TRIALS = 20_000

    def within_4se(self, simulated, exact):
        se = math.sqrt(exact * (1 - exact) / self.TRIALS)
        assert abs(simulated - exact) <= 4 * se, (simulated, exact, se)

    @pytest.mark.parametrize("rows, sites", [((2, 3, 1), 6), ((1, 2, 3), 7)])
    def test_simulated_p_matches_permutation_p(self, rows, sites):
        placements = exact_null(rows, sites)
        assert len(placements) == math.prod(math.comb(sites, u) for u in rows)

        def tail(deviation):
            return sum(d >= deviation for d, _ in placements) / len(placements)

        deviations = sorted({d for d, _ in placements})
        observed = []
        for target in (0.5, 0.05):
            deviation = min(deviations, key=lambda d: abs(tail(d) - target))
            matrix = next(m for d, m in placements if d == deviation)
            observed.append((cochran_q(load_panel(matrix))["q"], tail(deviation)))
        j, total = sites, sum(rows)
        denom = j * total - sum(u * u for u in rows)
        critical = chi_square_critical(0.05, j - 1)
        exact_rejection = sum(
            (j - 1) * d / (j * denom) >= critical for d, _ in placements
        ) / len(placements)
        for seed in (1, 2, 3):
            for q, exact_p in observed:
                result = null_calibration(rows, sites, self.TRIALS, seed, observed_q=q)
                self.within_4se(result["empirical_p"], exact_p)
                self.within_4se(result["rejection_rate_05"], exact_rejection)
                for value, se in ((result["empirical_p"], result["empirical_p_se"]),
                                  (result["rejection_rate_05"], result["rejection_rate_05_se"])):
                    assert se == pytest.approx(math.sqrt(value * (1 - value) / self.TRIALS))

    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_chunk_matches_per_trial_floyd(self, n):
        for sites in range(1, 13):
            rows = tuple(range(sites + 1))
            expected = floyd_columns(rows, sites, n, np.random.default_rng((sites, n)))
            columns = _chunk_columns(rows, sites, n, np.random.default_rng((sites, n)))
            assert columns.tolist() == expected.tolist(), (sites, n)

    @pytest.mark.parametrize("rows, sites, n", [
        ((45, 50, 7), 50, 999),  # a block holds 8 steps; 45 and 50 span 6 and 7
        ((3, 1, 3), 3, 1001),  # a row total of 3 starts with a bound of 1
    ])
    def test_chunk_matches_per_trial_floyd_across_reads(self, rows, sites, n):
        expected = floyd_columns(rows, sites, n, np.random.default_rng((sites, n)))
        columns = _chunk_columns(rows, sites, n, np.random.default_rng((sites, n)))
        assert columns.tolist() == expected.tolist()

    def test_every_trial_keeps_its_row_totals(self):
        rng = np.random.default_rng(7)
        for u in range(7):
            columns = _chunk_columns((u,), 6, 500, rng)
            assert set(np.unique(columns)) <= {0, 1}
            assert (columns.sum(axis=1) == u).all()
        columns = _chunk_columns((2, 3, 1, 0, 6), 6, 500, rng)
        assert (columns.sum(axis=1) == 12).all()
        assert columns.min() >= 1 and columns.max() <= 4


def _splits(u, caps):
    """Every (m_0, m_1, ...) with 0 <= m_t <= caps[t] and sum(m) == u."""
    if not caps:
        if u == 0:
            yield ()
        return
    for m in range(min(u, caps[0]) + 1):
        for rest in _splits(u - m, caps[1:]):
            yield (m, *rest)


def exact_q_distribution(row_totals, sites) -> Counter:
    """Cochran's null of Q as {exact Q: number of placements}.

    A state is the histogram h of column totals so far: h[t] columns are
    marked by t subjects. A subject with u marks moves m_t columns from t to
    t + 1 for every t, with sum(m) == u, in prod_t C(h[t], m_t) ways; the last
    class is still empty then, so it gives no columns. Q depends on the
    columns only through S = sum_k T_k^2 = sum_t t^2 h[t]:
    Q = (j - 1) * (j * S - N^2) / (j * N - sum(u^2)).
    """
    states = {(sites,) + (0,) * len(row_totals): 1}
    for u in row_totals:
        after = defaultdict(int)
        for h, ways in states.items():
            for m in _splits(u, h[:-1]):
                g = list(h)
                for t, m_t in enumerate(m):
                    g[t] -= m_t
                    g[t + 1] += m_t
                after[tuple(g)] += ways * math.prod(map(math.comb, h, m))
        states = after
    j, total = sites, sum(row_totals)
    denom = j * total - sum(u * u for u in row_totals)
    distribution = Counter()
    for h, ways in states.items():
        square_sum = sum(t * t * n for t, n in enumerate(h))
        distribution[Fraction((j - 1) * (j * square_sum - total * total), denom)] += ways
    return distribution


def exact_tail(distribution: Counter, q) -> Fraction:
    """P(Q >= q) under the exact null, ties included."""
    return Fraction(sum(w for value, w in distribution.items() if value >= q),
                    sum(distribution.values()))


def exact_q(cells) -> Fraction:
    cells = np.asarray(cells)
    j, rows, columns = cells.shape[1], cells.sum(axis=1).tolist(), cells.sum(axis=0).tolist()
    total = sum(rows)
    return Fraction((j - 1) * (j * sum(t * t for t in columns) - total * total),
                    j * total - sum(u * u for u in rows))


def assert_within_4se(simulated, exact, trials):
    """|simulated - exact| <= 4 SE, the SE floored at 1/trials."""
    se = max(math.sqrt(exact * (1 - exact) / trials), 1 / trials)
    assert abs(simulated - exact) <= 4 * se, (simulated, float(exact), se)


class TestExactNullByHistogram:
    """The exact null by dynamic programming, where enumeration is too big."""

    @pytest.mark.parametrize("rows, sites", [((2, 3, 1), 6), ((1, 2, 3), 7)])
    def test_matches_enumeration(self, rows, sites):
        denom = sites * sum(rows) - sum(u * u for u in rows)
        enumerated = Counter(
            Fraction((sites - 1) * d, sites * denom) for d, _ in exact_null(rows, sites)
        )
        assert exact_q_distribution(rows, sites) == enumerated

    def test_pear9_exact_values(self, pear9):
        _, matrix = pear9
        distribution = exact_q_distribution(matrix.row_totals.tolist(), matrix.sites)
        assert sum(distribution.values()) == math.prod(
            math.comb(matrix.sites, u) for u in matrix.row_totals.tolist()
        )
        rejection = exact_tail(distribution, sps.chi2.isf(0.05, matrix.sites - 1))
        assert rejection == Fraction(24877219471, 747377296875)
        assert round(float(rejection), 5) == 0.03329
        observed = exact_q(matrix.cells)
        assert observed == Fraction(688, 15)
        assert exact_tail(distribution, observed) == Fraction(12709, 49825153125)
        assert f"{float(exact_tail(distribution, observed)):.2e}" == "2.55e-07"

    def test_pear9_calibration_within_4se(self, pear9):
        _, matrix = pear9
        rows = matrix.row_totals.tolist()
        distribution = exact_q_distribution(rows, matrix.sites)
        observed = cochran_q(matrix)["q"]
        result = null_calibration(rows, matrix.sites, 10_000, 0, observed_q=observed)
        assert_within_4se(result["rejection_rate_05"],
                          exact_tail(distribution, chi_square_critical(0.05, matrix.sites - 1)),
                          10_000)
        assert_within_4se(result["empirical_p"], exact_tail(distribution, exact_q(matrix.cells)),
                          10_000)

    def test_trials_spanning_chunks_within_4se(self):
        rows, sites, trials = (10, 25, 40), 200, 10_000
        assert trials > _CHUNK_CELLS // sites  # so chunk 1 draws a share of them
        distribution = exact_q_distribution(rows, sites)
        observed = min(distribution, key=lambda q: abs(exact_tail(distribution, q) - 0.1))
        result = null_calibration(rows, sites, trials, 5, observed_q=float(observed))
        assert_within_4se(result["rejection_rate_05"],
                          exact_tail(distribution, chi_square_critical(0.05, sites - 1)), trials)
        assert_within_4se(result["empirical_p"], exact_tail(distribution, observed), trials)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=hst.data())
    def test_small_panels_within_4se(self, data):
        subjects = data.draw(hst.integers(1, 4))
        sites = data.draw(hst.integers(2, 7))
        cells = data.draw(hst.lists(hst.lists(hst.integers(0, 1), min_size=sites, max_size=sites),
                                    min_size=subjects, max_size=subjects))
        rows = [sum(row) for row in cells]
        assume(any(0 < u < sites for u in rows))
        seed = data.draw(hst.integers(0, 2**31))
        observed = exact_q(cells)
        distribution = exact_q_distribution(rows, sites)
        result = null_calibration(rows, sites, 2000, seed, observed_q=float(observed))
        assert_within_4se(result["rejection_rate_05"],
                          exact_tail(distribution, chi_square_critical(0.05, sites - 1)), 2000)
        assert_within_4se(result["empirical_p"], exact_tail(distribution, observed), 2000)
