"""Tests for OPT estimation, ratio measurement, sweeps and report rendering."""

import math
import random

import pytest

from repro.algorithms import FirstListedAlgorithm, GreedyWeightAlgorithm, RandPrAlgorithm
from repro.core import OnlineInstance, SetSystem
from repro.exceptions import SolverError
from repro.experiments import (
    banner,
    estimate_opt,
    format_markdown_table,
    format_sweep,
    format_table,
    measure_ratio,
    measure_suite,
    run_sweep,
    summarize_rows,
)
from repro.experiments.harness import ExperimentRow
from repro.workloads import random_online_instance


class TestEstimateOpt:
    def test_exact_on_small(self, tiny_system):
        estimate = estimate_opt(tiny_system, method="auto")
        assert estimate.is_exact
        assert estimate.value == pytest.approx(4.0)

    def test_explicit_exact(self, disjoint_system):
        estimate = estimate_opt(disjoint_system, method="exact")
        assert estimate.value == pytest.approx(2.0)

    def test_lp_is_upper_bound(self, tiny_system):
        lp = estimate_opt(tiny_system, method="lp")
        exact = estimate_opt(tiny_system, method="exact")
        assert not lp.is_exact
        assert lp.value >= exact.value - 1e-6
        assert lp.lower_bound <= lp.value + 1e-6

    def test_local_search_is_lower_bound(self, tiny_system):
        ls = estimate_opt(tiny_system, method="local-search")
        exact = estimate_opt(tiny_system, method="exact")
        assert ls.value <= exact.value + 1e-9

    def test_auto_switches_to_lp_for_large(self, rng):
        instance = random_online_instance(40, 60, (2, 4), rng)
        estimate = estimate_opt(instance.system, method="auto", exact_set_limit=10)
        assert not estimate.is_exact

    def test_lp_branch_runs_no_local_search(self, monkeypatch, tiny_system):
        """The LP branch's lower bound is the greedy packing: local search
        is reached only through ``method="local-search"``."""
        from repro.experiments import competitive_ratio

        def refuse(*args, **kwargs):
            raise AssertionError("local search ran on the LP branch")

        monkeypatch.setattr(competitive_ratio, "local_search_packing", refuse)
        large = random_online_instance(100, 150, (2, 4), random.Random(3)).system
        for system, method in [(large, "auto"), (tiny_system, "lp")]:
            estimate = estimate_opt(system, method=method)
            assert not estimate.is_exact
            assert 0.0 < estimate.lower_bound <= estimate.value + 1e-6

    def test_unknown_method_rejected(self, tiny_system):
        with pytest.raises(SolverError):
            estimate_opt(tiny_system, method="bogus")


class TestMeasureRatio:
    def test_deterministic_algorithm_uses_single_trial(self, tiny_instance):
        measurement = measure_ratio(tiny_instance, GreedyWeightAlgorithm(), trials=50)
        assert measurement.trials == 1
        assert measurement.std_benefit == 0.0

    def test_randomized_algorithm_runs_requested_trials(self, tiny_instance):
        measurement = measure_ratio(tiny_instance, RandPrAlgorithm(), trials=25, seed=1)
        assert measurement.trials == 25
        assert measurement.mean_benefit > 0

    def test_ratio_definition(self, tiny_instance):
        measurement = measure_ratio(tiny_instance, GreedyWeightAlgorithm())
        assert measurement.ratio == pytest.approx(
            measurement.opt.value / measurement.mean_benefit
        )

    def test_zero_benefit_gives_infinite_ratio(self, tiny_instance):
        class Refuser(FirstListedAlgorithm):
            name = "refuser"

            def decide(self, arrival):
                return frozenset()

        measurement = measure_ratio(tiny_instance, Refuser())
        assert math.isinf(measurement.ratio)

    def test_precomputed_opt_reused(self, tiny_instance):
        opt = estimate_opt(tiny_instance.system)
        measurement = measure_ratio(tiny_instance, GreedyWeightAlgorithm(), opt=opt)
        assert measurement.opt is opt

    def test_as_dict(self, tiny_instance):
        payload = measure_ratio(tiny_instance, GreedyWeightAlgorithm()).as_dict()
        assert {"algorithm", "ratio", "opt", "mean_benefit"} <= set(payload)

    def test_measure_suite_shares_opt(self, tiny_instance):
        suite = measure_suite(
            tiny_instance, [RandPrAlgorithm(), GreedyWeightAlgorithm()], trials=5
        )
        assert set(suite) == {"randPr", "greedy-weight"}
        opts = {measurement.opt.value for measurement in suite.values()}
        assert len(opts) == 1


class TestRunSweep:
    def _points(self):
        def factory(sigma):
            def build(rng):
                return random_online_instance(
                    12, 20, (2, 3), rng, name=f"sigma{sigma}"
                )

            return build

        return [(f"point{sigma}", factory(sigma)) for sigma in (2, 3)]

    def test_rows_per_point_and_algorithm(self):
        sweep = run_sweep(
            "demo",
            self._points(),
            [RandPrAlgorithm(), GreedyWeightAlgorithm()],
            instances_per_point=2,
            trials_per_instance=5,
        )
        assert len(sweep.rows) == 4
        assert set(sweep.algorithms()) == {"randPr", "greedy-weight"}
        assert len(sweep.rows_for("randPr")) == 2

    def test_rows_have_bounds_and_ratios(self):
        sweep = run_sweep(
            "demo",
            self._points(),
            [RandPrAlgorithm()],
            instances_per_point=2,
            trials_per_instance=5,
        )
        for row in sweep.rows:
            assert row.mean_opt > 0
            assert row.theorem1_bound >= 1.0
            assert row.corollary6_bound >= row.theorem1_bound - 1e-9
            assert math.isfinite(row.mean_ratio)

    def test_randpr_rows_respect_corollary6(self):
        sweep = run_sweep(
            "demo",
            self._points(),
            [RandPrAlgorithm()],
            instances_per_point=2,
            trials_per_instance=20,
        )
        summary = summarize_rows(sweep.rows)
        assert summary["all_within_cor6"] == 1.0

    def test_summarize_empty(self):
        assert summarize_rows([])["rows"] == 0

    def test_row_as_dict(self):
        row = ExperimentRow(
            parameter_label="p",
            algorithm_name="a",
            num_instances=1,
            mean_benefit=1.0,
            mean_opt=2.0,
            mean_ratio=2.0,
            max_ratio=2.0,
            theorem1_bound=3.0,
            corollary6_bound=4.0,
            best_bound=3.0,
            k_max=2,
            sigma_max=2,
            extra={"note": 1.5},
        )
        payload = row.as_dict()
        assert payload["parameter"] == "p"
        assert payload["note"] == 1.5
        assert row.within_theorem1
        assert row.within_corollary6


class TestReports:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}]
        text = format_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_handles_special_floats(self):
        rows = [{"v": float("nan")}, {"v": float("inf")}]
        text = format_table(rows)
        assert "-" in text
        assert "inf" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="x")

    def test_format_markdown_table(self):
        rows = [{"a": 1.23456, "b": "x"}]
        text = format_markdown_table(rows, title="demo")
        assert text.splitlines()[0] == "**demo**"
        assert "| a | b |" in text
        assert "| 1.235 | x |" in text

    def test_format_markdown_empty(self):
        assert "(no rows)" in format_markdown_table([])

    def test_format_sweep(self):
        sweep = run_sweep(
            "tiny-sweep",
            [("p", lambda rng: random_online_instance(8, 12, (2, 3), rng))],
            [GreedyWeightAlgorithm()],
            instances_per_point=1,
            trials_per_instance=1,
        )
        text = format_sweep(sweep)
        assert "tiny-sweep" in text
        assert "greedy-weight" in text

    def test_banner(self):
        text = banner("hello", width=10)
        assert "hello" in text
        assert "=" * 10 in text
