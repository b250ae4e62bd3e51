"""Tests for the offline solvers: exact, greedy, LP relaxation, local search."""

import random

import pytest

from repro.core.set_system import SetSystem
from repro.exceptions import SolverError
from repro.offline import (
    dual_feasible_bound,
    greedy_density_packing,
    greedy_offline_packing,
    local_search_packing,
    lp_relaxation_bound,
    solve_exact,
)
from repro.workloads import (
    disjoint_blocks_instance,
    random_online_instance,
    random_set_system,
)


class TestExactSolver:
    def test_disjoint_sets_all_taken(self, disjoint_system):
        solution = solve_exact(disjoint_system)
        assert solution.chosen_sets == frozenset({"X", "Y"})
        assert solution.weight == pytest.approx(2.0)
        assert solution.is_optimal

    def test_tiny_instance_optimum(self, tiny_system):
        # A conflicts with both B and C; B and C conflict on t4.  Best single
        # choice is A (4) or B+? B and C intersect, so max is max(4, 3, 3) plus
        # nothing else -> 4.
        solution = solve_exact(tiny_system)
        assert solution.weight == pytest.approx(4.0)
        assert solution.chosen_sets == frozenset({"A"})

    def test_weighted_choice(self):
        system = SetSystem(
            sets={"big": ["u"], "a": ["u", "x"], "b": ["y"]},
            weights={"big": 10.0, "a": 2.0, "b": 3.0},
        )
        solution = solve_exact(system)
        assert solution.chosen_sets == frozenset({"big", "b"})
        assert solution.weight == pytest.approx(13.0)

    def test_capacity_respected(self):
        system = SetSystem(
            sets={"S": ["u"], "T": ["u"], "R": ["u"]}, capacities={"u": 2}
        )
        solution = solve_exact(system)
        assert solution.weight == pytest.approx(2.0)

    def test_solution_is_feasible(self):
        for seed in range(5):
            system = random_set_system(20, 30, (2, 4), random.Random(seed))
            solution = solve_exact(system)
            assert system.is_feasible_packing(solution.chosen_sets)

    def test_beats_or_matches_greedy(self):
        for seed in range(5):
            system = random_set_system(
                25, 35, (2, 4), random.Random(seed), weight_range=(1.0, 5.0)
            )
            exact = solve_exact(system)
            greedy = greedy_offline_packing(system)
            assert exact.weight >= greedy.weight - 1e-9

    def test_blocks_optimum(self):
        instance = disjoint_blocks_instance(4, 3, 2)
        solution = solve_exact(instance.system)
        assert solution.weight == pytest.approx(4.0)

    def test_node_budget_exhaustion_returns_incumbent(self):
        system = random_set_system(30, 40, (2, 4), random.Random(1))
        solution = solve_exact(system, max_nodes=5)
        assert not solution.is_optimal
        assert system.is_feasible_packing(solution.chosen_sets)
        assert solution.weight > 0

    def test_invalid_warm_start_rejected(self, tiny_system):
        with pytest.raises(SolverError):
            solve_exact(tiny_system, initial_solution=frozenset({"A", "B"}))

    def test_warm_start_accepted(self, tiny_system):
        solution = solve_exact(tiny_system, initial_solution=frozenset({"B"}))
        assert solution.weight == pytest.approx(4.0)

    def test_empty_system(self):
        solution = solve_exact(SetSystem(sets={}))
        assert solution.weight == 0.0
        assert solution.chosen_sets == frozenset()

    def test_empty_sets_always_chosen(self):
        system = SetSystem(sets={"E": [], "S": ["u"]}, weights={"E": 2.0, "S": 1.0})
        solution = solve_exact(system)
        assert "E" in solution.chosen_sets
        assert solution.weight == pytest.approx(3.0)


class TestGreedy:
    def test_weight_order(self):
        system = SetSystem(
            sets={"heavy": ["u"], "light": ["u"]},
            weights={"heavy": 5.0, "light": 1.0},
        )
        solution = greedy_offline_packing(system)
        assert solution.chosen_sets == frozenset({"heavy"})
        assert solution.order_used == "weight"

    def test_density_order_can_beat_weight_order(self):
        # One huge heavy set blocks everything vs many small light sets.
        sets = {"hog": [f"u{i}" for i in range(6)]}
        weights = {"hog": 3.0}
        for i in range(6):
            sets[f"s{i}"] = [f"u{i}"]
            weights[f"s{i}"] = 1.0
        system = SetSystem(sets, weights=weights)
        by_weight = greedy_offline_packing(system)
        by_density = greedy_density_packing(system)
        assert by_weight.weight == pytest.approx(3.0)
        assert by_density.weight == pytest.approx(6.0)

    def test_solutions_feasible(self):
        for seed in range(5):
            system = random_set_system(25, 30, (2, 4), random.Random(seed))
            for solution in (greedy_offline_packing(system), greedy_density_packing(system)):
                assert system.is_feasible_packing(solution.chosen_sets)

    def test_num_sets_property(self, disjoint_system):
        assert greedy_offline_packing(disjoint_system).num_sets == 2


class TestLpRelaxation:
    def test_upper_bounds_exact(self):
        for seed in range(5):
            system = random_set_system(
                20, 25, (2, 4), random.Random(seed), weight_range=(1.0, 4.0)
            )
            exact = solve_exact(system)
            lp = lp_relaxation_bound(system)
            assert lp.value >= exact.weight - 1e-6

    def test_disjoint_lp_is_tight(self, disjoint_system):
        lp = lp_relaxation_bound(disjoint_system)
        assert lp.value == pytest.approx(2.0, abs=1e-6)

    def test_fractional_solution_within_bounds(self, tiny_system):
        lp = lp_relaxation_bound(tiny_system)
        if lp.fractional_solution is not None:
            for value in lp.fractional_solution.values():
                assert -1e-9 <= value <= 1.0 + 1e-9

    def test_empty_system(self):
        assert lp_relaxation_bound(SetSystem(sets={})).value == 0.0

    def test_dual_feasible_upper_bounds_exact(self):
        for seed in range(5):
            system = random_set_system(
                20, 25, (2, 4), random.Random(seed), weight_range=(1.0, 4.0)
            )
            exact = solve_exact(system)
            dual = dual_feasible_bound(system)
            assert dual.value >= exact.weight - 1e-9

    def test_dual_feasible_counts_empty_sets(self):
        system = SetSystem(sets={"E": [], "S": ["u"]}, weights={"E": 2.0, "S": 1.0})
        assert dual_feasible_bound(system).value >= 3.0 - 1e-9

    @pytest.mark.parametrize(
        "num_elements, capacity_range", [(500, (1, 1)), (300, (1, 1)), (60, (1, 3))]
    )
    def test_csr_build_is_bit_equal_to_an_item_by_item_build(
        self, num_elements, capacity_range
    ):
        """The constraint matrix is built from CSR arrays; HiGHS must get the
        same matrix, and so give the same bits, as from a ``lil_matrix``
        filled item by item (the 200-set sweep shape, and variable
        capacities)."""
        pytest.importorskip("scipy")
        from scipy.optimize import linprog
        from scipy.sparse import lil_matrix

        system = random_online_instance(
            200, num_elements, (2, 5), random.Random(num_elements),
            weight_range=(1.0, 6.0), capacity_range=capacity_range,
        ).system
        set_ids, element_ids = list(system.set_ids), list(system.element_ids)
        column = {set_id: index for index, set_id in enumerate(set_ids)}
        constraint = lil_matrix((len(element_ids), len(set_ids)))
        for row, element in enumerate(element_ids):
            for set_id in system.parents(element):
                constraint[row, column[set_id]] = 1.0
        expected = linprog(
            [-system.weight(set_id) for set_id in set_ids],
            A_ub=constraint.tocsr(),
            b_ub=[float(system.capacity(element)) for element in element_ids],
            bounds=[(0.0, 1.0)] * len(set_ids),
            method="highs",
        )
        bound = lp_relaxation_bound(system)
        assert bound.method == "scipy-highs"
        assert bound.value == -float(expected.fun)
        assert bound.fractional_solution == {
            set_id: float(expected.x[column[set_id]]) for set_id in set_ids
        }

    def test_pure_python_fallback_available(self, tiny_system):
        bound = lp_relaxation_bound(tiny_system, prefer_scipy=False)
        assert bound.method == "dual-feasible"
        assert bound.value >= solve_exact(tiny_system).weight - 1e-9


class TestLocalSearch:
    def test_improves_or_matches_greedy(self):
        for seed in range(5):
            system = random_set_system(
                25, 30, (2, 4), random.Random(seed), weight_range=(1.0, 5.0)
            )
            greedy = greedy_offline_packing(system)
            improved = local_search_packing(system)
            assert improved.weight >= greedy.weight - 1e-9
            assert system.is_feasible_packing(improved.chosen_sets)

    def test_swap_1_for_2(self):
        # Greedy takes the heavy hog; the optimum swaps it for two lighter sets.
        system = SetSystem(
            sets={"hog": ["u", "v"], "left": ["u"], "right": ["v"]},
            weights={"hog": 3.0, "left": 2.0, "right": 2.0},
        )
        greedy = greedy_offline_packing(system)
        assert greedy.weight == pytest.approx(3.0)
        improved = local_search_packing(system)
        assert improved.weight == pytest.approx(4.0)

    def test_never_below_exact_lower_but_below_exact_value(self):
        for seed in range(3):
            system = random_set_system(20, 25, (2, 3), random.Random(seed))
            exact = solve_exact(system)
            local = local_search_packing(system)
            assert local.weight <= exact.weight + 1e-9

    def test_explicit_initial_solution(self, disjoint_system):
        result = local_search_packing(disjoint_system, initial=["X"])
        assert result.chosen_sets == frozenset({"X", "Y"})
        assert result.improved_from == pytest.approx(1.0)

    def test_infeasible_initial_rejected(self, tiny_system):
        with pytest.raises(SolverError):
            local_search_packing(tiny_system, initial=["A", "B"])
