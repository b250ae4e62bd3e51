"""Tests for the workload generators."""

import os
import random
import subprocess
import sys

import pytest

from repro.core import compute_statistics
from repro.exceptions import OspError
from repro.offline import solve_exact
from repro.workloads import (
    disjoint_blocks_instance,
    full_gadget_instance,
    make_video_workload,
    random_online_instance,
    random_set_system,
    random_variable_capacity_instance,
    random_weighted_instance,
    t_design_style_instance,
    uniform_both_instance,
    uniform_load_instance,
    uniform_set_size_instance,
)


class TestRandomInstances:
    def test_sizes_in_range(self, rng):
        system = random_set_system(30, 50, (2, 4), rng)
        for set_id in system.set_ids:
            assert 2 <= system.size(set_id) <= 4

    def test_weight_and_capacity_ranges(self, rng):
        system = random_set_system(
            20, 40, (2, 3), rng, weight_range=(2.0, 5.0), capacity_range=(1, 3)
        )
        for set_id in system.set_ids:
            assert 2.0 <= system.weight(set_id) <= 5.0
        for element in system.element_ids:
            assert 1 <= system.capacity(element) <= 3

    def test_unused_elements_dropped(self, rng):
        system = random_set_system(3, 100, (1, 1), rng)
        assert system.num_elements <= 3

    def test_reproducible(self):
        a = random_online_instance(20, 30, (2, 3), random.Random(9))
        b = random_online_instance(20, 30, (2, 3), random.Random(9))
        assert a.to_json() == b.to_json()

    def test_online_instance_has_shuffled_order(self, rng):
        instance = random_online_instance(20, 30, (2, 3), rng)
        assert sorted(instance.arrival_order, key=repr) == sorted(
            instance.system.element_ids, key=repr
        )

    def test_weighted_shortcut(self, rng):
        instance = random_weighted_instance(15, 25, (2, 3), rng)
        assert not instance.system.is_unweighted()
        assert instance.system.is_unit_capacity()

    def test_variable_capacity_shortcut(self, rng):
        instance = random_variable_capacity_instance(15, 25, (2, 3), (1, 4), rng)
        stats = compute_statistics(instance.system)
        assert stats.capacity_max >= 1

    def test_invalid_parameters(self, rng):
        with pytest.raises(OspError):
            random_set_system(0, 10, (1, 2), rng)
        with pytest.raises(OspError):
            random_set_system(5, 10, (0, 2), rng)
        with pytest.raises(OspError):
            random_set_system(5, 10, (3, 2), rng)
        with pytest.raises(OspError):
            random_set_system(5, 10, (2, 20), rng)
        with pytest.raises(OspError):
            random_set_system(5, 10, (1, 2), rng, capacity_range=(0, 1))
        with pytest.raises(OspError):
            random_variable_capacity_instance(5, 10, (1, 2), (0, 2), rng)

    def test_variable_capacities_do_not_depend_on_the_hash_seed(self):
        """Capacities are drawn in sorted element order, not in the hash
        order of a set of names, so two interpreters with different
        ``PYTHONHASHSEED`` values build the same instance."""
        script = (
            "import random\n"
            "from repro.experiments.opt_cache import system_fingerprint\n"
            "from repro.workloads import random_online_instance\n"
            "instance = random_online_instance(12, 20, (2, 4), random.Random(2),\n"
            "                                  capacity_range=(1, 3))\n"
            "print(system_fingerprint(instance.system))\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        fingerprints = set()
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")])
            )
            result = subprocess.run(
                [sys.executable, "-c", script],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            fingerprints.add(result.stdout.strip())
        assert len(fingerprints) == 1


class TestUniformWorkloads:
    def test_uniform_set_size(self, rng):
        instance = uniform_set_size_instance(25, 40, 3, rng)
        stats = compute_statistics(instance.system)
        assert stats.uniform_set_size
        assert stats.k_max == 3

    def test_uniform_load(self, rng):
        instance = uniform_load_instance(20, 35, 4, rng)
        stats = compute_statistics(instance.system)
        assert stats.uniform_load
        assert stats.sigma_max == 4

    def test_uniform_both(self, rng):
        instance = uniform_both_instance(num_sets=15, set_size=4, load=3, rng=rng)
        stats = compute_statistics(instance.system)
        assert stats.uniform_set_size
        assert stats.uniform_load
        assert stats.k_max == 4
        assert stats.sigma_max == 3
        assert stats.num_elements == 15 * 4 // 3

    def test_uniform_both_incidence_identity(self, rng):
        instance = uniform_both_instance(num_sets=12, set_size=3, load=4, rng=rng)
        stats = compute_statistics(instance.system)
        assert stats.num_sets * stats.k_mean == pytest.approx(
            stats.num_elements * stats.sigma_mean
        )

    def test_uniform_both_divisibility_check(self, rng):
        with pytest.raises(OspError):
            uniform_both_instance(num_sets=7, set_size=3, load=4, rng=rng)

    def test_uniform_invalid_parameters(self, rng):
        with pytest.raises(OspError):
            uniform_set_size_instance(10, 5, 8, rng)
        with pytest.raises(OspError):
            uniform_load_instance(5, 10, 7, rng)
        with pytest.raises(OspError):
            uniform_both_instance(5, 0, 1, rng)
        with pytest.raises(OspError):
            uniform_both_instance(5, 2, 6, rng)


class TestStructuredWorkloads:
    def test_full_gadget_opt_is_one(self):
        instance = full_gadget_instance(3, 3)
        solution = solve_exact(instance.system)
        assert solution.weight == pytest.approx(1.0)

    def test_full_gadget_counts(self):
        instance = full_gadget_instance(2, 4)
        assert instance.system.num_sets == 8
        assert instance.system.num_elements == 16 + 2

    def test_disjoint_blocks_opt(self):
        instance = disjoint_blocks_instance(5, 4, 3)
        solution = solve_exact(instance.system)
        assert solution.weight == pytest.approx(5.0)

    def test_disjoint_blocks_structure(self):
        instance = disjoint_blocks_instance(3, 2, 4)
        stats = compute_statistics(instance.system)
        assert stats.num_sets == 6
        assert stats.num_elements == 12
        assert stats.sigma_max == 2
        assert stats.k_max == 4

    def test_disjoint_blocks_invalid(self):
        with pytest.raises(OspError):
            disjoint_blocks_instance(0, 1, 1)

    def test_t_design_structure(self, rng):
        instance = t_design_style_instance(4, rng)
        stats = compute_statistics(instance.system)
        assert stats.num_sets == 16
        assert stats.sigma_max == 4
        assert stats.uniform_load

    def test_t_design_column_is_feasible(self, rng):
        # The paper's warm-up claims a full column S_{1,j},...,S_{t,j} can be
        # completed; check the column is a feasible packing.
        t = 4
        instance = t_design_style_instance(t, rng)
        column = [f"S{i}_0" for i in range(t)]
        assert instance.system.is_feasible_packing(column)

    def test_t_design_invalid(self, rng):
        with pytest.raises(OspError):
            t_design_style_instance(1, rng)


class TestVideoWorkload:
    def test_workload_shapes(self):
        workload = make_video_workload(num_flows=3, frames_per_flow=8, seed=1)
        assert workload.num_frames == 24
        assert workload.instance.system.num_sets == 24
        assert workload.max_burst >= 1
        assert workload.link_capacity == 1

    def test_reproducible_by_seed(self):
        a = make_video_workload(num_flows=2, frames_per_flow=5, seed=7)
        b = make_video_workload(num_flows=2, frames_per_flow=5, seed=7)
        assert a.instance.to_json() == b.instance.to_json()

    def test_different_seeds_differ(self):
        a = make_video_workload(num_flows=2, frames_per_flow=5, seed=1)
        b = make_video_workload(num_flows=2, frames_per_flow=5, seed=2)
        assert a.instance.to_json() != b.instance.to_json()

    def test_weights_reflect_frame_sizes(self):
        workload = make_video_workload(num_flows=2, frames_per_flow=6, seed=3)
        system = workload.instance.system
        for frame_id, frame in workload.frames.items():
            assert system.weight(frame_id) == pytest.approx(frame.weight)

    def test_custom_gop_and_sizes(self):
        workload = make_video_workload(
            num_flows=1,
            frames_per_flow=4,
            seed=0,
            gop_pattern="II",
            mean_sizes_bytes={"I": 3000.0},
        )
        assert all(frame.frame_type == "I" for frame in workload.frames.values())
