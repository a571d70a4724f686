import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from conftest import cli_env

from entropiclab import (
    RegionSpec,
    SourceDistribution,
    gravity,
    laplacian_spot_check,
    mean_h,
    rasterize,
    trace_potential,
    weak_field_epsilon,
)
from entropiclab import _fanout
from entropiclab.config import source_from
from entropiclab.seeding import BLOCK_SAMPLES, block_generator, block_ranges


def point_mass_source(mass=1.0, spacing=0.1):
    return rasterize(
        [{"kind": "point", "position": [spacing / 2, spacing / 2, spacing / 2], "mass": mass}],
        shape=(4, 4, 4),
        spacing=spacing,
    )


def ball_source(resolution, radius=0.5, density=1.0):
    spacing = 2.0 * radius / (resolution / 2)
    half = spacing * resolution / 2
    return rasterize(
        [{"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": radius, "trace": density}],
        shape=(resolution, resolution, resolution),
        spacing=spacing,
        origin=(-half, -half, -half),
    )


class TestTracePotential:
    def test_single_cell_inverse_distance(self):
        source = point_mass_source(mass=1.0)
        center = source.cell_data()[0][0]
        value = trace_potential(source, center + np.array([2.0, 0.0, 0.0]))
        assert abs(value - 2.0) <= 1e-12

    def test_uniform_ball_matches_far_field(self):
        # shell-theorem analogue: outside a ball the potential is 4M/r;
        # check two lattice resolutions against the closed form
        for resolution in (32, 64):
            source = ball_source(resolution)
            mass = source.total_mass
            for r in (2.0, 3.5):
                h = trace_potential(source, np.array([r, 0.0, 0.0]))
                assert abs(h - 4.0 * mass / r) <= 0.01 * 4.0 * mass / r

    def test_vacuum_source(self):
        source = SourceDistribution(np.zeros((3, 3, 3)), spacing=0.5)
        assert trace_potential(source, [10.0, 0.0, 0.0]) == 0.0

    def test_point_on_support_rejected(self):
        source = point_mass_source()
        center = source.cell_data()[0][0]
        with pytest.raises(ValueError, match="support"):
            trace_potential(source, center)
        with pytest.raises(ValueError, match="support"):
            trace_potential(source, center + np.array([0.5 * source.spacing, 0.0, 0.0]))

    def test_nonnegative_everywhere_outside(self):
        rng = np.random.default_rng(1)
        source = ball_source(16)
        for _ in range(25):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            point = direction * rng.uniform(1.5, 20.0)
            assert trace_potential(source, point) >= 0.0

    def test_monotone_in_the_source(self):
        base = ball_source(16, density=1.0)
        heavier = SourceDistribution(base.trace * 2.0, base.spacing, base.origin)
        for r in (1.5, 4.0, 9.0):
            point = [r, 0.2, -0.1]
            assert trace_potential(heavier, point) >= trace_potential(base, point)

    def test_far_field_falloff(self):
        source = ball_source(24, radius=0.5)
        mass = source.total_mass
        for factor in (10.0, 20.0, 40.0):
            r = factor * 0.5
            h = trace_potential(source, [0.0, r, 0.0])
            assert abs(r * h / (4.0 * mass) - 1.0) <= 0.01

    def test_negative_trace_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            SourceDistribution(-np.ones((2, 2, 2)), spacing=1.0)


class TestMeanH:
    def test_vacuum_average_is_zero(self):
        source = SourceDistribution(np.zeros((2, 2, 2)), spacing=1.0)
        region = RegionSpec.ball(center=[5.0, 0.0, 0.0], radius=1.0, samples=100)
        assert mean_h(source, region, seed=3) == 0.0

    def test_constant_integrand_point_region(self):
        # zero-radius ball: every sample sits at distance 4 from unit mass
        source = point_mass_source(mass=1.0)
        center = source.cell_data()[0][0]
        region = RegionSpec.ball(center=center + np.array([4.0, 0.0, 0.0]), radius=0.0, samples=50)
        assert abs(mean_h(source, region, seed=0) - 1.0) <= 1e-12

    def test_deterministic_given_seed(self):
        source = point_mass_source()
        region = RegionSpec.ball(center=[3.0, 0.0, 0.0], radius=0.5, samples=9000)
        assert mean_h(source, region, seed=7) == mean_h(source, region, seed=7)
        assert mean_h(source, region, seed=7) != mean_h(source, region, seed=8)

    def test_strength_feeds_the_wick_factor(self):
        source = point_mass_source()
        region = RegionSpec.ball(center=[4.0, 0.0, 0.0], radius=0.5, samples=2000)
        strength = mean_h(source, region, seed=5)
        assert strength >= 0.0
        assert abs(weak_field_epsilon(strength) + math.pi * strength / 2.0) <= 1e-12

    def test_box_region(self):
        source = point_mass_source()
        region = RegionSpec.box(bounds=[[2.0, -0.5, -0.5], [3.0, 0.5, 0.5]], samples=4000)
        value = mean_h(source, region, seed=1)
        assert 4.0 / 3.5 <= value <= 4.0 / 1.5

    @pytest.mark.parametrize("shape", ["ball", "box"])
    def test_one_kernel_pass_per_sample_block(self, monkeypatch, shape):
        # the region is cleared once, geometrically; its samples go straight
        # to the sum, not through trace_potential's per-point check
        calls = {"blocks": 0, "support": 0}
        blocks = gravity._squared_distance_blocks
        support = SourceDistribution.support_distance

        def counted_blocks(*args):
            calls["blocks"] += 1
            return blocks(*args)

        def counted_support(*args):
            calls["support"] += 1
            return support(*args)

        monkeypatch.setattr(gravity, "_squared_distance_blocks", counted_blocks)
        monkeypatch.setattr(SourceDistribution, "support_distance", counted_support)
        samples = 3 * BLOCK_SAMPLES + 1
        if shape == "ball":
            region = RegionSpec.ball(center=[3.0, 0.0, 0.0], radius=0.5, samples=samples)
        else:
            region = RegionSpec.box(bounds=[[2.0, -0.5, -0.5], [3.0, 0.5, 0.5]], samples=samples)
        mean_h(point_mass_source(), region, seed=2)
        # a ball's clearance is one support_distance call, itself one pass
        checks = 1 if shape == "ball" else 0
        assert calls == {"blocks": 4 + checks, "support": checks}

    def test_region_touching_support_rejected(self):
        source = point_mass_source()
        center = source.cell_data()[0][0]
        overlapping = RegionSpec.ball(center=center, radius=1.0, samples=10)
        with pytest.raises(ValueError, match="separated"):
            mean_h(source, overlapping, seed=0)

    def test_region_validation(self):
        with pytest.raises(ValueError, match="shape"):
            RegionSpec(shape="cylinder", samples=10, center=[0, 0, 0], radius=1.0)
        with pytest.raises(ValueError, match="samples"):
            RegionSpec.ball(center=[0, 0, 0], radius=1.0, samples=0)
        with pytest.raises(ValueError, match="bounds"):
            RegionSpec.box(bounds=[[1, 0, 0], [0, 1, 1]], samples=10)


class TestBlockedKernel:
    """The blocked sum against a pairwise ``np.linalg.norm`` reference.

    The kernel forms ``|p'|^2 + |c'|^2 - 2 p'.c'`` for points and cells
    centred on the lattice centre.  Rounding the centring, the three norms,
    the dot product and the two additions puts each squared distance off by
    at most about 14 u = 7 eps of ``|p'|^2 + |c'|^2``.  Every cell centre lies
    within the half-diagonal R of the anchor and ``|p'| <= d + R``, so a
    pair at distance d has relative squared-distance error at most
    ``8 eps ((d + R)^2 + R^2) / d^2``.  The potential adds half of that, a
    rounding each for sqrt, reciprocal and mass product, and the error of
    summing n positive terms in any order, in the kernel and the reference
    alike.  The worst pair is a probe one spacing outside a face of a
    lattice far from the origin.
    """

    EPS = np.finfo(float).eps

    @staticmethod
    def far_lattice():
        # a fully occupied 32^3 lattice whose origin is far from the origin
        rng = np.random.default_rng(4)
        # a spacing of 0.03 makes coordinates with long binary expansions, so
        # that the cancellation is not exact by accident
        return SourceDistribution(rng.uniform(0.5, 1.5, (32, 32, 32)), 0.03, (1e3, 1e3, 1e3))

    @staticmethod
    def face_probes(source):
        # one spacing outside the x = origin face, beside the first layer of
        # cell centres: a corner, the middle of the face, an edge, and two
        # points between cells; then one probe well away from the lattice
        h = source.spacing
        x = source.origin[0] - 0.5 * h
        offsets = [(0.5, 0.5), (16.5, 16.5), (31.5, 8.5), (7.0, 20.0), (24.25, 3.75)]
        probes = [[x, source.origin[1] + a * h, source.origin[2] + b * h] for a, b in offsets]
        return np.array(probes + [(source.origin + 3.0).tolist()])

    def reference(self, source, points):
        positions, masses = source.cell_data()
        d = np.linalg.norm(points[:, None, :] - positions[None, :, :], axis=-1)
        return d, 4.0 * (masses[None, :] / d).sum(axis=1)

    def pair_bound(self, source, d):
        half_diagonal = 0.5 * source.spacing * np.linalg.norm(source.trace.shape)
        return 8.0 * self.EPS * ((d + half_diagonal) ** 2 + half_diagonal**2) / d**2

    def potential_bound(self, source, distances):
        cells = source.cell_data()[0].shape[0]
        pair = self.pair_bound(source, distances.min())
        return 0.5 * pair + 3.0 * self.EPS + 2.0 * cells * self.EPS

    @pytest.mark.parametrize("rows", [1, 5, None], ids=["one-row", "uneven", "default"])
    def test_matches_pairwise_reference(self, monkeypatch, rows):
        source = self.far_lattice()
        cells = source.cell_data()[0].shape[0]
        if rows is not None:
            monkeypatch.setattr(gravity, "_PAIR_BUDGET", rows * cells + cells // 2)
        probes = self.face_probes(source)
        distances, expected = self.reference(source, probes)
        assert distances.min() == pytest.approx(source.spacing, rel=1e-12)

        covered = []
        centred = gravity._centred(source)
        for block_rows, squared in gravity._squared_distance_blocks(centred, probes):
            covered.extend(range(*block_rows.indices(len(probes))))
            assert squared.size <= max(gravity._PAIR_BUDGET, cells)
            exact = distances[block_rows] ** 2
            bound = self.pair_bound(source, distances[block_rows]) * exact
            assert np.all(np.abs(squared - exact) <= bound)
        assert covered == list(range(len(probes)))

        pair = self.pair_bound(source, distances.min())
        relative = self.potential_bound(source, distances)
        assert relative < 1e-10  # the bound itself says something
        got = gravity._potential_at(source, probes)
        assert np.all(np.abs(got - expected) <= relative * expected)

        nearest = distances.min(axis=1)
        found = source.support_distance(probes)
        assert np.all(np.abs(found - nearest) <= (0.5 * pair + 2.0 * self.EPS) * nearest)

    def test_many_probes_in_one_checked_call(self, monkeypatch):
        # 40 probes, 1.5 to 4 spacings off a random face, in blocks of 7
        # rows and a remainder: one support pass and one sum for them all
        source = self.far_lattice()
        cells = source.cell_data()[0].shape[0]
        monkeypatch.setattr(gravity, "_PAIR_BUDGET", 7 * cells + cells // 2)
        passes = []
        blocks = gravity._squared_distance_blocks

        def counted_blocks(*args):
            passes.append(args)
            return blocks(*args)

        monkeypatch.setattr(gravity, "_squared_distance_blocks", counted_blocks)
        rng = np.random.default_rng(5)
        count = 40
        side = source.spacing * np.array(source.trace.shape)
        probes = source.origin + rng.random((count, 3)) * side
        axes = rng.integers(0, 3, count)
        gaps = rng.uniform(1.5, 4.0, count) * source.spacing
        beyond = np.where(rng.random(count) < 0.5, side[axes] + gaps, -gaps)
        probes[np.arange(count), axes] = source.origin[axes] + beyond
        distances, expected = self.reference(source, probes)

        got = trace_potential(source, probes)
        assert got.shape == (count,)
        assert len(passes) == 2
        relative = self.potential_bound(source, distances)
        assert np.all(np.abs(got - expected) <= relative * expected)

    def test_support_distance_on_the_support(self):
        # a cell centre is at distance zero, whatever the cancellation does
        source = self.far_lattice()
        positions = source.cell_data()[0]
        assert np.array_equal(source.support_distance(positions[[0, 1000, -1]]), np.zeros(3))

    def test_mean_h_memory_is_bounded(self):
        # a fully occupied 64^3 lattice, where a (256 x cells x 3) difference
        # tensor would take about 1.6 GB
        script = (
            "import resource\n"
            "import numpy as np\n"
            "from entropiclab import RegionSpec, SourceDistribution, mean_h\n"
            "source = SourceDistribution(np.ones((64, 64, 64)), 1.0 / 64)\n"
            "region = RegionSpec.ball(center=[2.5, 0.5, 0.5], radius=0.4, samples=256)\n"
            "assert mean_h(source, region, seed=3) > 0.0\n"
            "with open('/proc/self/status') as status:\n"
            "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, env=cli_env(), check=True)
        # the script's own peak is VmHWM: RUSAGE_SELF's ru_maxrss keeps the
        # peak that the process had before exec, here that of pytest.  2^26
        # pairs: on two CPUs or more the sum runs in forked workers, whose
        # peak the script's own figure does not include.  Both are in kB.
        own, workers = (int(line) / 1024.0 for line in result.stdout.split())
        assert own < 200.0 and workers < 200.0


class TestRowSplit:
    """The direct sum split by rows across forked workers keeps every bit.

    The fork threshold is patched down and each task made one kernel block,
    so that small sums split.  The lattice's 328 cells make blocks of 399
    rows, which divide neither a sample block nor the 1,001 probes, so the
    last range of each run is ragged.
    """

    @staticmethod
    def source():
        rng = np.random.default_rng(6)
        trace = rng.uniform(0.5, 1.5, (8, 8, 8)) * (rng.random((8, 8, 8)) < 0.6)
        return SourceDistribution(trace, 0.125, (0.1, -0.2, 0.3))

    @staticmethod
    def results(source):
        rng = np.random.default_rng(7)
        directions = rng.standard_normal((1001, 3))
        probes = 0.6 + 4.0 * directions / np.linalg.norm(directions, axis=1)[:, None]
        samples = 3 * BLOCK_SAMPLES + 1
        ball = RegionSpec.ball([3.0, 0.5, 0.5], 0.4, samples)
        box = RegionSpec.box([[2.5, 0.0, 0.0], [3.5, 1.0, 1.0]], samples)
        return {
            "trace_potential": trace_potential(source, probes),
            "support_distance": source.support_distance(probes),
            "mean_h ball": np.array([mean_h(source, ball, seed=4)]),
            "mean_h box": np.array([mean_h(source, box, seed=4)]),
            "no probes": trace_potential(source, np.empty((0, 3))),
        }

    def assert_same_bits(self, got, expected):
        assert got.keys() == expected.keys()
        for name, value in expected.items():
            assert np.array_equal(got[name], value), name
            assert [x.hex() for x in got[name].tolist()] == [x.hex() for x in value.tolist()], name

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_split_keeps_every_bit(self, monkeypatch, cpus):
        source = self.source()
        cells = source.cell_data()[0].shape[0]
        assert cells == 328 and gravity._row_step(cells) == 399
        expected = self.results(source)
        pools, whats = [], []
        fork, ordered = _fanout._fork, _fanout.ordered

        def counted_pool(function, count):
            pools.append(count)
            return fork(function, count)

        def counted_ordered(function, tasks, what):
            whats.append(what)
            return ordered(function, tasks, what)

        monkeypatch.setattr(_fanout, "_fork", counted_pool)
        monkeypatch.setattr(_fanout, "ordered", counted_ordered)
        monkeypatch.setattr(gravity, "_FORK_PAIRS", 1)
        monkeypatch.setattr(gravity, "_TASK_PAIRS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        self.assert_same_bits(self.results(source), expected)
        # one pool of two workers per pass: trace_potential's support pass
        # and sum, the support pass, one for each mean_h; a one-row pass has
        # one task and runs in process, no probes need no fan-out, and one
        # CPU needs no pool at all
        assert whats == ["gravity"] * 6
        assert pools == ([] if cpus == 1 else [2] * 5)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_cells_are_centred_once_per_pass_before_the_fork(self, monkeypatch, cpus):
        # every task of a pass reads the centred cells the parent made for it
        source = self.source()
        parent = os.getpid()
        passes, centrings, tasks = [], [], []
        split_rows, centred = gravity._split_rows, gravity._centred

        def counted_split(kernel, *args):
            passes.append(len(args[1]))
            if cpus == 1:  # tasks run in process, where they can be counted
                return split_rows(counted_task(kernel), *args)
            return split_rows(kernel, *args)

        def counted_centred(*args):
            centrings.append(os.getpid())
            return centred(*args)

        def counted_task(kernel):
            def task(*args):
                tasks.append(args[1].shape[0])
                return kernel(*args)
            return task

        monkeypatch.setattr(gravity, "_split_rows", counted_split)
        monkeypatch.setattr(gravity, "_centred", counted_centred)
        monkeypatch.setattr(gravity, "_FORK_PAIRS", 1)
        monkeypatch.setattr(gravity, "_TASK_PAIRS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        self.results(source)
        assert len(passes) == 8 and centrings == [parent] * len(passes)
        assert cpus == 2 or len(tasks) > 3 * len(passes)

    @pytest.mark.parametrize("wave", [1, 3, 64])
    @pytest.mark.parametrize("shape", ["ball", "box"])
    def test_each_sample_block_is_summed_on_its_own(self, monkeypatch, shape, wave):
        # mean_h draws a wave of sample blocks at a time and sums it in one
        # pass, with the bits of one kernel pass and one sum per block
        source = self.source()
        samples = 3 * BLOCK_SAMPLES + 1
        if shape == "ball":
            region = RegionSpec.ball([3.0, 0.5, 0.5], 0.4, samples)
        else:
            region = RegionSpec.box([[2.5, 0.0, 0.0], [3.5, 1.0, 1.0]], samples)
        total = 0.0
        for block, start, stop in block_ranges(samples):
            points = gravity._sample_region(region, block_generator(9, block), stop - start)
            total += float(gravity._potential_rows(gravity._centred(source), points).sum())
        monkeypatch.setattr(gravity, "_WAVE_BLOCKS", wave)
        assert mean_h(source, region, seed=9).hex() == (total / samples).hex()


class TestLaplacianSpotCheck:
    def test_empty_source_is_exactly_flat(self):
        source = SourceDistribution(np.zeros((2, 2, 2)), spacing=1.0)
        assert laplacian_spot_check(source, [5.0, 5.0, 5.0], step=0.25) == 0.0

    def test_truncation_error_shrinks_quadratically(self):
        source = point_mass_source(mass=1.0)
        probe = np.array([6.0, 0.3, -0.2])
        residuals = [abs(laplacian_spot_check(source, probe, step)) for step in (0.4, 0.2, 0.1)]
        orders = [math.log2(residuals[k] / residuals[k + 1]) for k in range(2)]
        assert min(orders) >= 1.9

    def test_stencil_near_support_rejected(self):
        source = point_mass_source()
        center = source.cell_data()[0][0]
        with pytest.raises(ValueError, match="vacuum"):
            laplacian_spot_check(source, center + np.array([0.15, 0.0, 0.0]), step=0.1)

    def test_bad_step(self):
        source = point_mass_source()
        with pytest.raises(ValueError, match="step"):
            laplacian_spot_check(source, [5.0, 0.0, 0.0], step=0.0)


class TestSourceIO:
    def test_primitives_descriptor_roundtrip(self, tmp_path):
        descriptor = {
            "spacing": 0.25,
            "origin": [-1.0, -1.0, -1.0],
            "shape": [8, 8, 8],
            "primitives": [
                {"kind": "ball", "center": [0.0, 0.0, 0.0], "radius": 0.4, "trace": 2.0},
                {"kind": "point", "position": [0.6, 0.6, 0.6], "mass": 0.5},
            ],
        }
        path = tmp_path / "source.json"
        path.write_text(json.dumps(descriptor))
        source = source_from(path.name, tmp_path)
        direct = rasterize(
            descriptor["primitives"], descriptor["shape"],
            descriptor["spacing"], descriptor["origin"],
        )
        assert np.array_equal(source.trace, direct.trace)

    def test_binary_lattice_roundtrip(self, tmp_path):
        # the documented format, written here without the package: a JSON
        # header naming a raw little-endian float64 lattice in C order
        source = ball_source(8)
        source.trace.astype("<f8").tofile(tmp_path / "lattice.bin")
        header = tmp_path / "lattice.json"
        header.write_text(json.dumps({
            "spacing": source.spacing,
            "origin": source.origin.tolist(),
            "shape": list(source.trace.shape),
            "data": "lattice.bin",
        }))
        loaded = source_from(header.name, tmp_path)
        assert np.array_equal(loaded.trace, source.trace)
        assert loaded.spacing == source.spacing
        assert np.array_equal(loaded.origin, source.origin)

    def test_box_primitive(self):
        source = rasterize(
            [{"kind": "box", "bounds": [[0.0, 0.0, 0.0], [0.5, 0.5, 0.5]], "trace": 3.0}],
            shape=(4, 4, 4),
            spacing=0.25,
        )
        assert source.trace[0, 0, 0] == 3.0
        assert source.trace[3, 3, 3] == 0.0

    def test_bad_descriptors(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"spacing": 0.1, "origin": [0, 0, 0], "shape": [2, 2, 2]}))
        with pytest.raises(ValueError, match="primitives"):
            source_from(path.name, tmp_path)
        path.write_text(json.dumps({"spacing": 0.1}))
        with pytest.raises(ValueError, match="is a required property"):
            source_from(path.name, tmp_path)

    def test_wrong_size_binary_rejected(self, tmp_path):
        (tmp_path / "lattice.bin").write_bytes(np.zeros(5).astype("<f8").tobytes())
        header = tmp_path / "lattice.json"
        header.write_text(json.dumps({
            "spacing": 0.1, "origin": [0, 0, 0], "shape": [2, 2, 2], "data": "lattice.bin",
        }))
        with pytest.raises(ValueError, match="expected 8"):
            source_from(header.name, tmp_path)

    def test_point_outside_lattice_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            rasterize(
                [{"kind": "point", "position": [9.0, 0.0, 0.0], "mass": 1.0}],
                shape=(2, 2, 2), spacing=0.5,
            )
