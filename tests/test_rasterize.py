import datetime as dt
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.interpolate import LinearNDInterpolator
from scipy.spatial import Delaunay, cKDTree

from mmstt import rasterize as rz
from mmstt.ingest import AcquisitionCalendar, PointTable
from mmstt.rasterize import DataCube, GridSpec, RasterizeError


def weekly_calendar(n, start=dt.date(2018, 1, 5)):
    return AcquisitionCalendar(tuple(start + dt.timedelta(weeks=i) for i in range(n)))


def unit_grid(native=32, working=8):
    return GridSpec(bbox=(0.0, 0.0, 1.0, 1.0), native_size=native, working_size=working)


# ---------------------------------------------------------------------------
# interpolate_grid
# ---------------------------------------------------------------------------


def interpolate_grid(xy, values, grid):
    """Piecewise-linear interpolation of scattered values onto the native grid,
    nearest-neighbor outside the convex hull."""
    return rz.GridInterpolator(xy, replace(grid, working_size=grid.native_size))(values)


class TestInterpolateGrid:
    def test_constant_field(self):
        xy = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        out = interpolate_grid(xy, np.full(4, 2.5), unit_grid())
        assert out.shape == (32, 32)
        assert np.allclose(out, 2.5, atol=1e-12)

    def test_reproduces_plane_inside_hull(self):
        rng = np.random.default_rng(0)
        xy = rng.uniform(0, 1, size=(10, 2))
        # corners included so the hull covers the whole grid
        xy[:4] = [[0, 0], [0, 1], [1, 0], [1, 1]]
        a, b, c = 2.0, -3.0, 0.5
        values = a * xy[:, 0] + b * xy[:, 1] + c
        grid = unit_grid()
        out = interpolate_grid(xy, values, grid)
        gx, gy = grid.cell_centers()
        assert np.allclose(out, a * gx + b * gy + c, atol=1e-5)

    def test_matches_barycentric_oracle(self):
        rng = np.random.default_rng(42)
        xy = rng.uniform(0, 1, size=(50, 2))
        values = rng.normal(size=50)
        grid = unit_grid(native=24, working=8)
        out = interpolate_grid(xy, values, grid)

        tri = Delaunay(xy)
        gx, gy = grid.cell_centers()
        checked = 0
        for i in range(24):
            for j in range(24):
                p = np.array([gx[i, j], gy[i, j]])
                got = None
                for simplex in tri.simplices:
                    v = xy[simplex]
                    mat = np.array([[v[0, 0] - v[2, 0], v[1, 0] - v[2, 0]],
                                    [v[0, 1] - v[2, 1], v[1, 1] - v[2, 1]]])
                    try:
                        l1, l2 = np.linalg.solve(mat, p - v[2])
                    except np.linalg.LinAlgError:
                        continue
                    l3 = 1.0 - l1 - l2
                    if min(l1, l2, l3) >= -1e-12:
                        got = l1 * values[simplex[0]] + l2 * values[simplex[1]] + l3 * values[simplex[2]]
                        break
                if got is not None:
                    checked += 1
                    assert abs(out[i, j] - got) < 1e-6
        assert checked > 100  # most of the grid lies inside the hull

    def test_hull_fill_uses_nearest_point(self):
        # three sites in the lower-left corner; far cells take the closest value
        xy = np.array([[0.1, 0.1], [0.2, 0.1], [0.1, 0.2]])
        values = np.array([1.0, 2.0, 3.0])
        out = interpolate_grid(xy, values, unit_grid())
        assert out[0, -1] == 2.0  # top-right cell is nearest to (0.2, 0.1)

    def test_too_few_or_collinear_points(self):
        with pytest.raises(RasterizeError, match=">=3"):
            interpolate_grid(np.array([[0, 0], [1, 1]]), np.array([1.0, 2.0]), unit_grid())
        xy = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        with pytest.raises(RasterizeError, match="collinear"):
            interpolate_grid(xy, np.ones(3), unit_grid())

    def test_bbox_must_hold_a_point(self):
        # sites wholly outside the bbox would fill every pixel from a nearest site
        xy = np.array([[0.1, 0.1], [0.9, 0.6], [0.4, 0.8]])
        far = GridSpec(bbox=(10.0, 10.0, 11.0, 11.0), native_size=8, working_size=8)
        with pytest.raises(RasterizeError, match="no point lies inside bbox"):
            rz.GridInterpolator(xy, far)
        # a partial overlap is legal
        half = GridSpec(bbox=(0.5, 0.5, 1.5, 1.5), native_size=8, working_size=8)
        assert rz.GridInterpolator(xy, half)(np.ones(3)).shape == (8, 8)


def downsample(x, factor=4):
    """Non-overlapping `factor` x `factor` block mean of a square raster. Each
    block is reduced as one contiguous row-major vector, so the result is
    bit-identical to block.mean() of the same cells."""
    m = x.shape[0] // factor
    return x.reshape(m, factor, m, factor).swapaxes(1, 2).reshape(m, m, factor * factor).mean(axis=-1)


def per_date_reference(xy, values, grid):
    """Rasterization as it was done per date before the precomputed operator:
    scipy's linear interpolator on the native grid, NaN and outside-hull
    cells filled from the nearest site, then the block mean."""
    tri = Delaunay(xy)
    gx, gy = grid.cell_centers()
    targets = np.column_stack([gx.ravel(), gy.ravel()])
    out = LinearNDInterpolator(tri, values)(targets)
    fill = (tri.find_simplex(targets) < 0) | np.isnan(out)
    out[fill] = values[cKDTree(xy).query(targets[fill])[1]]
    n = grid.native_size
    return downsample(out.reshape(n, n), grid.block)


class TestGridInterpolator:
    @staticmethod
    def corner_scatter(n_points=40, seed=17):
        # the hull covers only the lower-left part of the unit square
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, 0.6, size=(n_points, 2)), rng.normal(size=(n_points, 5))

    @pytest.mark.parametrize("working", [32, 8])  # block 1 and block 4
    def test_matches_per_date_reference(self, working):
        xy, values = self.corner_scatter()
        grid = unit_grid(native=32, working=working)
        gx, gy = grid.cell_centers()
        outside = Delaunay(xy).find_simplex(np.column_stack([gx.ravel(), gy.ravel()])) < 0
        assert 0.3 < outside.mean() < 0.9
        interp = rz.GridInterpolator(xy, grid)
        for k in range(values.shape[1]):
            got = interp(values[:, k])
            assert got.shape == (working, working)
            assert np.allclose(got, per_date_reference(xy, values[:, k], grid), rtol=0, atol=1e-12)

    def test_batched_call_equals_single_columns(self):
        xy, values = self.corner_scatter()
        interp = rz.GridInterpolator(xy, unit_grid())
        batched = interp(values)
        assert batched.shape == (8, 8, values.shape[1])
        for k in range(values.shape[1]):
            assert np.array_equal(batched[..., k], interp(values[:, k]))

    def test_rejects_wrong_value_count(self):
        xy, values = self.corner_scatter()
        with pytest.raises(RasterizeError, match="expected 40"):
            rz.GridInterpolator(xy, unit_grid())(values[:-1])

    def test_indivisible_block(self):
        with pytest.raises(RasterizeError, match="divisible"):
            unit_grid(native=30, working=8)


# ---------------------------------------------------------------------------
# reference block mean / smooth / encode / zscore
# ---------------------------------------------------------------------------


class TestDownsample:
    def test_constant(self):
        assert np.allclose(downsample(np.full((8, 8), 3.0)), 3.0)

    def test_single_block_mean(self):
        x = np.zeros((8, 8))
        x[4:8, 0:4] = np.arange(1, 17).reshape(4, 4)
        out = downsample(x)
        assert out[1, 0] == 8.5
        assert out[0, 0] == 0.0

    def test_matches_loop_oracle_exactly(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(16, 16))
        out = downsample(x)
        for i in range(4):
            for j in range(4):
                assert out[i, j] == x[4 * i:4 * i + 4, 4 * j:4 * j + 4].mean()


class TestSmoothSeries:
    def test_window_oracle(self):
        out = rz.smooth_series(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        assert np.allclose(out, [1.5, 2.0, 3.0, 4.0, 4.5])

    def test_constant_unchanged(self):
        x = np.full(7, 2.25)
        assert np.array_equal(rz.smooth_series(x), x)

    def test_length_one_unchanged(self):
        assert np.array_equal(rz.smooth_series(np.array([4.0])), [4.0])

    def test_applies_along_time_axis_of_stack(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 3, 3))
        out = rz.smooth_series(x)
        for i in range(3):
            for j in range(3):
                assert np.allclose(out[:, i, j], rz.smooth_series(x[:, i, j]))


class TestEncodeDay:
    def test_zero(self):
        assert rz.encode_day(0.0) == (0.0, 1.0)

    def test_quarter_period(self):
        s, c = rz.encode_day(365.25 / 4)
        assert abs(s - 1.0) < 1e-12
        assert abs(c) < 1e-12

    def test_full_period(self):
        s, c = rz.encode_day(365.25)
        assert abs(s) < 1e-12
        assert abs(c - 1.0) < 1e-12


class TestZScore:
    def test_already_standardized(self):
        rng = np.random.default_rng(1)
        cube = rng.normal(size=(20, 6, 4, 4))
        z = (cube[:, 0] - cube[:, 0].mean()) / cube[:, 0].std()
        cube[:, 0] = z
        stats = rz.zscore_in_place(cube, 20)
        assert abs(stats.mean[0]) < 1e-12
        assert abs(stats.std[0] - 1.0) < 1e-12
        assert np.allclose(cube[:, 0], z)

    def test_constant_channel_flagged(self):
        cube = np.zeros((5, 6, 2, 2))
        cube[:, 1] = 7.0
        stats = rz.zscore_in_place(cube, 5)
        assert stats.constant[1]
        assert stats.std[1] == 1.0
        assert np.allclose(cube[:, 1], 0.0)

    def test_round_trip(self):
        rng = np.random.default_rng(2)
        cube = rng.normal(loc=5.0, scale=3.0, size=(10, 6, 3, 3))
        raw = cube.copy()  # the cube is normalized in place
        stats = rz.zscore_in_place(cube, 10)
        back = stats.denormalize(cube[:, 0], 0)
        assert np.allclose(back, raw[:, 0], atol=1e-6)

    def test_fit_range_only(self):
        cube = np.zeros((10, 6, 1, 1))
        cube[:, 0, 0, 0] = np.arange(10.0)
        stats = rz.zscore_in_place(cube, 5)
        region = np.arange(5.0)
        assert stats.mean[0] == region.mean()
        assert stats.std[0] == region.std()

    def test_empty_fit_range(self):
        with pytest.raises(RasterizeError, match="empty"):
            rz.zscore_in_place(np.zeros((5, 6, 2, 2)), 0)

    def test_bitwise_equal_to_normalizing_a_copy(self):
        rng = np.random.default_rng(3)
        cube = rng.normal(loc=-4.0, scale=7.0, size=(12, 6, 5, 5))
        raw = cube.copy()
        stats = rz.zscore_in_place(cube, 8)
        for c in range(4):
            assert np.array_equal(cube[:, c], (raw[:, c] - stats.mean[c]) / stats.std[c])
        assert np.array_equal(cube[:, 4:], raw[:, 4:])


# ---------------------------------------------------------------------------
# build_cube
# ---------------------------------------------------------------------------


def scatter_points(rng, n_points, calendar, field_fn):
    """Points with series[t] = field_fn(x, y, t)."""
    xy, priors, series = [], [], []
    for _ in range(n_points):
        x, y = rng.uniform(0, 1, size=2)
        xy.append((x, y))
        series.append([field_fn(x, y, t) for t in range(len(calendar))])
        priors.append((rng.normal(), rng.normal(), abs(rng.normal())))
    return PointTable([f"p{k}" for k in range(n_points)], *map(np.array, (xy, priors, series)))


class TestBuildCube:
    def test_peak_memory_stays_below_two_cubes(self):
        cal = weekly_calendar(120)
        rng = np.random.default_rng(4)
        pts = scatter_points(rng, 200, cal, lambda x, y, t: np.sin(0.2 * t + 3.0 * x) * y)
        grid = unit_grid(native=128, working=32)
        split = rz.plan_split(120, 10, 10, 0.2)
        # a first small build does the lazy scipy imports, which are not the cube's
        head = PointTable(pts.ids[:20], pts.xy[:20], pts.priors[:20], pts.series[:20])
        rz.build_cube(head, cal, unit_grid(), split=split)
        tracemalloc.start()
        try:
            cube = rz.build_cube(pts, cal, grid, split=split)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the cube is filled and normalized in its one buffer; a normalized
        # copy alone would put the peak above two cubes
        assert peak < 2 * cube.values.nbytes, peak / cube.values.nbytes

    def test_uniform_points_constant_series(self):
        cal = weekly_calendar(6)
        rng = np.random.default_rng(0)
        pts = scatter_points(rng, 12, cal, lambda x, y, t: 4.2)
        cube = rz.build_cube(pts, cal, unit_grid(), split=rz.plan_split(6, 1, 1, 0.2))
        assert cube.values.shape == (6, 6, 8, 8)
        # constant displacement -> flagged constant, centered to zeros
        assert cube.norm_stats.constant[0]
        assert np.allclose(cube.values[:, 0], 0.0)
        ring = cube.values[:, 4] ** 2 + cube.values[:, 5] ** 2
        assert np.all(np.abs(ring - 1.0) < 1e-6)

    def test_matches_composed_suboperation_oracle(self):
        cal = weekly_calendar(8)
        rng = np.random.default_rng(5)
        pts = scatter_points(rng, 30, cal, lambda x, y, t: (t + 1) * x - 2.0 * y * t)
        grid = unit_grid(native=16, working=4)
        cube = rz.build_cube(pts, cal, grid, split=rz.plan_split(8, 2, 2, 0.2))
        fit = cube.split.fit_stop

        rasters = np.stack([
            downsample(interpolate_grid(pts.xy, pts.series[:, t], grid), 4)
            for t in range(8)
        ])
        want = rz.smooth_series(rasters)
        want = (want - want[:fit].mean()) / want[:fit].std()
        assert np.allclose(cube.values[:, 0], want, atol=1e-9)

    def test_time_count_and_static_channels(self):
        cal = weekly_calendar(30)
        rng = np.random.default_rng(7)
        pts = scatter_points(rng, 20, cal, lambda x, y, t: np.sin(t) * x)
        cube = rz.build_cube(pts, cal, unit_grid(), split=rz.plan_split(30, 3, 3, 0.2))
        assert cube.n_times == 30
        for c in (1, 2, 3):
            assert np.allclose(cube.values[:, c], cube.values[0:1, c])

    def test_normalization_invariants_on_fit_range(self):
        cal = weekly_calendar(24)
        rng = np.random.default_rng(11)
        pts = scatter_points(rng, 25, cal, lambda x, y, t: np.sin(0.3 * t + x) + y)
        cube = rz.build_cube(pts, cal, unit_grid(), split=rz.plan_split(24, 3, 3, 0.2))
        assert cube.split.fit_stop == 15
        for c in range(4):
            if cube.norm_stats.constant[c]:
                continue
            region = cube.values[:15, c]
            assert abs(region.mean()) < 1e-5
            assert abs(region.std() - 1.0) < 1e-4


# ---------------------------------------------------------------------------
# windows and splits
# ---------------------------------------------------------------------------


def tiny_cube(n_times, h=4):
    rng = np.random.default_rng(n_times)
    values = rng.normal(size=(n_times, 6, h, h))
    stats = rz.NormStats(mean=[0.0] * 4, std=[1.0] * 4, constant=[False] * 4)
    split = rz.plan_split(n_times, 1, 1, 0.2)
    return DataCube(values, stats, weekly_calendar(n_times), unit_grid(16, h), split)


class TestWindows:
    def test_exact_count_t20(self):
        assert len(rz.make_windows(tiny_cube(20))) == 1

    def test_count_and_starts_t25(self):
        ws = rz.make_windows(tiny_cube(25))
        assert len(ws) == 6
        assert [w.start_index for w in ws] == [0, 1, 2, 3, 4, 5]

    def test_alignment_bit_exact(self):
        cube = tiny_cube(23)
        for w in rz.make_windows(cube):
            s = w.start_index
            assert np.array_equal(w.input, cube.values[s:s + 10])
            assert np.array_equal(w.target, cube.values[s + 10:s + 20, 0:1])
            assert w.input.shape == (10, 6, 4, 4)
            assert w.target.shape == (10, 1, 4, 4)

    def test_too_short(self):
        with pytest.raises(RasterizeError, match="time steps"):
            rz.make_windows(tiny_cube(19))


class TestSplitPlan:
    def test_no_leakage_gap(self):
        plan = rz.plan_split(n_times=60, t_in=10, t_out=10, val_fraction=0.25)
        span = 20
        assert max(plan.train_starts) + span - 1 < min(plan.val_starts)
        assert plan.fit_stop == max(plan.train_starts) + span
        assert len(plan.val_starts) == round(0.25 * 41)

    @pytest.mark.parametrize("n_times,t_in,t_out,vf", [(50, 10, 10, 0.1), (60, 5, 5, 0.3), (120, 10, 10, 0.2)])
    def test_property_random_shapes(self, n_times, t_in, t_out, vf):
        plan = rz.plan_split(n_times, t_in, t_out, vf)
        span = t_in + t_out
        assert plan.train_starts and plan.val_starts
        assert max(plan.train_starts) + span - 1 < min(plan.val_starts)
        cube = tiny_cube(n_times)
        train, val = rz.split_windows(rz.make_windows(cube, t_in, t_out), plan)
        assert len(train) == len(plan.train_starts)
        assert len(val) == len(plan.val_starts)

    def test_impossible_split(self):
        with pytest.raises(RasterizeError):
            rz.plan_split(21, 10, 10, 0.5)
        with pytest.raises(RasterizeError, match="t_in and t_out"):
            rz.plan_split(30, 0, 10, 0.2)


def test_cube_save_load_round_trip(tmp_path):
    cal = weekly_calendar(12)
    rng = np.random.default_rng(21)
    pts = scatter_points(rng, 10, cal, lambda x, y, t: x + 0.1 * t)
    cube = rz.build_cube(pts, cal, unit_grid(), split=rz.plan_split(12, 2, 2, 0.25))
    path = tmp_path / "cube.mmst"
    rz.save_cube(path, cube)
    back = rz.load_cube(path)
    assert np.array_equal(back.values, cube.values)
    assert not back.values.flags.writeable
    with pytest.raises(ValueError):
        back.values.setflags(write=True)
    assert back.norm_stats.mean == cube.norm_stats.mean
    assert back.norm_stats.std == cube.norm_stats.std
    assert back.norm_stats.constant == cube.norm_stats.constant
    assert back.calendar.dates == cal.dates
    assert back.grid == cube.grid
    assert back.split == cube.split
    assert back.split.fit_stop == 7


def test_a_save_whose_sidecar_fails_leaves_a_cube_load_refuses(tmp_path, monkeypatch):
    # cube B must not load with cube A's statistics, which are ~4x off here
    cal = weekly_calendar(12)
    pts = scatter_points(np.random.default_rng(21), 10, cal, lambda x, y, t: x + 0.1 * t)
    split = rz.plan_split(12, 2, 2, 0.25)
    path = tmp_path / "cube.mmst"
    rz.save_cube(path, rz.build_cube(pts, cal, unit_grid(), split=split))
    pts_b = replace(pts, series=4.0 * pts.series)
    cube_b = rz.build_cube(pts_b, cal, unit_grid(), split=split)

    def full_disk(target, obj):
        raise OSError(28, "No space left on device", str(target))

    monkeypatch.setattr("mmstt.numerics.tensorfile.save_json", full_disk)
    with pytest.raises(OSError):
        rz.save_cube(path, cube_b)
    with pytest.raises(FileNotFoundError, match="cube sidecar not found"):
        rz.load_cube(path)


def test_a_save_whose_tensor_write_fails_leaves_a_cube_load_refuses(tmp_path, monkeypatch):
    # the old tensor stays, but no sidecar is left to describe it
    cal = weekly_calendar(12)
    pts = scatter_points(np.random.default_rng(21), 10, cal, lambda x, y, t: x + 0.1 * t)
    split = rz.plan_split(12, 2, 2, 0.25)
    path = tmp_path / "cube.mmst"
    cube = rz.build_cube(pts, cal, unit_grid(), split=split)
    rz.save_cube(path, cube)
    old = path.read_bytes()

    def full_disk(target, t):
        raise OSError(28, "No space left on device", str(target))

    monkeypatch.setattr("mmstt.numerics.tensorfile.save_tensor", full_disk)
    with pytest.raises(OSError):
        rz.save_cube(path, cube)
    assert path.read_bytes() == old
    with pytest.raises(FileNotFoundError, match="cube sidecar not found"):
        rz.load_cube(path)
