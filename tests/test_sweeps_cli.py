"""Grid sweeps, CSV serialization, figure presets, SVG rendering, and CLI."""

from __future__ import annotations

import base64
import dataclasses
import hashlib
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from conftest import CHILD_WARNINGS

from cavityblockade import cli, figures, optimizer, steady_state, svgplot, sweeps
from cavityblockade.params import (
    OVERRIDE_NAMES,
    ConfigError,
    Direction,
    NumericalFailure,
    RegimeWarning,
    SystemParams,
    derive_effective,
    effective_arrays,
    params_from_mapping,
    reference_params,
)

pytestmark = pytest.mark.filterwarnings(
    "ignore::cavityblockade.params.RegimeWarning"
)


def kv_lines(text: str) -> dict[str, str]:
    out = {}
    for line in text.strip().splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


class TestEffectiveArrays:
    def test_kappa1_axis_slides_kappa2(self):
        base = reference_params()
        k1 = np.array([0.2, 1.0, 1.8])
        consts = effective_arrays(base, {"kappa1": k1})
        assert np.array_equal(consts["omega"], np.sqrt(k1) * base.b_in)

        backward = dataclasses.replace(base, direction=Direction.BACKWARD)
        consts_b = effective_arrays(backward, {"kappa1": k1})
        assert np.array_equal(
            consts_b["omega"], np.sqrt(2.0 * base.kappa - k1) * base.b_in
        )

    def test_kappa2_axis_slides_kappa1(self):
        base = reference_params()
        consts = effective_arrays(base, {"kappa2": np.array([0.4])})
        assert consts["omega"][0] == pytest.approx(
            math.sqrt(1.6) * base.b_in, rel=1e-15
        )

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="unknown override"):
            effective_arrays(reference_params(), {"gain": 2.0})

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_override_rejected(self, bad):
        # As derive_effective rejects a non-finite j at one point.
        with pytest.raises(ConfigError, match="^J must be finite"):
            effective_arrays(reference_params(), {"J": np.array([bad, 0.3])})
        with pytest.raises(ConfigError, match="^theta must be finite"):
            effective_arrays(reference_params(), {"theta": bad})

    def test_rates_must_stay_positive(self):
        # kappa1 = 2.5 slides kappa2 to -0.5.
        with pytest.raises(ConfigError, match="positive"):
            effective_arrays(reference_params(), {"kappa1": 2.5})

    @pytest.mark.parametrize(
        "name, values",
        [
            ("b_in", [0.02, -0.02]),
            ("g", [10.0, -10.0]),
            ("e_eg", [-0.02, 0.0]),
            ("e_he", [-5.0, 5.0]),
            ("kappa", [1.0, 0.5]),
            ("kappa", [1.0, -1.0]),
            ("kappa1", [0.2, 2.5]),
            ("kappa2", [0.0, 1.8]),
        ],
    )
    def test_grid_keeps_the_rules_of_a_point(self, name, values):
        # The grid refuses a value that SystemParams refuses, with its words.
        base = reference_params()
        with pytest.raises(ConfigError) as point:
            for value in values:
                params_from_mapping({name: value}, base=base)
        with pytest.raises(ConfigError) as grid:
            effective_arrays(base, {name: np.array(values)})
        assert str(grid.value) == str(point.value)

    def test_delta_p_zero_rejected(self):
        with pytest.raises(ZeroDivisionError):
            effective_arrays(
                reference_params(), {"delta_p": np.array([100.0, 0.0])}
            )

    def test_default_j_and_theta_from_params(self):
        base = dataclasses.replace(reference_params(), e_he=5.0, phi_p=0.4)
        consts = effective_arrays(base, {})
        assert float(consts["j"]) == base.g * 5.0 / base.delta_p
        assert float(consts["theta"]) == 0.4

        phased = effective_arrays(base, {"phi_p": np.array([0.3, 7.0])})
        # Array-path theta is left unwrapped; statistics are periodic in it.
        assert np.array_equal(phased["theta"], np.array([0.3, 7.0]))

    def test_one_warning_per_violated_condition(self):
        base = reference_params()
        with pytest.warns(RegimeWarning) as record:
            effective_arrays(base, {"b_in": np.array([0.02, 0.5, 0.9])})
        hits = [r for r in record if "weak cavity drive" in str(r.message)]
        assert len(hits) == 1


class TestSweepAxis:
    def test_values_are_linspace(self):
        axis = sweeps.SweepAxis("delta_c", -1.0, 1.0, 5)
        assert np.array_equal(axis.values(), np.linspace(-1.0, 1.0, 5))

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError, match="not a system parameter"):
            sweeps.SweepAxis("gain", 0.0, 1.0, 5)

    def test_reversed_bounds(self):
        with pytest.raises(ConfigError, match="minimum < maximum"):
            sweeps.SweepAxis("delta_c", 1.0, 1.0, 5)

    def test_too_few_points(self):
        with pytest.raises(ConfigError, match="at least 2"):
            sweeps.SweepAxis("delta_c", 0.0, 1.0, 1)

    @pytest.mark.parametrize("count", [2.5, 3.0, "5"])
    def test_count_that_is_not_an_integer(self, count):
        # linspace would raise TypeError from run_sweep, not a ValueError.
        with pytest.raises(ConfigError, match="axis J: count must be an integer"):
            sweeps.SweepAxis("J", 0.0, 1.0, count)

    @pytest.mark.parametrize("bounds", [(0.0, math.inf), (-math.inf, 0.0)])
    def test_infinite_bounds(self, bounds):
        with pytest.raises(ConfigError, match="bounds must be finite"):
            sweeps.SweepAxis("delta_c", *bounds, 5)

    @pytest.mark.parametrize("bounds", [(-1e308, 1e308), (np.float64(-1e308), 1e308)])
    def test_overflowing_span(self, bounds):
        # linspace would warn and fill the axis with NaN.
        with pytest.raises(ConfigError, match="span maximum - minimum must be finite"):
            sweeps.SweepAxis("delta_c", *bounds, 3)


class TestSweepSpec:
    def axis(self, name="delta_c"):
        return sweeps.SweepAxis(name, -1.0, 1.0, 5)

    def test_shape(self):
        assert sweeps.SweepSpec(axis1=self.axis()).shape == (5,)
        spec = sweeps.SweepSpec(axis1=self.axis("J"), axis2=self.axis("theta"))
        assert spec.shape == (5, 5)

    def test_bad_observable(self):
        with pytest.raises(ConfigError, match="observable"):
            sweeps.SweepSpec(axis1=self.axis(), observable="entropy")

    def test_duplicate_axes(self):
        with pytest.raises(ConfigError, match="must differ"):
            sweeps.SweepSpec(axis1=self.axis(), axis2=self.axis())

    def test_override_colliding_with_axis(self):
        with pytest.raises(ConfigError, match="collide"):
            sweeps.SweepSpec(axis1=self.axis(), overrides={"delta_c": 0.0})

    def test_unknown_override(self):
        with pytest.raises(ConfigError, match="unknown override"):
            sweeps.SweepSpec(axis1=self.axis(), overrides={"gain": 0.0})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_override(self, value):
        with pytest.raises(ConfigError, match="J must be finite"):
            sweeps.SweepSpec(axis1=self.axis(), overrides={"J": value})

    def test_optimal_excludes_direct_couplings(self):
        with pytest.raises(ConfigError, match="cannot also be set"):
            sweeps.SweepSpec(
                axis1=self.axis(), overrides={"J": 0.5}, optimal_j_theta=True
            )
        with pytest.raises(ConfigError, match="cannot also be set"):
            sweeps.SweepSpec(axis1=self.axis("J"), optimal_j_theta=True)

    def test_needs_a_direction(self):
        with pytest.raises(ConfigError, match="at least one direction"):
            sweeps.SweepSpec(axis1=self.axis(), directions=())


class TestParseDirections:
    def test_both(self):
        assert sweeps.parse_directions("both") == (
            Direction.FORWARD,
            Direction.BACKWARD,
        )

    def test_single(self):
        assert sweeps.parse_directions("forward") == (Direction.FORWARD,)
        assert sweeps.parse_directions(" Backward ") == (Direction.BACKWARD,)

    def test_junk(self):
        with pytest.raises(ConfigError, match="forward, backward, or both"):
            sweeps.parse_directions("sideways")


class TestRunSweep:
    def test_stats_are_the_csv_columns(self):
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("delta_c", -1.0, 1.0, 5), overrides={"J": 0.5}
        )
        result = sweeps.run_sweep(spec, reference_params())
        for direction in spec.directions:
            assert tuple(result.stats[direction]) == sweeps.STAT_COLUMNS

    @pytest.mark.parametrize(
        "axis1, axis2, overrides, optimal",
        [
            (("delta_e", -1.0, 1.0, 5), None, {}, True),
            (("delta_e", -1.0, 1.0, 5), ("delta_c", -2.0, 2.0, 4), {}, True),
            (("b_in", 0.01, 1e150, 4), None, {}, False),
            (("e_eg", 0.0, 1e200, 3), ("J", -1.0, 1.0, 3), {}, False),
            (("delta_e", -1.0, 1.0, 3), ("J", -1.0, 1.0, 3), {"theta": 0.2}, False),
        ],
        ids=["joint", "joint-2d", "overflowing-drive", "overflowing-microwave", "singular"],
    )
    def test_every_statistic_is_nan_where_invalid(self, axis1, axis2, overrides, optimal):
        # The evaluator's NaN is the only mask: a joint solve without a root
        # at delta_e = 0, occupations that overflow, and J = 0 = delta_e.
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis(*axis1),
            axis2=None if axis2 is None else sweeps.SweepAxis(*axis2),
            overrides=overrides,
            optimal_j_theta=optimal,
        )
        result = sweeps.run_sweep(spec, reference_params())
        for direction in spec.directions:
            valid = result.valid[direction]
            assert valid.shape == spec.shape
            assert valid.any() and not valid.all()
            for name in sweeps.STAT_COLUMNS:
                assert np.isnan(result.stats[direction][name][~valid]).all(), name
            if optimal:
                # Exactly the delta_e = 0 row has no root.
                no_root = np.isnan(result.j_used[direction])
                rows = no_root.reshape(len(result.values1), -1).any(axis=1)
                assert rows.tolist() == (result.values1 == 0.0).tolist()
                assert (~valid)[no_root].all()

    def test_overflowing_coupling_marks_points_invalid(self):
        # J**2 overflows: every point is singular, as the scalar path says.
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("delta_c", -1.0, 1.0, 3), overrides={"J": 1e200}
        )
        result = sweeps.run_sweep(spec, reference_params())
        for direction in spec.directions:
            assert not result.valid[direction].any()
            for name in sweeps.STAT_COLUMNS:
                assert np.isnan(result.stats[direction][name]).all(), name

    def test_matches_pointwise_statistics(self):
        base = reference_params()
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("delta_c", -1.0, 1.0, 9),
            overrides={"J": 0.5, "theta": 0.3},
        )
        result = sweeps.run_sweep(spec, base)
        for direction in spec.directions:
            p = dataclasses.replace(base, direction=direction)
            for i, dc in enumerate(result.values1):
                stats = steady_state.steady_stats(
                    dataclasses.replace(p, delta_c=float(dc)), j=0.5, theta=0.3
                )
                grid = result.stats[direction]
                assert grid["g2"][i] == pytest.approx(stats.g2, rel=1e-12)
                assert grid["p1"][i] == pytest.approx(stats.p1, rel=1e-12)
                assert grid["p2"][i] == pytest.approx(stats.p2, rel=1e-12)
                assert grid["n_paper"][i] == pytest.approx(
                    stats.n_cavity_paper, rel=1e-12
                )
                assert grid["n_full"][i] == pytest.approx(
                    stats.n_cavity_full, rel=1e-12
                )

    def test_optimal_grid_matches_scalar_solver(self):
        base = reference_params()
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("delta_e", -1.5, 1.0, 5),
            directions=(Direction.FORWARD,),
            optimal_j_theta=True,
        )
        result = sweeps.run_sweep(spec, base)
        d = Direction.FORWARD
        assert result.valid[d].all()
        for i, de in enumerate(result.values1):
            point = optimizer.solve_optimal(
                dataclasses.replace(base, delta_e=float(de), direction=d)
            )
            assert result.j_used[d][i] == pytest.approx(point.J, abs=1e-9)
            assert result.theta_used[d][i] == pytest.approx(point.theta, abs=1e-9)
            assert result.delta_c_opt[d][i] == pytest.approx(
                point.delta_c_opt, abs=1e-9
            )
        # Without a delta_c axis the sweep evaluates at the per-point optimal
        # detuning, so the blockade must be essentially exact everywhere.
        assert result.stats[d]["g2"].max() < 1e-20

    def test_unsolvable_points_masked(self):
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("delta_e", -1.0, 1.0, 5),
            optimal_j_theta=True,
        )
        result = sweeps.run_sweep(spec, reference_params())
        for direction in spec.directions:
            assert list(result.valid[direction]) == [True, True, False, True, True]
            assert math.isnan(result.stats[direction]["g2"][2])

    def test_jobs_accepted_results_identical(self):
        """``jobs=`` is accepted, and the results with three jobs are those
        with one."""
        base = reference_params()
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("J", -2.0, 2.0, 9),
            axis2=sweeps.SweepAxis("theta", -3.0, 3.0, 7),
            overrides={"delta_c": 0.0},
        )
        one = sweeps.run_sweep(spec, base, jobs=1)
        three = sweeps.run_sweep(spec, base, jobs=3)
        for direction in spec.directions:
            assert np.array_equal(one.valid[direction], three.valid[direction])
            for name in sweeps.STAT_COLUMNS:
                assert np.array_equal(
                    one.stats[direction][name],
                    three.stats[direction][name],
                    equal_nan=True,
                )

    def test_chunked_grid_matches_one_evaluation(self, monkeypatch):
        base = reference_params()
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("J", -3.0, 3.0, 301),
            axis2=sweeps.SweepAxis("theta", -3.2, 3.2, 301),
            overrides={"delta_c": 0.0},
        )
        # 301 x 301 points span many blocks, the last a partial one.
        assert 301 * 301 > sweeps._CHUNK_POINTS > 301
        blocks = sweeps.run_sweep(spec, base)
        monkeypatch.setattr(sweeps, "_CHUNK_POINTS", 301 * 301)
        one_block = sweeps.run_sweep(spec, base)
        for direction in spec.directions:
            grid = {
                "J": blocks.values1[:, None],
                "theta": blocks.values2[None, :],
                "delta_c": np.asarray(0.0),
            }
            consts = effective_arrays(
                dataclasses.replace(base, direction=direction), grid
            )
            whole, ok = steady_state._stats_from_parameters(
                *(
                    np.broadcast_to(consts[key], spec.shape)
                    for key in ("omega", "m", "n", "delta_e", "j", "theta", "e_eg")
                )
            )
            for result in (blocks, one_block):
                assert result.valid[direction].tolist() == ok.tolist()
                for name, values in result.stats[direction].items():
                    assert values.tobytes() == whole[name].tobytes()

    def test_block_boundaries_identical_across_jobs(self, monkeypatch):
        # An optimal-(J, theta) grid whose row count is not a multiple of
        # the block, with inputs of shape (rows, 1), (1, columns), the full
        # grid and scalars: its blocks, with jobs=2, against one block.
        spec = sweeps.SweepSpec(
            # delta_e = 0 on row 131 has no root: a masked row.
            axis1=sweeps.SweepAxis("delta_e", -1.0, 1.0, 263),
            axis2=sweeps.SweepAxis("delta_c", -4.0, 4.0, 521),
            optimal_j_theta=True,
        )
        rows_per_block = max(1, sweeps._CHUNK_POINTS // 521)
        assert 263 % rows_per_block != 0
        blocks = sweeps.run_sweep(spec, reference_params(), jobs=2)
        monkeypatch.setattr(sweeps, "_CHUNK_POINTS", 263 * 521)
        one_block = sweeps.run_sweep(spec, reference_params(), jobs=1)
        for d in spec.directions:
            assert blocks.valid[d].tobytes() == one_block.valid[d].tobytes()
            assert not one_block.valid[d].all() and one_block.valid[d].any()
            for name, values in one_block.stats[d].items():
                assert blocks.stats[d][name].tobytes() == values.tobytes(), name
            for field in ("j_used", "theta_used", "delta_c_opt"):
                got = getattr(blocks, field)[d]
                assert got.shape == spec.shape
                assert got.tobytes() == getattr(one_block, field)[d].tobytes(), field

    def test_axis_entering_no_term_fills_every_cell(self):
        # With J fixed, e_he enters no statistic: every input varies along
        # the rows or not at all, and each block's (rows, 1) statistics
        # must fill every column.
        base = reference_params()
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("delta_c", -4.0, 4.0, 303),
            axis2=sweeps.SweepAxis("e_he", 1.0, 60.0, 441),
            overrides={"J": 0.5, "theta": 0.3},
        )
        assert 303 * 441 > sweeps._CHUNK_POINTS
        line = sweeps.SweepSpec(
            axis1=spec.axis1, overrides={"J": 0.5, "theta": 0.3}
        )
        grid = sweeps.run_sweep(spec, base)
        column = sweeps.run_sweep(line, base)
        for d in spec.directions:
            assert grid.valid[d].all()
            for name, values in column.stats[d].items():
                want = np.repeat(values[:, None], 441, axis=1)
                assert grid.stats[d][name].tobytes() == want.tobytes(), name

    def test_observable_grid_accessor(self):
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("delta_c", -1.0, 1.0, 3),
            overrides={"J": 0.5, "theta": 0.3},
            observable="n_paper",
        )
        result = sweeps.run_sweep(spec, reference_params())
        d = Direction.FORWARD
        assert np.array_equal(
            result.observable_grid(d), result.stats[d]["n_paper"]
        )


def traced(fn):
    """(result, bytes held on return, peak bytes above that) of one call.

    A first untraced call warms every import and cache.
    """
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, current - before, peak - current


MB = 1 << 20


MEMORY_SPECS = {
    "J-theta": sweeps.SweepSpec(
        axis1=sweeps.SweepAxis("J", -3.0, 3.0, 201),
        axis2=sweeps.SweepAxis("theta", -math.pi, math.pi, 201),
        overrides={"delta_c": 0.0},
        directions=(Direction.FORWARD,),
    ),
    "optimal": sweeps.SweepSpec(
        axis1=sweeps.SweepAxis("delta_e", -3.0, 3.0, 201),
        axis2=sweeps.SweepAxis("delta_c", -4.0, 4.0, 201),
        directions=(Direction.FORWARD,),
        optimal_j_theta=True,
    ),
}


class TestBoundedMemory:
    """201 x 201 grids, the size of every 2-D figure preset, and a long 1-D
    CSV write."""

    @pytest.mark.parametrize("spec", MEMORY_SPECS.values(), ids=MEMORY_SPECS.keys())
    def test_sweep_peak_is_its_result_plus_a_block(self, spec):
        result, held, above = traced(
            lambda: sweeps.run_sweep(spec, reference_params(), jobs=1)
        )
        # The result: five statistics and valid at full size; J, theta and
        # delta_c_opt are views of arrays no larger than their axes (about
        # 15 kB in all, with the axis values).
        points = 201 * 201
        assert held > 5 * 8 * points
        assert held <= 5 * 8 * points + points + 24 * 1024, held
        assert above <= 1 * MB, (held, above)

    def test_one_dimensional_csv_write_peak(self, tmp_path):
        # Two directions of 100 001 points, a 27.5 MB file: joined whole
        # before its write, it peaks 101.8 MB above the result.
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("delta_c", -4.0, 4.0, 100_001),
            overrides={"J": 0.3, "theta": 0.2},
        )
        result = sweeps.run_sweep(spec, reference_params(), jobs=1)
        path = tmp_path / "scan.csv"
        names, held, above = traced(lambda: sweeps.write_sweep_csv(result, path))
        assert names == ["scan.csv"]
        assert held + above <= 1 * MB, (held, above)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "cb042fa26c3d4ad5a423164205a6773b67f0ce0ce4d0e647f93180999b0e9453"
        )

    @pytest.mark.parametrize(
        "name, digests",
        [
            ("J-theta", ["e3993574d5537bcd", "7d0dd157138982eb", None]),
            ("optimal", ["2d88de5203bcf01c", "066c420150886b21", "4c03402553c112a6"]),
        ],
        ids=["J-theta", "optimal"],
    )
    def test_j_theta_and_delta_c_opt_are_read_only_views(self, name, digests):
        # The digests are those of the full-grid copies these views replaced.
        spec = MEMORY_SPECS[name]
        result = sweeps.run_sweep(spec, reference_params(), jobs=1)
        d = Direction.FORWARD
        fields = (result.j_used[d], result.theta_used[d], result.delta_c_opt[d])
        for grid, digest in zip(fields, digests):
            if digest is None:
                assert grid is None
                continue
            assert grid.shape == spec.shape
            assert grid.dtype == np.float64
            assert not grid.flags.writeable
            assert hashlib.sha256(grid.tobytes()).hexdigest()[:16] == digest

    def test_heatmap_render_peak(self):
        rng = np.random.default_rng(3)
        z = 10.0 ** rng.uniform(-6.0, 2.0, (201, 201))
        z[rng.random(z.shape) < 0.05] = math.nan
        heat = svgplot.Heatmap(
            x=np.linspace(-3.0, 3.0, 201),
            y=np.linspace(-4.0, 4.0, 201),
            z=z,
            xlabel="x",
            ylabel="y",
        )
        svg, held, above = traced(heat.render)
        assert "<image" in svg
        assert held + above <= 1.5 * MB, (held, above)


class TestConfigHash:
    def test_is_sha256_of_the_canonical_text(self):
        spec = sweeps.SweepSpec(axis1=sweeps.SweepAxis("delta_c", -1.0, 2.0, 5))
        base = reference_params()
        canonical = sweeps._config_text(spec, base)
        # With every number a float already, as in every preset and CLI
        # input, the canonical text is the plain repr: no hash moves.
        assert canonical == repr((spec, base)).encode()
        config_hash = sweeps.run_sweep(spec, base).provenance["config_hash"]
        assert config_hash == hashlib.sha256(canonical).hexdigest()[:16]
        assert config_hash == "d59280699656be9b"

    @pytest.mark.parametrize(
        "number", [int, float, np.float64, np.int64], ids=lambda t: t.__name__
    )
    def test_same_values_same_hash(self, number):
        def config(num):
            spec = sweeps.SweepSpec(
                axis1=sweeps.SweepAxis("delta_c", num(-1), num(2), 5),
                axis2=sweeps.SweepAxis("e_eg", num(0), num(1), np.int64(3)),
                overrides={"g": num(6)},
            )
            base = dataclasses.replace(reference_params(), delta_p=num(100))
            return sweeps._provenance(spec, base)["config_hash"]

        assert config(number) == config(float)

    def test_base_direction_does_not_enter(self, tmp_path):
        # spec.directions names the directions a sweep runs; a base that a
        # config file sets to backward hashes and writes as a forward one.
        spec = sweeps.SweepSpec(axis1=sweeps.SweepAxis("delta_c", -1.0, 2.0, 5))
        forward = reference_params()
        backward = dataclasses.replace(forward, direction=Direction.BACKWARD)
        written = []
        for base in (forward, backward):
            path = tmp_path / base.direction.value / "sweep.csv"
            path.parent.mkdir()
            sweeps.write_sweep_csv(sweeps.run_sweep(spec, base), path)
            written.append(path.read_bytes())
        assert written[0] == written[1]
        assert b"# config_hash = d59280699656be9b\n" in written[0]


class TestSweepCsv:
    def cross_zero_result(self):
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("delta_e", -1.0, 1.0, 5),
            optimal_j_theta=True,
        )
        return sweeps.run_sweep(spec, reference_params())

    def test_one_dimensional_layout(self, tmp_path):
        result = self.cross_zero_result()
        names = sweeps.write_sweep_csv(result, tmp_path / "scan.csv")
        assert names == ["scan.csv"]
        lines = (tmp_path / "scan.csv").read_text().splitlines()

        assert lines[0] == f"# version = {result.provenance['version']}"
        assert lines[1] == f"# config_hash = {result.provenance['config_hash']}"
        assert lines[2] == "# axis1 = delta_e, -1.0, 1.0, 5"
        assert lines[3] == "delta_e,direction,p1,p2,g2,n_paper,n_full,valid"

        body = [line.split(",") for line in lines[4:]]
        assert len(body) == 10
        assert [row[1] for row in body[:5]] == ["forward"] * 5
        assert [row[1] for row in body[5:]] == ["backward"] * 5
        for offset, direction in ((0, Direction.FORWARD), (5, Direction.BACKWARD)):
            for i in range(5):
                row = body[offset + i]
                assert float(row[0]) == result.values1[i]
                if result.valid[direction][i]:
                    assert row[-1] == "true"
                    assert float(row[4]) == result.stats[direction]["g2"][i]
                else:
                    assert row[-1] == "false"
                    assert row[2:7] == [""] * 5

    def test_two_dimensional_per_direction_files(self, tmp_path):
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("J", -2.0, 2.0, 3),
            axis2=sweeps.SweepAxis("theta", -3.0, 3.0, 4),
            overrides={"delta_c": 0.0},
            observable="n_paper",
        )
        result = sweeps.run_sweep(spec, reference_params())
        names = sweeps.write_sweep_csv(result, tmp_path / "grid.csv")
        assert names == ["grid_forward.csv", "grid_backward.csv"]

        for name, direction in zip(names, spec.directions):
            lines = (tmp_path / name).read_text().splitlines()
            assert lines[2] == "# axis1 = J, -2.0, 2.0, 3"
            assert lines[3] == "# axis2 = theta, -3.0, 3.0, 4"
            assert lines[4] == "# observable = n_paper"
            body = lines[5:]
            assert len(body) == 3
            parsed = np.array(
                [
                    [float(cell) if cell else math.nan for cell in row.split(",")]
                    for row in body
                ]
            )
            assert parsed.shape == (3, 4)
            expected = np.where(
                result.valid[direction],
                result.observable_grid(direction),
                math.nan,
            )
            assert np.array_equal(parsed, expected, equal_nan=True)

    @staticmethod
    def old_cell(x, good) -> str:
        # The per-cell rule the writer has always followed.
        return repr(float(x)) if good and math.isfinite(x) else ""

    SPECIAL = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0])

    def test_one_dimensional_cells_match_the_per_cell_rule(self, tmp_path):
        spec = sweeps.SweepSpec(axis1=sweeps.SweepAxis("delta_c", -1.0, 1.0, 8))
        result = sweeps.run_sweep(spec, reference_params())
        ok = np.array([True, True, True, True, True, True, False, True])
        stats = {
            d: {name: np.roll(self.SPECIAL, k) for k, name in enumerate(sweeps.STAT_COLUMNS)}
            for d in spec.directions
        }
        special = dataclasses.replace(
            result,
            values1=self.SPECIAL[::-1].copy(),
            stats=stats,
            valid={d: np.roll(ok, i) for i, d in enumerate(spec.directions)},
        )
        sweeps.write_sweep_csv(special, tmp_path / "special.csv")
        expected = []
        for d in spec.directions:
            ok_d = special.valid[d]
            for i, x in enumerate(special.values1):
                cells = [self.old_cell(x, True), d.value]
                cells += [self.old_cell(stats[d][n][i], ok_d[i]) for n in sweeps.STAT_COLUMNS]
                cells.append("true" if ok_d[i] else "false")
                expected.append(",".join(cells))
        assert (tmp_path / "special.csv").read_text().splitlines()[4:] == expected

    def test_two_dimensional_cells_match_the_per_cell_rule(self, tmp_path):
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("J", -2.0, 2.0, 3),
            axis2=sweeps.SweepAxis("theta", -3.0, 3.0, 8),
            overrides={"delta_c": 0.0},
        )
        result = sweeps.run_sweep(spec, reference_params())
        grid = np.stack([np.roll(self.SPECIAL, k) for k in range(3)])
        ok = np.ones(grid.shape, dtype=bool)
        ok[1, 6] = ok[2, 0] = False
        special = dataclasses.replace(
            result,
            stats={d: {**result.stats[d], "g2": grid} for d in spec.directions},
            valid={d: ok for d in spec.directions},
        )
        names = sweeps.write_sweep_csv(special, tmp_path / "special.csv")
        expected = [
            ",".join(self.old_cell(grid[i, k], ok[i, k]) for k in range(8)) for i in range(3)
        ]
        for name in names:
            assert (tmp_path / name).read_text().splitlines()[5:] == expected

    CLEAN = np.array([-0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0, -2.5e-17, 7.0, -1e-300])

    def test_clean_rows_match_the_per_cell_rule(self, tmp_path):
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("J", -2.0, 2.0, 4),
            axis2=sweeps.SweepAxis("theta", -3.0, 3.0, 8),
            overrides={"delta_c": 0.0},
        )
        result = sweeps.run_sweep(spec, reference_params())
        # Rows 0 and 2 are valid and finite throughout; row 1 has one invalid
        # cell and row 3 one NaN.
        grid = np.stack([np.roll(self.CLEAN, k) for k in range(4)])
        grid[3, 5] = math.nan
        ok = np.ones(grid.shape, dtype=bool)
        ok[1, 2] = False
        special = dataclasses.replace(
            result,
            stats={d: {**result.stats[d], "g2": grid} for d in spec.directions},
            valid={d: ok for d in spec.directions},
        )
        names = sweeps.write_sweep_csv(special, tmp_path / "clean.csv")
        expected = [
            ",".join(self.old_cell(grid[i, k], ok[i, k]) for k in range(8)) for i in range(4)
        ]
        for name in names:
            assert (tmp_path / name).read_text().splitlines()[5:] == expected

    def test_no_repr_of_a_finite_float_holds_an_n(self):
        # The premise of the cell rule: a row with an empty cell drops the
        # text "nan", which must leave every finite cell's text whole.
        rng = np.random.default_rng(7)
        drawn = np.frombuffer(rng.bytes(8 * 100_100), dtype=np.float64)
        edges = [0.0, -0.0, 5e-324, sys.float_info.max, 1e16, 1e-5]
        values = drawn[np.isfinite(drawn)][: 100_000 - len(edges)].tolist() + edges
        assert len(values) == 100_000
        assert not [text for text in map(repr, values) if "n" in text]
        assert all("n" in repr(x) for x in (math.nan, math.inf, -math.inf))

    def test_table_cells_match_the_per_cell_rule(self, tmp_path):
        columns = [np.roll(self.SPECIAL, k) for k in range(3)]
        columns += [np.roll(self.CLEAN, k) for k in range(2)]
        figures._table_csv(tmp_path / "table.csv", list("abcde"), columns)
        expected = ["a,b,c,d,e"] + [
            ",".join(self.old_cell(column[i], True) for column in columns)
            for i in range(len(self.SPECIAL))
        ]
        assert (tmp_path / "table.csv").read_text().splitlines() == expected

    def test_jobs_accepted_csv_bytes_identical(self, tmp_path):
        """``jobs=`` is accepted, and the CSV files written with three jobs
        are byte for byte those written with one."""
        base = reference_params()
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("J", -2.0, 2.0, 9),
            axis2=sweeps.SweepAxis("theta", -3.0, 3.0, 7),
            overrides={"delta_c": 0.0},
        )
        sweeps.write_sweep_csv(
            sweeps.run_sweep(spec, base, jobs=1), tmp_path / "one.csv"
        )
        sweeps.write_sweep_csv(
            sweeps.run_sweep(spec, base, jobs=3), tmp_path / "three.csv"
        )
        for direction in ("forward", "backward"):
            assert (tmp_path / f"one_{direction}.csv").read_bytes() == (
                tmp_path / f"three_{direction}.csv"
            ).read_bytes()


class TestFigures:
    def test_unknown_name(self, tmp_path):
        with pytest.raises(figures.UnknownFigure, match="fig2a"):
            figures.figure("fig9z", tmp_path)

    def test_preset_names(self):
        assert figures.FIGURE_NAMES == (
            "fig2a", "fig2b", "fig3a", "fig3b", "fig3c", "fig3d",
            "fig5a", "fig5b", "fig5c", "fig6a", "fig6b", "fig6c", "fig6d",
        )

    def test_rerun_is_bit_identical(self, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        for name in ("fig2a", "fig6a"):
            files = figures.figure(name, first)
            assert figures.figure(name, second) == files
            for fname in files:
                assert (first / fname).read_bytes() == (second / fname).read_bytes()

    def test_detuning_sweep_figure_files(self, tmp_path):
        files = figures.figure("fig2a", tmp_path)
        assert files == ["fig2a.csv", "fig2a.svg"]
        header = (tmp_path / "fig2a.csv").read_text().splitlines()[3]
        assert header == "delta_c,direction,p1,p2,g2,n_paper,n_full,valid"
        assert (tmp_path / "fig2a.svg").read_text().startswith("<svg")

    def test_microwave_comparison_content(self, tmp_path):
        figures.figure("fig3c", tmp_path)
        lines = (tmp_path / "fig3c.csv").read_text().splitlines()
        assert lines[0] == "delta_c,g2_microwave_on,g2_microwave_off"
        data = np.array(
            [
                [float(cell) if cell else math.nan for cell in line.split(",")]
                for line in lines[1:]
            ]
        )
        dc, on, off = data[:, 0], data[:, 1], data[:, 2]
        point = optimizer.solve_optimal(reference_params())

        # Microwave on: essentially exact antibunching at the optimal detuning.
        i_on = np.nanargmin(on)
        assert on[i_on] < 1e-2
        assert abs(dc[i_on] - point.delta_c_opt) <= (dc[1] - dc[0]) + 1e-12
        # Microwave off: the dip survives but cannot reach the same depth.
        off_min = np.nanmin(off)
        assert 1e-2 < off_min < 1.0

    @pytest.mark.parametrize("name", ["fig3c", "fig3d"])
    def test_microwave_pair_is_one_sweep(self, name, tmp_path, monkeypatch):
        # The off and on curves are the two e_eg columns of one sweep.
        specs = []
        run_sweep = sweeps.run_sweep
        monkeypatch.setattr(
            sweeps, "run_sweep", lambda spec, base: specs.append(spec) or run_sweep(spec, base)
        )
        figures.figure(name, tmp_path)
        assert len(specs) == 1
        assert specs[0].axis2 == sweeps.SweepAxis("e_eg", 0.0, reference_params().e_eg, 2)
        assert specs[0].axis2.values().tolist() == [0.0, 0.01]


def decode_embedded_png(svg_text: str) -> np.ndarray:
    marker = "base64,"
    start = svg_text.index(marker) + len(marker)
    end = svg_text.index('"', start)
    data = base64.b64decode(svg_text[start:end])
    assert data[:8] == b"\x89PNG\r\n\x1a\n"
    pos = 8
    width = height = 0
    compressed = b""
    while pos < len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        if tag == b"IHDR":
            width, height = struct.unpack(">II", body[:8])
        elif tag == b"IDAT":
            compressed += body
        pos += 12 + length
    raw = zlib.decompress(compressed)
    stride = 1 + 3 * width
    rows = []
    for r in range(height):
        assert raw[r * stride] == 0  # filter byte per scanline
        rows.append(raw[r * stride + 1 : (r + 1) * stride])
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(height, width, 3)


def assert_drawable(svg: str) -> None:
    """Every number of ``svg`` outside its embedded raster is finite."""
    text = re.sub(r"base64,[A-Za-z0-9+/=]*", "base64,", svg)
    assert "nan" not in text and "inf" not in text


class TestSvgPlot:
    def test_linear_ticks(self):
        assert svgplot.linear_ticks(0.0, 10.0) == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]
        ticks = svgplot.linear_ticks(-1.0, 1.0)
        assert ticks == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])
        assert ticks[2] == 0.0

    def test_log_ticks(self):
        assert svgplot.log_ticks(1e-4, 5e-2) == [1e-4, 1e-3, 1e-2, 1e-1]
        # Huge ranges thin to at most ~10 decade labels.
        assert len(svgplot.log_ticks(1e-30, 1.0)) <= 12

    def test_nan_breaks_line_into_runs(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([1.0, math.nan, 2.0, 3.0])
        svg = svgplot.LinePlot("x", "y", [(x, y, "", False)]).render()
        # Isolated first point becomes a marker; the trailing run is one line.
        assert svg.count("<circle") == 1
        assert svg.count("<polyline") == 1

    def test_log_scale_drops_nonpositive(self):
        x = y = np.array([0.0, 1.0, 2.0])
        svg = svgplot.LinePlot("x", "y", [(x, y, "", False)], log_y=True).render()
        assert svg.count("<polyline") == 1
        assert svg.count("<circle") == 0

    def test_heatmap_colors_and_missing_cells(self):
        z = 10.0 ** np.array([[math.nan, 1.0], [2.0, 3.0]])
        heat = svgplot.Heatmap(
            x=np.array([0.0, 1.0]),
            y=np.array([0.0, 1.0]),
            z=z,
            xlabel="x",
            ylabel="y",
        )
        rgb = decode_embedded_png(heat.render())
        assert rgb.shape == (2, 2, 3)
        # Top row is max y: log10 z[:, 1] = (1, 3) spans the color ramp ends.
        assert tuple(rgb[0, 0]) == (68, 1, 84)
        assert tuple(rgb[0, 1]) == (253, 231, 37)
        # Bottom row is min y: the NaN cell renders in the missing-data gray.
        assert tuple(rgb[1, 0]) == (224, 224, 224)
        assert tuple(rgb[1, 1]) == (33, 145, 140)

    def test_heatmap_reports_color_range(self):
        z = np.array([[1.0, 10.0], [100.0, 1000.0]])
        heat = svgplot.Heatmap(
            x=np.array([0.0, 1.0]),
            y=np.array([0.0, 1.0]),
            z=z,
            xlabel="x",
            ylabel="y",
            color_label="log10 g2",
        )
        svg = heat.render()
        assert "log10 g2: 0 to 3" in svg
        assert "<image" in svg

    def test_curves_are_colored_and_labeled_in_order(self):
        x = np.array([0.0, 1.0])
        curves = [(x, x + k, f"c{k}", k == 1) for k in range(6)]
        svg = svgplot.LinePlot("x", "y", curves).render()
        strokes = re.findall(r'<polyline [^>]*stroke="(#[0-9a-f]{6})"', svg)
        colors = list(svgplot.LINE_COLORS)
        assert strokes == colors + colors[:1]
        assert svg.count('stroke-dasharray="6 4"') == 2  # curve c1 and its legend key
        assert re.findall(r">(c\d)</text>", svg) == [f"c{k}" for k in range(6)]

    def test_heatmap_overlays_are_white_dashed_lines(self):
        x = np.array([0.0, 1.0, 2.0])
        heat = svgplot.Heatmap(
            x, x, np.ones((3, 3)), "x", "y", overlays=[(x, x), (x, 2.0 - x)]
        )
        lines = re.findall(r"<polyline [^>]*/>", heat.render())
        assert len(lines) == 2
        assert all('stroke="#ffffff"' in ln and "stroke-dasharray" in ln for ln in lines)

    @pytest.mark.parametrize("x", [[2.0], [2.0, 2.0, 2.0], [0.0]])
    def test_line_plot_x_without_span(self, x):
        x = np.array(x)
        svg = svgplot.LinePlot("x", "y", [(x, x + 1.0, "", False)]).render()
        assert_drawable(svg)
        # Padded on both sides alike, the x range centres the point(s) in the frame.
        centre = (svgplot.MARGIN_LEFT + svgplot.WIDTH - svgplot.MARGIN_RIGHT) / 2
        points = " ".join(re.findall(r'points="([^"]+)"', svg)).split()
        xs = re.findall(r'cx="([^"]+)"', svg) + [pt.split(",")[0] for pt in points]
        assert xs and all(float(v) == centre for v in xs)

    def test_line_plot_without_finite_y(self):
        x = np.array([0.0, 1.0, 2.0])
        y = np.array([math.nan, math.inf, -math.inf])
        svg = svgplot.LinePlot("x", "y", [(x, y, "y", False)], log_y=True).render()
        assert_drawable(svg)
        assert "<polyline" not in svg and "<circle" not in svg

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1), (1, 1)])
    def test_heatmap_axis_with_one_value(self, shape):
        z = np.arange(1.0, 1.0 + shape[0] * shape[1]).reshape(shape)
        x = np.linspace(0.0, 1.0, shape[0])
        y = np.linspace(-1.0, 1.0, shape[1])
        svg = svgplot.Heatmap(x, y, z, "x", "y").render()
        assert_drawable(svg)
        assert decode_embedded_png(svg).shape == (shape[1], shape[0], 3)

    @pytest.mark.parametrize(
        "z, colors",
        [
            (np.array([[math.nan, -1.0], [math.inf, 0.0]]), "log10 value: 0 to 1"),
            (np.full((2, 2), 100.0), "log10 value: 2 to 3"),
        ],
    )
    def test_heatmap_without_a_color_range(self, z, colors):
        x = np.array([0.0, 1.0])
        svg = svgplot.Heatmap(x, x, z, "x", "y").render()
        assert_drawable(svg)
        assert colors in svg


def regime_conditions(messages) -> set[str]:
    """The regime conditions a list of RegimeWarning messages names.

    ``derive_effective`` and the sweep word them differently; both name
    the ratio or drive they test.
    """
    keys = {
        "delta_p/g": "adiabatic elimination",
        "delta_he/e_he": "upper-leg detuning",
        "mega/kappa": "weak cavity drive",
        "_eg/kappa": "weak microwave drive",
    }
    found = set()
    for message in messages:
        hits = [name for text, name in keys.items() if text in message]
        assert len(hits) == 1, message
        found |= set(hits)
    return found


def recording(fn):
    """``fn()`` and the RegimeWarning messages it emits, in order."""
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        result = fn()
    return result, [str(w.message) for w in record if issubclass(w.category, RegimeWarning)]


def regime_messages(fn) -> list[str]:
    return recording(fn)[1]


def warned(fn) -> set[str]:
    return regime_conditions(regime_messages(fn))


class TestRegimePolicy:
    """The scalar and array paths warn on the same conditions."""

    CASES = [
        (reference_params(), None),
        (reference_params(), 0.5),
        (reference_params(), 2.0),
        (dataclasses.replace(reference_params(), direction=Direction.BACKWARD), 4.7),
        (SystemParams(g=10.0, delta_p=101.0, e_he=30.0), None),
        (SystemParams(g=10.0, delta_p=101.0, e_he=5.0), None),
        (SystemParams(g=5.0, delta_p=100.0, delta_he=15.0, b_in=0.2, e_eg=0.2), 1.0),
        (SystemParams(g=5.0, delta_p=100.0, delta_he=500.0, e_he=80.0), 1.0),
        (SystemParams(g=0.0, e_he=5.0), 1.0),
        (SystemParams(g=0.0, e_he=5.0), None),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_one_point_sweep_warns_like_derive_effective(self, case):
        params, j = self.CASES[case]
        # phi_eg enters no regime condition, so both grid points share the
        # one point's conditions.
        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("phi_eg", 0.0, 1e-3, 2),
            overrides={} if j is None else {"J": j},
            directions=(params.direction,),
        )
        scalar = warned(lambda: derive_effective(params, j=j))
        array = warned(lambda: sweeps.run_sweep(spec, params))
        assert array == scalar

    def test_cases_reach_every_condition_both_ways(self):
        seen = [warned(lambda: derive_effective(p, j=j)) for p, j in self.CASES]
        for name in (
            "adiabatic elimination",
            "upper-leg detuning",
            "weak cavity drive",
            "weak microwave drive",
        ):
            assert any(name in s for s in seen), name
            assert any(name not in s for s in seen), name

    NONRECIPROCAL_CASES = [
        (reference_params(), 0.0),
        (reference_params(), 2.5),
        # |delta_p/g| = 5, and the backward direction is not bunched.
        (dataclasses.replace(reference_params(), g=20.0), 0.0),
        # Only the backward drive, through kappa2 = 1.8, breaks Omega/kappa < 0.1.
        (dataclasses.replace(reference_params(), b_in=0.1, e_eg=0.05), 2.5),
    ]

    @pytest.mark.parametrize("case", range(len(NONRECIPROCAL_CASES)))
    def test_nonreciprocal_point_warns_like_derive_effective(self, case):
        params, target = self.NONRECIPROCAL_CASES[case]
        (j, theta, _), messages = recording(
            lambda: optimizer.nonreciprocal_point(params, target)
        )
        at_point = [
            regime_messages(
                lambda: derive_effective(
                    dataclasses.replace(params, delta_c=target, direction=d),
                    j=j,
                    theta=theta,
                )
            )
            for d in Direction
        ]
        # Once per condition violated in either direction, worded as
        # derive_effective words it there.
        assert regime_conditions(messages) == regime_conditions(at_point[0] + at_point[1])
        assert len(messages) == len(regime_conditions(messages))
        assert set(messages) <= set(at_point[0] + at_point[1])

    def test_nonreciprocal_cases_reach_a_backward_only_condition(self):
        params, target = self.NONRECIPROCAL_CASES[-1]
        j, theta, _ = optimizer.nonreciprocal_point(params, target)
        at_target = dataclasses.replace(params, delta_c=target)
        forward = warned(lambda: derive_effective(at_target, j=j, theta=theta))
        backward = warned(
            lambda: derive_effective(
                dataclasses.replace(at_target, direction=Direction.BACKWARD),
                j=j,
                theta=theta,
            )
        )
        assert "weak cavity drive" in backward - forward

    @pytest.mark.parametrize("name", figures.FIGURE_NAMES)
    def test_figure_presets_stay_quiet(self, name, tmp_path):
        # figure() silences RegimeWarning around the whole preset: fig6c
        # places its point where nonreciprocal_point warns.  No other
        # warning is raised either.
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            figures.figure(name, tmp_path)
        assert [str(w.message) for w in record] == []


def random_params(rng: np.random.Generator) -> tuple[SystemParams, dict[str, float]]:
    """A seeded SystemParams, with and without direct J/theta couplings, that
    reaches g = 0, e_he = 0, a configured delta_he and every regime
    condition on both sides."""
    kappa = float(rng.choice([1.0, rng.uniform(0.5, 2.0)]))
    kappa1 = float(rng.uniform(0.05, 1.95)) * kappa
    params = SystemParams(
        kappa=kappa,
        kappa1=kappa1,
        kappa2=2.0 * kappa - kappa1,
        g=0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 30.0)),
        delta_p=float(rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 300.0)),
        delta_he=None if rng.random() < 0.7 else float(rng.uniform(-200.0, 200.0)),
        delta_e=float(rng.uniform(-3.0, 3.0)),
        delta_c=float(rng.uniform(-4.0, 4.0)),
        e_he=0.0 if rng.random() < 0.15 else float(rng.uniform(0.0, 60.0)),
        e_eg=float(rng.uniform(0.0, 0.2)),
        b_in=float(rng.uniform(0.0, 0.1)),
        phi_p=float(rng.uniform(-10.0, 10.0)),
        phi_he=float(rng.uniform(-10.0, 10.0)),
        phi_eg=float(rng.uniform(-10.0, 10.0)),
        direction=Direction.FORWARD if rng.random() < 0.5 else Direction.BACKWARD,
    )
    couplings = {}
    if rng.random() < 0.5:
        couplings["j"] = float(rng.uniform(-6.0, 6.0))
    if rng.random() < 0.5:
        couplings["theta"] = float(rng.uniform(-10.0, 10.0))
    return params, couplings


def bits(x) -> bytes:
    return np.asarray(x, dtype=complex).tobytes()


def conditions_by_definition(params: SystemParams, j: float | None) -> set[str]:
    """The regime conditions violated at one point, evaluated as defined."""
    found = set()
    if params.g > 0.0 and abs(params.delta_p / params.g) <= 10.0:
        found.add("adiabatic elimination")
    # The Raman-resonant delta_he takes the configured e_he, not J's.
    delta_he = params.delta_he
    if delta_he is None:
        delta_he = params.delta_p - (params.delta_e + params.e_he * params.e_he / params.delta_p)
    if j is None:
        e_he = params.e_he
    else:
        e_he = abs(j) * abs(params.delta_p) / params.g if params.g > 0.0 else 0.0
    if e_he > 0.0 and abs(delta_he / e_he) <= 10.0:
        found.add("upper-leg detuning")
    if math.sqrt(params.kappa_in) * params.b_in / params.kappa >= 0.1:
        found.add("weak cavity drive")
    if params.e_eg / params.kappa >= 0.1:
        found.add("weak microwave drive")
    return found


class TestScalarPathEqualsGridPath:
    """derive_effective is the one-point view of params.effective_arrays."""

    SAMPLE = [random_params(np.random.default_rng(1000 + i)) for i in range(200)]

    #: Draws of SAMPLE moved to the edges of the steady state, each with its
    #: J: J = 0 = delta_e (a singular first denominator), J**2 overflowing,
    #: occupations that overflow from the cavity or the microwave drive,
    #: amplitudes that overflow outright, a drive just short of
    #: overflowing, and no drive at all (g2 below the occupation floor).
    EDGES = [
        (dataclasses.replace(params, **fields), {"j": j})
        for (params, _), (fields, j) in zip(
            SAMPLE,
            [
                ({"delta_e": 0.0}, 0.0),
                ({}, 1e200),
                ({"b_in": 1e150}, 0.5),
                ({"e_eg": 1e200}, 0.5),
                ({"b_in": 1e200}, 0.5),
                ({"b_in": 1e60}, 0.5),
                ({"b_in": 0.0, "e_eg": 0.0}, 0.5),
            ],
        )
    ]

    def test_same_numbers_and_conditions(self):
        conditions = []
        for params, couplings in self.SAMPLE + self.EDGES:
            eff, scalar = recording(lambda: derive_effective(params, **couplings))
            expected = conditions_by_definition(params, couplings.get("j"))
            assert regime_conditions(scalar) == expected, (params, couplings)
            direct = {{"j": "J", "theta": "theta"}[k]: v for k, v in couplings.items()}
            # Every field given as a 0-d array as well, so that no input of
            # the grid path is a float.
            every = {name: getattr(params, name) for name in OVERRIDE_NAMES[:-2]}
            for overrides in (direct, every | direct):
                consts, grid = recording(lambda: effective_arrays(params, overrides))
                assert all(np.ndim(v) == 0 for v in consts.values())
                assert bits(eff.M) == bits(consts["m"])
                assert bits(eff.N) == bits(consts["n"])
                assert bits(eff.omega) == bits(consts["omega"])
                assert bits(eff.G) == bits(consts["g_shift"])
                assert bits(eff.J) == bits(consts["j"])
                assert bits(eff.theta) == bits(consts["theta"])
                assert regime_conditions(grid) == expected, (params, overrides)
            conditions.append(expected)
        for name in (
            "adiabatic elimination",
            "upper-leg detuning",
            "weak cavity drive",
            "weak microwave drive",
        ):
            assert any(name in s for s in conditions), name
            assert any(name not in s for s in conditions), name

    def test_same_statistics_as_the_grid_cell(self):
        # Neither path wraps theta, so the point and its cell give the same
        # bits for any finite theta.  The point is the first cell of three
        # grids, in both directions: a phi_eg axis (with theta given, phi_eg
        # enters nothing, so every amplitude input stays 0-d), a delta_c
        # axis (M and N vary) and a J x theta map (J and the phase vary).
        # steady_stats raises exactly where the cell is invalid, and gives
        # every statistic of each cell, bit for bit, everywhere else; so
        # does nonreciprocal_point's per-direction g2 (inf where invalid).
        rng = np.random.default_rng(2500)
        points = [
            (params, float(rng.uniform(-6.0, 6.0)), float(rng.uniform(-10.0, 10.0)))
            for params, _ in self.SAMPLE
        ]
        points += [(params, couplings["j"], 0.3) for params, couplings in self.EDGES]
        both = (Direction.FORWARD, Direction.BACKWARD)
        valid = []
        for params, j, theta in points:
            couplings = {"J": j, "theta": theta}
            specs = [
                sweeps.SweepSpec(
                    axis1=sweeps.SweepAxis("phi_eg", 0.0, 1e-3, 2),
                    overrides=couplings,
                    directions=both,
                ),
                sweeps.SweepSpec(
                    axis1=sweeps.SweepAxis("delta_c", params.delta_c, params.delta_c + 1.0, 2),
                    overrides=couplings,
                    directions=both,
                ),
                sweeps.SweepSpec(
                    axis1=sweeps.SweepAxis("J", j, j + max(1.0, abs(j)), 2),
                    axis2=sweeps.SweepAxis("theta", theta, theta + 1e-3, 2),
                    directions=both,
                ),
            ]
            results = [sweeps.run_sweep(spec, params) for spec in specs]
            for direction in both:
                at = dataclasses.replace(params, direction=direction)
                ok = {bool(result.valid[direction].flat[0]) for result in results}
                assert len(ok) == 1, (params, j, theta, direction)
                valid.append(ok.pop())
                g2 = optimizer._direction_g2(params, direction, j, theta)[0]
                if not valid[-1]:
                    with pytest.raises(NumericalFailure):
                        steady_state.steady_stats(at, j=j, theta=theta)
                    assert g2 == math.inf
                    continue
                point = steady_state.steady_stats(at, j=j, theta=theta)
                values = (
                    point.p1, point.p2, point.g2, point.n_cavity_paper, point.n_cavity_full
                )
                assert bits(g2) == bits(point.g2), (params, j, theta, direction)
                for result, name in zip(results, ("phi_eg", "delta_c", "J x theta")):
                    for stat, value in zip(sweeps.STAT_COLUMNS, values):
                        cell = result.stats[direction][stat].flat[0]
                        assert bits(value) == bits(cell), (params, j, theta, name, stat)
        # Every random draw is valid; the edges hold five invalid points.
        assert valid == [True] * 2 * len(self.SAMPLE) + [False] * 10 + [True] * 4

    def test_sample_reaches_the_edge_cases(self):
        params = [p for p, _ in self.SAMPLE]
        with_j = [p for p, c in self.SAMPLE if "j" in c]
        assert {p.direction for p in params} == set(Direction)
        assert any(p.g == 0.0 for p in with_j)
        assert any(p.g == 0.0 for p, c in self.SAMPLE if "j" not in c)
        assert any(p.e_he == 0.0 for p in params)
        assert any(p.delta_he is not None for p in params)
        assert any("theta" in c for _, c in self.SAMPLE)
        assert any(not c for _, c in self.SAMPLE)


class TestCliInProcess:
    def test_g2_prints_statistics(self, capsys):
        assert cli.main(["g2"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        stats = steady_state.steady_stats(reference_params())
        assert kv["direction"] == "forward"
        assert float(kv["delta_c"]) == 0.0
        assert float(kv["g2"]) == stats.g2
        assert float(kv["p1"]) == stats.p1
        assert float(kv["p2"]) == stats.p2
        assert float(kv["n_paper"]) == stats.n_cavity_paper
        assert float(kv["n_full"]) == stats.n_cavity_full

    @pytest.mark.parametrize(
        "axis, flag",
        [
            ("b_in,-0.02,0.02,3", ["--b-in", "-0.02"]),
            ("g,-10,10,3", ["--g", "-10"]),
            ("e_eg,-0.02,0.02,3", ["--e-eg", "-0.02"]),
            ("e_he,-5,5,3", ["--e-he", "-5"]),
            ("kappa,0.5,2,3", ["--kappa", "0.5"]),
        ],
    )
    def test_sweep_refuses_what_a_point_refuses(self, tmp_path, capsys, axis, flag):
        assert cli.main(["g2", *flag]) == 1
        point = capsys.readouterr()
        argv = ["sweep", "--axis1", axis, "--J", "0.3", "--out", str(tmp_path)]
        assert cli.main(argv) == 1
        grid = capsys.readouterr()
        assert point.err.startswith("error: ") and point.err.count("\n") == 1
        assert grid.err == point.err
        assert grid.out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("axis", ["kappa1,0.2,1.8,3", "kappa2,0.2,1.8,3"])
    def test_sweep_slides_a_mirror_axis(self, tmp_path, axis):
        argv = ["sweep", "--axis1", axis, "--J", "0.3", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[4:]
        assert len(rows) == 6 and all(row.endswith(",true") for row in rows)

    @pytest.mark.parametrize(
        "argv", [["sweep", "--axis1", "delta_c,0,1,2"], ["nonreciprocal"]]
    )
    def test_all_direction_verbs_take_no_direction(self, capsys, argv):
        # sweep runs --directions and nonreciprocal both directions.
        assert cli.main([*argv, "--direction", "backward"]) == 1
        assert "unrecognized arguments: --direction backward" in capsys.readouterr().err

    def test_g2_with_direct_couplings(self, capsys):
        assert cli.main(["g2", "--J", "0.5", "--theta", "0.3"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        stats = steady_state.steady_stats(reference_params(), j=0.5, theta=0.3)
        assert float(kv["g2"]) == stats.g2

    def test_optimize_reports_root(self, capsys):
        assert cli.main(["optimize"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        point = optimizer.solve_optimal(reference_params())
        assert float(kv["J"]) == point.J
        assert float(kv["theta"]) == point.theta
        assert float(kv["delta_c_opt"]) == point.delta_c_opt
        assert float(kv["residual"]) == point.residual
        assert float(kv["g2"]) < 1e-10

    def test_optimize_fixed_detuning(self, capsys):
        assert cli.main(["optimize", "--fix-delta-c", "--delta-c", "0.0"]) == 0
        kv = kv_lines(capsys.readouterr().out)
        assert float(kv["delta_c_opt"]) == 0.0
        assert float(kv["g2"]) < 1e-10

    def test_sweep_writes_expected_bytes(self, tmp_path, capsys):
        rc = cli.main(
            [
                "sweep",
                "--axis1", "delta_c,-1,1,7",
                "--J", "0.5",
                "--theta", "0.3",
                "--directions", "both",
                "--out", str(tmp_path),
                "--name", "cli",
                "--jobs", "2",
            ]
        )
        assert rc == 0
        assert str(tmp_path / "cli.csv") in capsys.readouterr().out

        spec = sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("delta_c", -1.0, 1.0, 7),
            overrides={"J": 0.5, "theta": 0.3},
            directions=sweeps.parse_directions("both"),
        )
        result = sweeps.run_sweep(spec, reference_params(), jobs=2)
        sweeps.write_sweep_csv(result, tmp_path / "direct.csv")
        assert (tmp_path / "cli.csv").read_bytes() == (
            tmp_path / "direct.csv"
        ).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "point.cfg"
        config.write_text(
            "# working point\ndelta_c = 0.5\ne_eg = 0.005\n", encoding="utf-8"
        )
        rc = cli.main(["g2", "--config", str(config), "--delta-c", "1.0"])
        assert rc == 0
        kv = kv_lines(capsys.readouterr().out)
        assert float(kv["delta_c"]) == 1.0
        expected = steady_state.steady_stats(
            dataclasses.replace(reference_params(), delta_c=1.0, e_eg=0.005)
        )
        assert float(kv["g2"]) == expected.g2

    def test_config_file_slides_the_unnamed_mirror(self, tmp_path, capsys):
        # A file naming one mirror alone slides the other, as the flag does.
        config = tmp_path / "mirror.cfg"
        config.write_text("kappa1 = 0.5\n", encoding="utf-8")
        assert cli.main(["g2", "--kappa1", "0.5"]) == 0
        by_flag = capsys.readouterr()
        assert cli.main(["g2", "--config", str(config)]) == 0
        assert capsys.readouterr().out == by_flag.out != ""

    def test_missing_config_file(self, tmp_path, capsys):
        rc = cli.main(["g2", "--config", str(tmp_path / "absent.cfg")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_figure_is_config_error(self, tmp_path, capsys):
        assert cli.main(["figure", "fig9z", "--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_axis_is_config_error(self, capsys):
        assert cli.main(["sweep", "--axis1", "delta_c,0,1"]) == 1
        assert "name,min,max,n" in capsys.readouterr().err

    def test_invalid_mirror_split_is_config_error(self, capsys):
        # --kappa1 5 slides kappa2 negative; rejected before any solve.
        assert cli.main(["g2", "--kappa1", "5.0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_jobs_must_be_positive(self, tmp_path, capsys):
        rc = cli.main(["sweep", "--axis1", "delta_c,0,1,5", "--jobs", "0"])
        assert rc == 1
        assert "--jobs" in capsys.readouterr().err
        # figure checks --jobs too, though no grid uses it.
        rc = cli.main(["figure", "fig2a", "--out", str(tmp_path), "--jobs", "0"])
        assert rc == 1
        assert "--jobs" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--axis1", "delta_c,0,1,5"],
            ["figure", "fig2a"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("where", ["file", "under-file"])
    def test_unwritable_out_is_config_error(self, tmp_path, capsys, argv, where):
        # A regular file where the output directory should be, or on its
        # path: FileExistsError and NotADirectoryError, reported as an
        # unreadable --config is.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory\n")
        out = blocker if where == "file" else blocker / "out"
        assert cli.main([*argv, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output: ")
        assert captured.err.count("\n") == 1

    def test_no_microwave_root_is_numerical_failure(self, capsys):
        assert cli.main(["optimize", "--e-eg", "0"]) == 2
        assert "numerical failure:" in capsys.readouterr().err

    def test_in_process_caller_sees_warnings(self, capsys):
        format_before = warnings.formatwarning
        with pytest.warns(RegimeWarning, match="adiabatic elimination"):
            assert cli.main(["optimize"]) == 0
        assert warnings.formatwarning is format_before

    def test_degenerate_detuning_is_numerical_failure(self, capsys):
        assert cli.main(["optimize", "--delta-e", "0"]) == 2
        assert "numerical failure:" in capsys.readouterr().err

    def test_strong_drive_root_of_large_g2_is_refused(self, capsys):
        # At b_in = 1e10 the resultant's zero J = 2.2e11 leaves |c2g| = 3.7e-20
        # but g2 = 2500: a root must cancel c2g against |c1g|^2.
        assert cli.main(["optimize", "--b-in", "1e10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "numerical failure: the cancellation condition has no real root "
            "(J, theta) here"
        )

    @pytest.mark.parametrize(
        "exc, code",
        [
            (steady_state.SingularDenominator("M", 1e-12), 2),
            (optimizer.NoRealSolution("no root"), 2),
            (optimizer.DegenerateDetuning("delta_e = 0"), 2),
            (ArithmeticError("overflow"), 2),
            (ConfigError("bad request"), 1),
            (figures.UnknownFigure("no such preset"), 1),
        ],
        ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
    )
    def test_failure_type_sets_exit_code(self, monkeypatch, capsys, exc, code):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(steady_state, "steady_stats", fail)
        assert cli.main(["g2"]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        prefix = "numerical failure: " if code == 2 else "error: "
        assert captured.err == f"{prefix}{exc.args[0]}\n"

    def test_failure_types_keep_their_builtin_bases(self):
        # Library callers catch these as ValueError (and KeyError).
        for cls in (
            steady_state.SingularDenominator,
            optimizer.NoRealSolution,
            optimizer.DegenerateDetuning,
        ):
            assert issubclass(cls, NumericalFailure)
            assert issubclass(cls, ValueError)
        assert issubclass(figures.UnknownFigure, ConfigError)
        assert issubclass(figures.UnknownFigure, KeyError)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["g2", "--J", "nan"], "J must be finite, got nan"),
            (["g2", "--J", "inf"], "J must be finite, got inf"),
            (["g2", "--theta", "inf"], "theta must be finite, got inf"),
            (["sweep", "--axis1", "delta_c,0,1,5", "--J", "nan"], "J must be finite"),
            (["sweep", "--axis1", "delta_c,0,inf,5"], "bounds must be finite"),
        ],
    )
    def test_non_finite_input_is_config_error(self, tmp_path, capsys, argv, message):
        if argv[0] == "sweep":
            argv = [*argv, "--out", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(argv) == 1
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


def in_process(argv: list[str], capsys) -> tuple[str, str, int]:
    """stdout, stderr and exit code of ``cli.main(argv)``, with warnings
    shown as a program run shows them: each in the package's one-line
    format, once per location."""

    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(cli._format_warning(message, category, filename, lineno, line))

    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = show
        code = cli.main(argv)
    out, err = capsys.readouterr()
    return out, err, code


class TestCliSubprocess:
    @staticmethod
    def spawn(*cmd: str):
        # Without PYTHONUNBUFFERED a piped stdout is block-buffered, so
        # output that the program does not flush before it ends is lost.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
        # A numpy warning that a verb leaks fails the run, as it does in the
        # suite's own process.
        env["PYTHONWARNINGS"] = CHILD_WARNINGS
        return subprocess.run(cmd, capture_output=True, text=True, env=env)

    def run(self, *args: str):
        return self.spawn(sys.executable, "-m", "cavityblockade", *args)

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["g2"], 0),
            (["optimize", "--e-eg", "0"], 2),
            (["sweep", "--axis1", "delta_c,0,1"], 1),
            (["figure", "fig2b"], 0),
            (["sweep", "--axis1", "delta_c,-1e308,1e308,3"], 1),
        ],
        ids=["g2", "optimize-no-root", "bad-axis", "figure-fig2b", "overflowing-span"],
    )
    def test_program_output_equals_in_process(self, tmp_path, capsys, argv, code):
        if argv[0] in ("figure", "sweep"):
            argv = [*argv, "--out", str(tmp_path)]
        proc = self.run(*argv)
        assert (proc.stdout, proc.stderr, proc.returncode) == in_process(argv, capsys)
        assert proc.returncode == code

    def test_full_model_warns_once_about_the_detuning_ratio(self):
        # validate-full's one |delta_p/g| line is the one g2 writes.
        lines = [
            [line for line in self.run(*argv).stderr.splitlines() if "|delta_p/g|" in line]
            for argv in (["validate-full", "--g", "25"], ["g2", "--g", "25"])
        ]
        assert lines[0] == lines[1] == [
            "RegimeWarning: |delta_p/g| = 4 <= 10; adiabatic elimination is marginal"
        ]

    def test_full_model_refuses_n_max_before_any_work(self):
        # The effective solve, and its regime warning, never run.
        proc = self.run("validate-full", "--n-max", "5")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: n_max must be in [2, 4] to measure g2, got 5\n"

    def test_overflowing_coupling_is_one_numerical_failure_line(self):
        proc = self.run("g2", "--J", "1e200")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "RegimeWarning: |delta_p/g| = 10 <= 10; adiabatic elimination is marginal",
            "RegimeWarning: |delta_he/e_he| = 1.01e-199 <= 10; "
            "upper-leg drive is not far detuned",
            "numerical failure: steady-state denominator J^2 - M*delta_e "
            "is not finite (magnitude inf)",
        ]
        # Occupations that overflow, from either drive, a J whose square
        # overflows while the full model's delta_eg would raise, and drives
        # that overflow the root solver's resultant: each exits 2 with the
        # one line the scalar path gives, and no numpy warning.
        singular = proc.stderr.splitlines()[-1]
        overflow = (
            "numerical failure: photon statistics need finite occupations: "
            "an amplitude is not finite or an occupation overflows"
        )
        resultant = (
            "numerical failure: the degree-{} resultant of the cancellation "
            "condition overflows at these drive strengths, so its real roots "
            "cannot be computed"
        )
        for argv, failure in [
            (["g2", "--b-in", "1e150"], overflow),
            (["g2", "--e-eg", "1e200"], overflow),
            (["g2", "--b-in", "1e200"], overflow),
            (["validate-full", "--b-in", "1e150"], overflow),
            (["validate-full", "--e-he", "1e200"], singular),
            (["optimize", "--b-in", "1e40"], resultant.format(10)),
            (["nonreciprocal", "--b-in", "1e150"], resultant.format(8)),
        ]:
            proc = self.run(*argv)
            assert (proc.returncode, proc.stdout) == (2, ""), argv
            *warned, last = proc.stderr.splitlines()
            assert last == failure, argv
            assert all(line.startswith("RegimeWarning: ") for line in warned), argv

    def test_overflowing_sweep_points_are_invalid_rows(self, tmp_path):
        proc = self.run(
            "sweep", "--axis1", "delta_c,-1,1,3", "--b-in", "1e150", "--out", str(tmp_path)
        )
        assert proc.returncode == 0
        assert all(line.startswith("RegimeWarning: ") for line in proc.stderr.splitlines())
        rows = (tmp_path / "sweep.csv").read_text().splitlines()[4:]
        assert len(rows) == 6
        assert all(row.endswith(",,,,,,false") for row in rows)

    def test_closed_stdout_exits_as_before(self):
        # Started with stdout closed, sys.stdout is None: the flush is
        # skipped and the interpreter exits the usual way.
        proc = self.spawn(
            "sh", "-c", 'exec "$0" -m cavityblockade g2 --kappa1 5 >&-', sys.executable
        )
        assert proc.returncode == 1
        assert proc.stderr == "error: mirror decay rates kappa1, kappa2 must be positive\n"

    @pytest.mark.parametrize("flags", [[], ["-u"]], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("argv", [["g2"], ["figure", "fig2b"]], ids=["g2", "figure-fig2b"])
    def test_gone_reader_exits_141_quietly(self, tmp_path, argv, flags):
        # The program's stdout is a pipe whose read end is closed before it
        # starts, as in `cavityblockade g2 | head -c0`.  Buffered, the flush
        # at the end meets the broken pipe; unbuffered (-u), the verb's write.
        script = (
            "import os, sys\n"
            "r, w = os.pipe()\n"
            "os.close(r)\n"
            "os.dup2(w, 1)\n"
            "os.execv(sys.executable, sys.argv[1:])\n"
        )
        if argv[0] == "figure":
            argv = [*argv, "--out", str(tmp_path)]
        proc = self.spawn(
            sys.executable, "-c", script, sys.executable, *flags, "-m", "cavityblockade",
            *argv,
        )
        assert proc.returncode == 141
        # The verb's own warnings, and no BrokenPipeError report.
        assert proc.stderr == self.run(*argv).stderr

    def test_exit_handlers_run_after_the_verb(self):
        script = (
            "import atexit, sys\n"
            "atexit.register(lambda: sys.stderr.write('exit handler ran\\n'))\n"
            "sys.argv = ['cavityblockade', 'g2']\n"
            "from cavityblockade import cli\n"
            "sys.exit(cli.run())\n"
        )
        proc = self.spawn(sys.executable, "-c", script)
        assert proc.returncode == 0
        verb = self.run("g2")
        assert proc.stdout == verb.stdout != ""
        assert proc.stderr == verb.stderr + "exit handler ran\n"

    def test_help_exits_cleanly(self):
        proc = self.run("-h")
        assert proc.returncode == 0
        assert "usage: cavityblockade" in proc.stdout

    def test_optimize_warning_is_one_location_free_line(self):
        proc = self.run("optimize")
        assert proc.returncode == 0
        assert proc.stderr == (
            "RegimeWarning: |delta_p/g| = 10 <= 10; adiabatic elimination is marginal\n"
        )

    def test_nonreciprocal_warns_each_condition_once(self):
        proc = self.run("nonreciprocal")
        assert proc.returncode == 0
        assert proc.stderr == (
            "RegimeWarning: |delta_p/g| = 10 <= 10; adiabatic elimination is marginal\n"
            "RegimeWarning: |delta_he/e_he| = 2.12 <= 10; upper-leg drive is not far detuned\n"
        )

    def test_not_nonreciprocal_is_one_location_free_line(self):
        # Equal mirrors: both directions see the same g2.
        proc = self.run("nonreciprocal", "--kappa1", "1", "--kappa2", "1")
        assert proc.returncode == 0
        assert "cli.py" not in proc.stderr
        assert (
            "NotNonreciprocal: g2 = 1.00001 forward and 1.00001 backward at the "
            "selected point; the blockade is not nonreciprocal here"
        ) in proc.stderr.splitlines()

    @pytest.mark.parametrize(
        "directions, conditions",
        [
            ([], ["|delta_p/g|", "|delta_he/e_he|"]),
            (["--directions", "forward"], ["|delta_p/g|"]),
            # The configured e_he = 20 enters no cell: the forward root
            # J = 0.2736 keeps |delta_he/e_he| > 10 and the backward root
            # J = 1.3275 does not.
            (["--directions", "forward", "--e-he", "20"], ["|delta_p/g|"]),
            (["--e-he", "20"], ["|delta_p/g|", "|delta_he/e_he|"]),
        ],
    )
    def test_optimal_sweep_warns_each_condition_once(
        self, tmp_path, directions, conditions
    ):
        # The evaluation grid, in each direction, breaks the same
        # |delta_p/g| condition; it is printed once.
        proc = self.run(
            "sweep", "--axis1", "delta_c,-4,4,41", "--optimal-j-theta", *directions,
            "--out", str(tmp_path),
        )
        assert proc.returncode == 0
        assert proc.stderr == "".join(
            f"RegimeWarning: grid points violate {c} > 10\n" for c in conditions
        )

    def test_g2_entry_point(self):
        proc = self.run("g2")
        assert proc.returncode == 0
        assert "g2 = " in proc.stdout

    def test_figure_regeneration_matches_library(self, tmp_path):
        cli_dir = tmp_path / "from_cli"
        lib_dir = tmp_path / "from_lib"
        proc = self.run("figure", "fig2b", "--out", str(cli_dir), "--jobs", "2")
        assert proc.returncode == 0
        files = figures.figure("fig2b", lib_dir)
        for name in files:
            assert str(cli_dir / name) in proc.stdout
            assert (cli_dir / name).read_bytes() == (lib_dir / name).read_bytes()
