import cmath
import dataclasses
import math
import warnings

import numpy as np
import pytest

from cavityblockade import optimizer, steady_state, sweeps
from cavityblockade import params as P

pytestmark = pytest.mark.filterwarnings(
    "ignore::cavityblockade.params.RegimeWarning"
)


def cancellation_polynomial(params, j, theta, delta_c):
    """Independent evaluation of the two-photon numerator."""
    e = params.e_eg
    omega = math.sqrt(params.kappa_in) * params.b_in
    g_shift = params.g**2 / params.delta_p
    m = complex(delta_c - g_shift, -0.5 * params.kappa)
    n = complex(delta_c + params.delta_e, -0.5 * params.kappa)
    ph = cmath.exp(-1j * theta)
    return (
        e**2 * j**2 * ph**2
        + e * omega * j * ph * (m + n + params.delta_e)
        + omega**2 * (j**2 + n * params.delta_e)
    )


class TestJointSolve:
    def test_forward_root_properties(self):
        base = P.reference_params()
        point = optimizer.solve_optimal(base)
        assert point.direction is P.Direction.FORWARD
        assert -math.pi < point.theta <= math.pi
        assert point.residual < 1e-10
        assert abs(
            cancellation_polynomial(base, point.J, point.theta, point.delta_c_opt)
        ) < 1e-14
        g_shift = base.g**2 / base.delta_p
        assert point.delta_c_opt == pytest.approx(
            g_shift + point.J**2 / base.delta_e, rel=1e-14
        )
        working = dataclasses.replace(base, delta_c=point.delta_c_opt)
        stats = steady_state.steady_stats(working, j=point.J, theta=point.theta)
        assert stats.g2 < 1e-4

    def test_backward_root_properties(self):
        base = dataclasses.replace(
            P.reference_params(), direction=P.Direction.BACKWARD
        )
        point = optimizer.solve_optimal(base)
        assert point.residual < 1e-10
        assert abs(
            cancellation_polynomial(base, point.J, point.theta, point.delta_c_opt)
        ) < 1e-13
        working = dataclasses.replace(base, delta_c=point.delta_c_opt)
        assert steady_state.steady_stats(working, j=point.J, theta=point.theta).g2 < 1e-4

    def test_root_is_local_minimum_on_dense_grid(self):
        base = P.reference_params()
        point = optimizer.solve_optimal(base)
        working = dataclasses.replace(base, delta_c=point.delta_c_opt)
        c = P.derive_effective(working, j=point.J, theta=point.theta)
        j_grid = np.linspace(point.J - 0.2, point.J + 0.2, 201)
        th_grid = np.linspace(point.theta - 0.3, point.theta + 0.3, 201)
        amps, valid = steady_state.amplitude_arrays(
            c.omega, c.M, c.N, c.delta_e, j_grid[:, None], th_grid[None, :], base.e_eg
        )
        assert bool(np.all(valid))
        mag = np.abs(amps[..., 3])
        i, k = np.unravel_index(int(np.argmin(mag)), mag.shape)
        assert abs(j_grid[i] - point.J) <= j_grid[1] - j_grid[0]
        assert abs(th_grid[k] - point.theta) <= th_grid[1] - th_grid[0]

    def test_deterministic_across_calls(self):
        base = P.reference_params()
        a = optimizer.solve_optimal(base)
        b = optimizer.solve_optimal(base)
        assert (a.J, a.theta, a.delta_c_opt) == (b.J, b.theta, b.delta_c_opt)

    def test_mirror_swap_equivalence(self):
        p = P.reference_params()
        backward = dataclasses.replace(p, direction=P.Direction.BACKWARD)
        swapped = P.mirror_swap(p)  # same physics as p, backward labels
        a = optimizer.solve_optimal(p)
        b = optimizer.solve_optimal(swapped)
        assert (b.J, b.theta, b.delta_c_opt) == (a.J, a.theta, a.delta_c_opt)
        assert b.direction is P.Direction.BACKWARD
        # and the actual backward drive is a genuinely different problem
        c = optimizer.solve_optimal(backward)
        assert abs(c.J - a.J) > 0.1

    def test_microwave_off_has_no_root(self):
        p = dataclasses.replace(P.reference_params(), e_eg=0.0)
        with pytest.raises(optimizer.NoRealSolution, match="imaginary part"):
            optimizer.solve_optimal(p)

    def test_degenerate_detuning(self):
        p = dataclasses.replace(P.reference_params(), delta_e=0.0)
        with pytest.raises(optimizer.DegenerateDetuning, match="delta_e = 0"):
            optimizer.solve_optimal(p)

    def test_zero_probe_detuning(self):
        p = dataclasses.replace(P.reference_params(), delta_p=0.0)
        with pytest.raises(ZeroDivisionError):
            optimizer.solve_optimal(p)


class TestFixedDetuning:
    def test_forward_roots_at_zero_detuning(self):
        at_zero = dataclasses.replace(P.reference_params(), delta_c=0.0)
        roots = optimizer.find_roots(at_zero, fix_delta_c=True)
        assert len(roots) >= 2
        js = [abs(r.J) for r in roots]
        assert js == sorted(js)
        for r in roots:
            assert r.delta_c_opt == 0.0
            assert r.residual < 1e-10
            assert abs(cancellation_polynomial(at_zero, r.J, r.theta, 0.0)) < 1e-13
        # one root sits in the strongly nonreciprocal band |J| > 1.5
        assert any(abs(r.J) > 1.5 for r in roots)

    def test_backward_has_no_root_at_zero_detuning(self):
        at_zero = dataclasses.replace(
            P.reference_params(), delta_c=0.0, direction=P.Direction.BACKWARD
        )
        assert optimizer.find_roots(at_zero, fix_delta_c=True) == []
        with pytest.raises(optimizer.NoRealSolution, match="no real root"):
            optimizer.solve_optimal(at_zero, fix_delta_c=True)

    def test_both_roots_at_detuned_target(self):
        p = dataclasses.replace(P.reference_params(), delta_c=2.5)
        roots = optimizer.find_roots(p, fix_delta_c=True)
        assert [r.J for r in roots] == pytest.approx([0.25275, -3.9640], abs=1e-4)
        assert roots[1].theta == pytest.approx(1.16615, abs=1e-5)
        for r in roots:
            assert abs(cancellation_polynomial(p, r.J, r.theta, 2.5)) < 1e-13

    # Per reference delta_c, each forward root's (J, |delta_he/e_he|,
    # backward g2): the small-|J| branch is in regime, the large-|J| one
    # is not.
    BRANCHES = [
        (0.0, [(0.16178313820767565, 62.1, 0.71331), (4.735377490690859, 2.12, 47.488)]),
        (1.57, [(0.27038193377644254, 37.2, 1.3240), (-4.029435665948046, 2.49, 31.967)]),
        (2.5, [(0.25275445274028513, 39.8, 1.1414), (-3.964000042264327, 2.54, 30.582)]),
    ]

    @pytest.mark.parametrize("delta_c, branches", BRANCHES)
    def test_two_branches(self, delta_c, branches):
        p = dataclasses.replace(P.reference_params(), delta_c=delta_c)
        roots = optimizer.find_roots(p, fix_delta_c=True)
        assert [r.J for r in roots] == pytest.approx([b[0] for b in branches], abs=1e-9)
        backward = dataclasses.replace(p, direction=P.Direction.BACKWARD)
        for r, (_, ratio, g2) in zip(roots, branches):
            # The Raman delta_he = delta_p - delta_eg takes the configured
            # e_he = 0, as _derive does; the drive is the e_he J implies.
            c = P.effective_arrays(p, {"J": r.J})
            assert float(f"{abs(c['delta_he'] / c['e_he']):.3g}") == ratio
            stats = steady_state.steady_stats(backward, j=r.J, theta=r.theta)
            assert stats.g2 == pytest.approx(g2, rel=1e-4)

    def test_in_regime_branch_has_a_one_way_window(self):
        # Along delta_c = 1.00, 1.01, ..., 2.00 the small-|J| forward root
        # stays in regime, and its backward g2 crosses 1 between 1.17 and
        # 1.18 and peaks at 1.57.
        ref = P.reference_params()
        backward_g2 = {}
        for k in range(101):
            delta_c = round(1.0 + k / 100, 2)
            p = dataclasses.replace(ref, delta_c=delta_c)
            roots = optimizer.find_roots(p, fix_delta_c=True)
            assert len(roots) == 2, delta_c
            small = roots[0]
            c = P.effective_arrays(p, {"J": small.J})
            assert abs(c["delta_he"] / c["e_he"]) > 35.0, delta_c
            backward = dataclasses.replace(p, direction=P.Direction.BACKWARD)
            backward_g2[delta_c] = steady_state.steady_stats(
                backward, j=small.J, theta=small.theta
            ).g2
        assert [dc for dc, g2 in backward_g2.items() if g2 > 1.0] == [
            round(1.18 + k / 100, 2) for k in range(83)
        ]
        assert backward_g2[1.17] == pytest.approx(0.98434, rel=1e-4)
        assert backward_g2[1.18] == pytest.approx(1.00303, rel=1e-4)
        assert max(backward_g2, key=backward_g2.get) == 1.57
        for delta_c, g2 in ((1.56, 1.32395), (1.57, 1.32403), (1.58, 1.32388)):
            assert backward_g2[delta_c] == pytest.approx(g2, rel=1e-4)

    def test_large_branch_backward_g2_rises_with_abs_j(self):
        # Along delta_c = -2.00, -1.75, ..., 2.50 the backward g2 of the
        # larger-|J| forward root rises strictly with |J|, so toward the
        # J_LIMIT edge of nonreciprocal_point's window.
        ref = P.reference_params()
        larger = {}
        for k in range(19):
            delta_c = -2.0 + 0.25 * k
            p = dataclasses.replace(ref, delta_c=delta_c)
            big = max(optimizer.find_roots(p, fix_delta_c=True), key=lambda r: abs(r.J))
            backward = dataclasses.replace(p, direction=P.Direction.BACKWARD)
            g2 = steady_state.steady_stats(backward, j=big.J, theta=big.theta).g2
            larger[delta_c] = (big.J, g2)
        by_abs_j = sorted(larger.values(), key=lambda point: abs(point[0]))
        g2s = [g2 for _, g2 in by_abs_j]
        assert all(a < b for a, b in zip(g2s, g2s[1:]))
        pins = ((-2.0, 5.897657, 82.0319), (0.0, 4.735377, 47.4882), (2.25, -3.938573, 30.1655))
        for delta_c, j, g2 in pins:
            assert larger[delta_c][0] == pytest.approx(j, abs=1e-6)
            assert larger[delta_c][1] == pytest.approx(g2, rel=1e-5)

    def test_fixed_solve_echoes_target(self):
        p = dataclasses.replace(P.reference_params(), delta_c=2.5)
        point = optimizer.solve_optimal(p, fix_delta_c=True)
        assert point.delta_c_opt == 2.5
        assert point.residual < 1e-10


class TestArraySolve:
    def test_matches_scalar_solver(self):
        base = P.reference_params()
        delta_es = np.array([-0.5, -1.0, 0.0, 0.7])
        omega = math.sqrt(base.kappa_in) * base.b_in
        j, theta, dc = optimizer.solve_optimal_arrays(
            base.e_eg, omega, base.g**2 / base.delta_p, delta_es, base.kappa
        )
        assert np.isfinite(j).tolist() == [True, True, False, True]
        assert math.isnan(j[2]) and math.isnan(dc[2])
        for idx in (0, 1, 3):
            scalar = optimizer.solve_optimal(
                dataclasses.replace(base, delta_e=float(delta_es[idx]))
            )
            assert j[idx] == pytest.approx(scalar.J, abs=1e-9)
            assert theta[idx] == pytest.approx(scalar.theta, abs=1e-9)
            assert dc[idx] == pytest.approx(scalar.delta_c_opt, abs=1e-9)

    def test_microwave_off_column_masked(self):
        base = P.reference_params()
        omega = math.sqrt(base.kappa_in) * base.b_in
        j, theta, dc = optimizer.solve_optimal_arrays(
            np.array([0.01, 0.0]), omega, 1.0, -0.5, 1.0
        )
        assert np.isfinite(j).tolist() == [True, False]
        assert math.isnan(theta[1]) and math.isnan(dc[1])

    def test_overflowing_resultant(self):
        # The resultant grows as the eighth power of the drives, so at
        # b_in = 1e40 it overflows although the root J ~ 22.4 b_in is finite.
        # The scalar solve says so; the array solve masks only that column.
        base = dataclasses.replace(P.reference_params(), b_in=1e40)
        for fix_delta_c, degree in ((False, 10), (True, 8)):
            with pytest.raises(P.NumericalFailure) as err:
                optimizer.find_roots(base, fix_delta_c)
            assert not isinstance(err.value, optimizer.NoRealSolution)
            assert str(err.value) == (
                f"the degree-{degree} resultant of the cancellation condition "
                "overflows at these drive strengths, so its real roots cannot "
                "be computed"
            )
        omega = math.sqrt(base.kappa_in) * np.array([base.b_in, 0.02])
        j, theta, dc = optimizer.solve_optimal_arrays(
            base.e_eg, omega, base.g**2 / base.delta_p, base.delta_e, base.kappa
        )
        assert np.isfinite(j).tolist() == [False, True]
        assert math.isnan(theta[0]) and math.isnan(dc[0])
        assert j[1] == optimizer.solve_optimal(P.reference_params()).J

    def test_backward_detuning_grid_solved_on_every_column(self):
        base = dataclasses.replace(
            P.reference_params(), direction=P.Direction.BACKWARD
        )
        delta_es = np.linspace(-3.0, 3.0, 601)
        omega = math.sqrt(base.kappa_in) * base.b_in
        j, theta, dc = optimizer.solve_optimal_arrays(
            base.e_eg, omega, base.g**2 / base.delta_p, delta_es, base.kappa
        )
        assert np.isfinite(j).tolist() == (delta_es != 0.0).tolist()
        assert j[-1] == pytest.approx(-8.0482, abs=1e-4)
        assert theta[-1] == pytest.approx(-0.011313, abs=1e-6)
        at_three = dataclasses.replace(base, delta_e=3.0)
        assert abs(cancellation_polynomial(at_three, j[-1], theta[-1], dc[-1])) < 1e-12

    def draws(self, count):
        """(E, Omega, G, delta_e, kappa) of ``count`` seeded columns; about
        one in ten has the microwave drive off, and so no root."""
        rng = np.random.default_rng(7)
        e = rng.uniform(0.005, 0.02, count)
        return (
            np.where(rng.random(count) < 0.1, 0.0, e),
            rng.uniform(0.01, 0.03, count),
            rng.uniform(0.5, 2.0, count),
            rng.uniform(-3.0, 3.0, count),
            rng.uniform(0.5, 1.5, count),
        )

    def test_solves_at_most_a_block_of_columns_a_call(self, monkeypatch):
        sizes = []
        roots = optimizer._cancellation_roots
        monkeypatch.setattr(
            optimizer,
            "_cancellation_roots",
            lambda *args: sizes.append(len(args[0])) or roots(*args),
        )
        block = optimizer._SOLVE_COLUMNS
        j, _, _ = optimizer.solve_optimal_arrays(*self.draws(2 * block + 1))
        assert j.shape == (2 * block + 1,)
        assert sizes == [block, block, 1]

    def test_blocks_match_one_column_solves_bit_for_bit(self, monkeypatch):
        block = optimizer._SOLVE_COLUMNS
        count = 3 * block + 7
        consts = self.draws(count)
        blocked = np.stack(optimizer.solve_optimal_arrays(*consts))
        assert 0 < np.isfinite(blocked[0]).sum() < count
        # Every column against one solve of all columns at once ...
        monkeypatch.setattr(optimizer, "_SOLVE_COLUMNS", count)
        assert blocked.tobytes() == np.stack(optimizer.solve_optimal_arrays(*consts)).tobytes()
        # ... and the first and last column of each block, plus a seeded
        # sample, against one-column solves.
        edges = [
            k for start in range(0, count, block) for k in (start, min(start + block, count) - 1)
        ]
        sample = np.random.default_rng(8).choice(count, 48, replace=False).tolist()
        for k in edges + sample:
            one = np.stack(optimizer.solve_optimal_arrays(*(v[k] for v in consts)))
            assert one.tobytes() == blocked[:, k].tobytes(), k


def _draw(rng):
    """A parameter set around the reference point, with a cavity detuning
    for the fixed solve."""
    k1 = rng.uniform(0.1, 0.6)
    return dataclasses.replace(
        P.reference_params(),
        kappa1=k1,
        kappa2=2.0 - k1,
        g=rng.uniform(8.0, 12.0),
        delta_e=rng.uniform(-1.0, -0.2),
        e_eg=rng.uniform(0.005, 0.02),
        b_in=rng.uniform(0.01, 0.03),
        delta_c=rng.uniform(-1.0, 3.0),
    )


def unit_circle_crossings(params, fix_delta_c, j_max=5.0, points=20000):
    """|J| at which a root z of the cancellation quadratic crosses |z| = 1.

    Independent of the solver: the quadratic formula on a dense J grid
    (which skips J = 0), with sign changes of |z| - 1 for the smaller and
    the larger root modulus.
    """
    j = np.linspace(-j_max, j_max, points)
    e = params.e_eg
    omega = math.sqrt(params.kappa_in) * params.b_in
    g_shift = params.g**2 / params.delta_p
    delta_c = (
        params.delta_c if fix_delta_c else g_shift + j**2 / params.delta_e
    )
    m = delta_c - g_shift - 0.5j * params.kappa
    n = delta_c + params.delta_e - 0.5j * params.kappa
    a = e**2 * j**2
    b = e * omega * j * (m + n + params.delta_e)
    c = omega**2 * (j**2 + n * params.delta_e)
    disc = np.sqrt(b * b - 4.0 * a * c)
    mods = np.sort(np.abs([(-b + disc) / (2 * a), (-b - disc) / (2 * a)]), axis=0)
    out = []
    for mod in mods:
        flips = np.flatnonzero(np.diff(np.sign(mod - 1.0)) != 0)
        out += [(abs(j[i]), abs(j[i + 1])) for i in flips if j[i] > 0.0]
    return sorted(out)


class TestCompleteness:
    def test_every_unit_circle_crossing_is_a_root(self):
        draws = [_draw(np.random.default_rng(seed)) for seed in range(20)]
        j, theta, dc = optimizer.solve_optimal_arrays(
            np.array([p.e_eg for p in draws]),
            np.array([math.sqrt(p.kappa_in) * p.b_in for p in draws]),
            np.array([p.g**2 / p.delta_p for p in draws]),
            np.array([p.delta_e for p in draws]),
            np.array([p.kappa for p in draws]),
        )
        for fix_delta_c in (False, True):
            for idx, p in enumerate(draws):
                crossings = unit_circle_crossings(p, fix_delta_c)
                roots = optimizer.find_roots(p, fix_delta_c)
                in_window = [r for r in roots if abs(r.J) <= 5.0]
                assert len(in_window) == len(crossings), (p, crossings, roots)
                for lo, hi in crossings:
                    assert any(lo <= abs(r.J) <= hi for r in in_window), (p, lo, hi)
                assert all(r.residual < 1e-10 for r in roots)
                if fix_delta_c:
                    continue
                # the array path selects the scalar path's first joint root
                assert bool(np.isfinite(j[idx])) == bool(roots)
                if roots:
                    assert j[idx] == pytest.approx(roots[0].J, abs=1e-9)
                    assert theta[idx] == pytest.approx(roots[0].theta, abs=1e-9)
                    assert dc[idx] == pytest.approx(roots[0].delta_c_opt, abs=1e-9)

    def test_equal_drives_lower_the_resultant_degree(self):
        # E = Omega cancels the J^8 term of the fixed-detuning resultant.
        p = dataclasses.replace(
            P.reference_params(), kappa1=1.0, kappa2=1.0, b_in=0.01, e_eg=0.01
        )
        crossings = unit_circle_crossings(p, fix_delta_c=True)
        roots = optimizer.find_roots(p, fix_delta_c=True)
        assert len(roots) == len(crossings) >= 1
        for (lo, hi), r in zip(crossings, roots):
            assert lo <= abs(r.J) <= hi

    # J of every root at the reference point with delta_c = 0, from the
    # independent resultant solve of bench/oracles.cancellation_roots.
    @pytest.mark.parametrize(
        "b_in, fix_delta_c, oracle_j",
        [
            (1e-5, True, [7.64851012e-05, 9.2450254e-04]),
            (1e-5, False, [1.71141224e-04, -4.13171346e-04, 559.017218]),
            pytest.param(
                1e-10,
                False,
                [1.71141234e-09, -4.13171488e-09, 55901699.4],
                marks=pytest.mark.xfail(
                    reason="the resultant's zeros in J^2 span about 1e33, more than "
                    "its companion matrix resolves; needs the scale-free solve of "
                    "ROADMAP item 12"
                ),
            ),
        ],
        ids=["fixed-1e-5", "joint-1e-5", "joint-1e-10"],
    )
    def test_weak_drive_roots_match_the_oracle(self, b_in, fix_delta_c, oracle_j):
        # Each root once: a complex zero far below 1 is not taken as real.
        p = dataclasses.replace(P.reference_params(), b_in=b_in, delta_c=0.0)
        roots = optimizer.find_roots(p, fix_delta_c)
        assert [r.J for r in roots] == pytest.approx(oracle_j, rel=1e-6)


def j_theta_sweep(params, j_range=(-3.0, 3.0), side=201):
    """g2 in both directions over J in ``j_range`` (rows) and theta in
    [-pi, pi] (columns), ``side`` points an axis."""
    spec = sweeps.SweepSpec(
        axis1=sweeps.SweepAxis("J", *j_range, side),
        axis2=sweeps.SweepAxis("theta", -math.pi, math.pi, side),
    )
    return sweeps.run_sweep(spec, params)


class TestScan:
    """(J, theta) maps of g2, drawn by run_sweep with J and theta axes."""

    def test_grid_shapes_and_orientation(self):
        at_zero = dataclasses.replace(P.reference_params(), delta_c=0.0)
        scan = j_theta_sweep(at_zero, side=21)
        assert scan.values1.shape == (21,) and scan.values2.shape == (21,)
        for direction in P.Direction:
            assert scan.stats[direction]["g2"].shape == (21, 21)
            assert scan.valid[direction].shape == (21, 21)
        i, k = 5, 13
        direct = steady_state.steady_stats(
            at_zero, j=float(scan.values1[i]), theta=float(scan.values2[k])
        ).g2
        g2 = scan.stats[P.Direction.FORWARD]["g2"]
        assert g2[i, k] == pytest.approx(direct, rel=1e-12)

    def test_symmetric_cavity_grids_identical(self):
        p = dataclasses.replace(P.reference_params(), kappa1=1.0, kappa2=1.0)
        scan = j_theta_sweep(p, side=31)
        assert np.array_equal(
            scan.stats[P.Direction.FORWARD]["g2"],
            scan.stats[P.Direction.BACKWARD]["g2"],
            equal_nan=True,
        )

    def test_one_way_blockade_band(self):
        # At delta_c = 0, |J| >= 1.5: every backward point is bunched while
        # the forward map reaches deep antibunching.
        at_zero = dataclasses.replace(P.reference_params(), delta_c=0.0)
        scan = j_theta_sweep(at_zero)
        band = np.abs(scan.values1) >= 1.5
        fwd = scan.stats[P.Direction.FORWARD]["g2"][band]
        bwd = scan.stats[P.Direction.BACKWARD]["g2"][band]
        assert bool(np.all(np.isfinite(bwd)))
        assert float(np.min(bwd)) > 1.0
        assert float(np.min(fwd)) < 0.02

    def test_refinement_keeps_minimum_location(self):
        at_zero = dataclasses.replace(P.reference_params(), delta_c=0.0)
        locs = []
        for side in (101, 201):
            scan = j_theta_sweep(at_zero, side=side)
            fwd = scan.stats[P.Direction.FORWARD]["g2"]
            ok = scan.valid[P.Direction.FORWARD] & np.isfinite(fwd)
            masked = np.where(ok, fwd, np.inf)
            i, k = np.unravel_index(int(np.argmin(masked)), masked.shape)
            locs.append((float(scan.values1[i]), float(scan.values2[k])))
        coarse_j = 6.0 / 100
        coarse_th = 2.0 * math.pi / 100
        assert abs(locs[0][0] - locs[1][0]) <= coarse_j + 1e-12
        assert abs(locs[0][1] - locs[1][1]) <= coarse_th + 1e-12


class TestNonreciprocalPoint:
    def test_resonant_target(self):
        base = P.reference_params()
        j, theta, report = optimizer.nonreciprocal_point(base, 0.0)
        assert abs(j) > 1.5
        assert report.delta_c == 0.0
        assert report.g2_forward < 1e-2
        assert report.g2_backward > 1.0
        assert report.contrast > 2.0
        # the point is a true cancellation root of the forward problem
        at_zero = dataclasses.replace(base, delta_c=0.0)
        assert abs(cancellation_polynomial(at_zero, j, theta, 0.0)) < 1e-13

    def test_detuned_target(self):
        base = P.reference_params()
        j, theta, report = optimizer.nonreciprocal_point(base, 2.5)
        assert report.g2_forward < 1e-1
        assert report.g2_backward > 1.0
        assert report.contrast > 2.0

    def test_picks_window_root_with_largest_backward_g2(self):
        p = dataclasses.replace(
            P.reference_params(),
            kappa1=0.282,
            kappa2=1.718,
            g=11.53,
            delta_e=-0.834,
            e_eg=0.0134,
            b_in=0.0256,
        )
        j, theta, report = optimizer.nonreciprocal_point(p, 2.5)
        assert j == pytest.approx(0.47279, abs=1e-5)
        assert theta == pytest.approx(-0.035647, abs=1e-6)
        assert math.isfinite(report.g2_forward)
        assert math.isfinite(report.g2_backward)
        at_target = dataclasses.replace(p, delta_c=2.5)
        window = [
            r for r in optimizer.find_roots(at_target, fix_delta_c=True)
            if abs(r.J) <= 5.0
        ]
        backward = dataclasses.replace(at_target, direction=P.Direction.BACKWARD)
        # A point computes as its one-element grid, so the two paths agree
        # bit for bit.
        assert report.g2_backward == max(
            steady_state.steady_stats(backward, j=r.J, theta=r.theta).g2
            for r in window
        )

    def test_evaluates_each_window_root_once(self, monkeypatch):
        # The ranking pass's backward g2 is the report's: the winner's is not
        # evaluated again.
        p = P.reference_params()
        window = [
            r for r in optimizer.find_roots(p, fix_delta_c=True) if abs(r.J) <= 5.0
        ]
        assert len(window) > 1
        calls = []
        direction_g2 = optimizer._direction_g2
        monkeypatch.setattr(
            optimizer,
            "_direction_g2",
            lambda *args: calls.append(args[1]) or direction_g2(*args),
        )
        optimizer.nonreciprocal_point(p, 0.0)
        assert calls.count(P.Direction.BACKWARD) == len(window)
        assert calls.count(P.Direction.FORWARD) == 1

    # A seeded draw of the blockade-solve benchmark, rounded: no forward root
    # lies in |J| <= 5 at the target, so the point comes from the scan.
    NO_ROOT = dict(
        kappa1=0.5919, kappa2=1.4081, g=8.011, delta_e=-0.7073, e_eg=0.0059, b_in=0.0228
    )
    NO_ROOT_TARGET = -0.7264
    # (J, theta, g2_forward, g2_backward) of the map's point at each J_LIMIT.
    NO_ROOT_POINTS = {
        5.0: (-1.0625, 1.1835950322399544, 0.8548007345977774, 1.0000362585409734),
        1.05: (1.05, 1.4251049674846699, 0.8804495061519452, 1.0001592827128352),
    }

    @pytest.mark.parametrize("j_limit", [5.0, 1.05])
    def test_no_root_target_stays_in_the_bunched_region(self, j_limit, monkeypatch):
        monkeypatch.setattr(optimizer, "J_LIMIT", j_limit)
        p = dataclasses.replace(P.reference_params(), **self.NO_ROOT)
        at_target = dataclasses.replace(p, delta_c=self.NO_ROOT_TARGET)
        roots = optimizer.find_roots(at_target, fix_delta_c=True)
        assert not [r for r in roots if abs(r.J) <= j_limit]
        with warnings.catch_warnings():
            warnings.simplefilter("error", optimizer.NotNonreciprocal)
            j, theta, report = optimizer.nonreciprocal_point(p, self.NO_ROOT_TARGET)
        assert report.g2_forward < 1.0 < report.g2_backward
        assert abs(j) <= j_limit
        assert (report.J, report.theta) == (j, theta)
        # Exact: the maps are sweeps, whose cells compute each point as
        # its one-element grid, as the report's g2 does.
        assert (j, theta, report.g2_forward, report.g2_backward) == self.NO_ROOT_POINTS[j_limit]
        # The finer maps only improve on the best bunched point of the coarse
        # 161 x 161 map.
        scan = j_theta_sweep(at_target, (-j_limit, j_limit), optimizer._SCAN_POINTS)
        fwd = scan.stats[P.Direction.FORWARD]["g2"]
        bunched = (
            scan.valid[P.Direction.FORWARD]
            & scan.valid[P.Direction.BACKWARD]
            & (scan.stats[P.Direction.BACKWARD]["g2"] > 1.0)
        )
        assert report.g2_forward <= np.min(fwd[bunched])

    def test_window_edge_sets_where_the_contrast_peaks(self):
        # The larger-|J| root, the one of larger backward g2, is taken while
        # |J| <= J_LIMIT = 5; just past the edge only the small root is in
        # the window, and it is not one-way.
        ref = P.reference_params()
        with warnings.catch_warnings():
            warnings.simplefilter("error", optimizer.NotNonreciprocal)
            j, _, report = optimizer.nonreciprocal_point(ref, -0.47)
        assert j == pytest.approx(4.99535, abs=1e-5)
        assert report.g2_backward == pytest.approx(54.195, rel=1e-4)
        at_edge = dataclasses.replace(ref, delta_c=-0.48)
        assert abs(optimizer.find_roots(at_edge, fix_delta_c=True)[-1].J) > 5.0
        with pytest.warns(optimizer.NotNonreciprocal):
            j, _, report = optimizer.nonreciprocal_point(ref, -0.48)
        assert j == pytest.approx(0.17629, abs=1e-5)
        assert report.g2_backward == pytest.approx(0.77888, rel=1e-4)

    def test_microwave_off_takes_the_scan(self, monkeypatch):
        # find_roots raises NoRealSolution with e_eg = 0, so the point
        # comes from the maps; it is not one-way.
        p = dataclasses.replace(P.reference_params(), e_eg=0.0)
        with pytest.raises(optimizer.NoRealSolution):
            optimizer.find_roots(p, fix_delta_c=True)
        scans, calls = [], []
        scan = optimizer._scan_forward_g2
        direction_g2 = optimizer._direction_g2
        monkeypatch.setattr(
            optimizer, "_scan_forward_g2", lambda *args: scans.append(args) or scan(*args)
        )
        monkeypatch.setattr(
            optimizer,
            "_direction_g2",
            lambda *args: calls.append(args[1]) or direction_g2(*args),
        )
        with pytest.warns(optimizer.NotNonreciprocal):
            j, theta, report = optimizer.nonreciprocal_point(p, 0.0)
        assert len(scans) == 1
        # The scan's point is ranked as a root is: one g2 a direction.
        assert calls == [P.Direction.BACKWARD, P.Direction.FORWARD]
        assert j == pytest.approx(0.019375, rel=1e-9)
        assert report.g2_forward == pytest.approx(1.0005353018707406, rel=1e-9)
        assert report.g2_backward == pytest.approx(1.000015342849529, rel=1e-9)

    def test_occupation_below_the_floor_has_no_contrast(self):
        # At b_in = 1e-20 the occupations fall below G2_OCCUPATION_FLOOR, so
        # g2 is NaN in both directions and the contrast is NaN too.
        p = dataclasses.replace(P.reference_params(), b_in=1e-20)
        with pytest.warns(optimizer.NotNonreciprocal):
            j, theta, report = optimizer.nonreciprocal_point(p, 0.0)
        stats = steady_state.steady_stats(dataclasses.replace(p, delta_c=0.0), j=j, theta=theta)
        assert stats.p1 + 2.0 * stats.p2 < steady_state.G2_OCCUPATION_FLOOR
        assert math.isnan(report.g2_forward)
        assert math.isnan(report.g2_backward)
        assert math.isnan(report.contrast)

    def test_symmetric_cavity_warns_and_has_no_contrast(self):
        p = dataclasses.replace(P.reference_params(), kappa1=1.0, kappa2=1.0)
        with pytest.warns(optimizer.NotNonreciprocal):
            _, _, report = optimizer.nonreciprocal_point(p, 0.0)
        assert report.contrast == 0.0
        assert report.g2_forward == report.g2_backward
