import cmath
import dataclasses
import math

import numpy as np
import pytest

from cavityblockade import dynamics, optimizer, steady_state, sweeps
from cavityblockade import params as P

SQRT2 = math.sqrt(2.0)

pytestmark = pytest.mark.filterwarnings(
    "ignore::cavityblockade.params.RegimeWarning"
)


def blockade_point():
    base = P.reference_params()
    point = optimizer.solve_optimal(base)
    working = dataclasses.replace(base, delta_c=point.delta_c_opt)
    return base, point, working


class TestEmptyCavity:
    def setup_method(self):
        self.params = dataclasses.replace(
            P.reference_params(), g=0.0, e_he=0.0, e_eg=0.0
        )
        self.eff = P.derive_effective(self.params)

    def test_single_photon_amplitude(self):
        state = steady_state.analytic_amplitudes(self.eff, 0.0)
        # Drive over the loaded-cavity pole: |C1g| = sqrt(kappa1) b_in / |M|.
        expected = self.eff.omega / abs(self.eff.M)
        assert abs(state.c1g) == pytest.approx(expected, rel=1e-12)
        assert abs(state.c1g) == pytest.approx(1.789e-2, rel=1e-3)

    def test_coherent_two_photon_factorization(self):
        state = steady_state.analytic_amplitudes(self.eff, 0.0)
        assert state.c2g == pytest.approx(state.c1g**2 / SQRT2, rel=1e-12)

    def test_g2_close_to_one(self):
        stats = steady_state.steady_stats(self.params)
        assert abs(stats.g2 - 1.0) < 1e-2


class TestPhotonStats:
    def test_zero_state(self):
        state = steady_state.AmplitudeState(0.0, 0.0, 0.0, 0.0, 0.0)
        stats = steady_state.photon_stats(state)
        assert stats.p1 == 0.0 and stats.p2 == 0.0
        assert math.isnan(stats.g2)
        assert stats.norm == 0.0

    def test_no_two_photon_amplitude_means_zero_g2(self):
        state = steady_state.AmplitudeState(1.0, 0.1, 0.02, 0.0, 0.01)
        assert steady_state.photon_stats(state).g2 == 0.0

    def test_occupation_example(self):
        # P1 = 0.01 and P2 = 5e-5 at unit norm: g2 = 2 P2 / (P1 + 2 P2)^2.
        c1g = math.sqrt(0.01)
        c2g = math.sqrt(5e-5)
        c0g = math.sqrt(1.0 - 0.01 - 5e-5)
        state = steady_state.AmplitudeState(c0g, c1g, 0.0, c2g, 0.0)
        stats = steady_state.photon_stats(state)
        assert stats.p1 == pytest.approx(0.01, rel=1e-12)
        assert stats.p2 == pytest.approx(5e-5, rel=1e-12)
        assert stats.g2 == pytest.approx(2 * 5e-5 / 0.0101**2, rel=1e-12)
        assert stats.g2 == pytest.approx(0.9803, abs=1e-4)

    def test_number_conventions(self):
        state = steady_state.AmplitudeState(1.0, 0.2, 0.05, 0.03, 0.04)
        stats = steady_state.photon_stats(state)
        assert stats.n_cavity_paper == pytest.approx(0.2**2, rel=1e-12)
        assert stats.n_cavity_full == pytest.approx(
            0.2**2 + 0.04**2 + 2 * 0.03**2, rel=1e-12
        )

    def test_ray_scale_invariance(self):
        state = steady_state.AmplitudeState(1.0, 0.1 + 0.05j, 0.02j, 0.004, 0.003j)
        ref = steady_state.photon_stats(state)
        for lam in (2.0, 0.5, 1e6, 1e-6, 2.0j, -3.0 + 1.0j):
            scaled = steady_state.AmplitudeState.from_vector(lam * state.as_vector())
            got = steady_state.photon_stats(scaled)
            assert got.g2 == pytest.approx(ref.g2, rel=1e-12)
            assert got.p1 == pytest.approx(ref.p1, rel=1e-12)
            assert got.p2 == pytest.approx(ref.p2, rel=1e-12)

    def test_rejects_non_finite(self):
        state = steady_state.AmplitudeState(1.0, math.nan, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError, match="finite"):
            steady_state.photon_stats(state)

    def test_steady_stats_evaluates_the_statistics_once(self, monkeypatch):
        # Its statistics come from the pass that checks the amplitudes.
        calls = []
        stats = steady_state._stats
        monkeypatch.setattr(
            steady_state, "_stats", lambda *c: calls.append(c) or stats(*c)
        )
        steady_state.steady_stats(P.reference_params(), j=0.3, theta=0.2)
        assert len(calls) == 1


class TestBlockadePoint:
    def test_two_photon_amplitude_cancelled(self):
        base, point, working = blockade_point()
        eff = P.derive_effective(working, j=point.J, theta=point.theta)
        state = steady_state.analytic_amplitudes(eff, base.e_eg)
        assert abs(state.c2g) < 1e-15
        stats = steady_state.photon_stats(state)
        assert stats.g2 < 1e-4

    def test_backward_curve_bunched_at_forward_dip(self):
        base, point, working = blockade_point()
        bwd_base = dataclasses.replace(base, direction=P.Direction.BACKWARD)
        bwd_point = optimizer.solve_optimal(bwd_base)
        at_fwd_dip = dataclasses.replace(bwd_base, delta_c=point.delta_c_opt)
        stats = steady_state.steady_stats(
            at_fwd_dip, j=bwd_point.J, theta=bwd_point.theta
        )
        assert stats.g2 > 1.0

    def test_steady_norm_stays_near_one(self):
        base, point, working = blockade_point()
        for dc in (point.delta_c_opt, 0.0):
            p = dataclasses.replace(working, delta_c=dc)
            eff = P.derive_effective(p, j=point.J, theta=point.theta)
            norm2 = steady_state.analytic_amplitudes(eff, p.e_eg).norm_squared()
            bound = 5.0 * (eff.omega / p.kappa) ** 2 + 5.0 * (p.e_eg / p.kappa) ** 2
            assert abs(1.0 - norm2) <= bound

    # (parameter, coefficient of sigma^2 in the law, quadrature / law - 1 at
    # sigma = 1e-3).  Measured 6.45360 and 6.51390; -4.2715e-6 and
    # -9.3176e-6, and 100.12 and 100.07 times less at sigma = 1e-4.
    NOISE_LAW = [("theta", 6.45360, -4.2715e-6), ("delta_c", 6.51390, -9.3176e-6)]

    @pytest.mark.parametrize("name, coefficient, diff", NOISE_LAW)
    def test_small_noise_law_matches_the_quadrature(self, name, coefficient, diff):
        # A Gaussian spread sigma of one parameter fills the cancelled c2g:
        # g2 = 2 sigma^2 |dc2g/dx|^2 N/(|c1g|^2 + |c1e|^2)^2 + O(sigma^4),
        # with N the state norm, against 2<P2>/<P1 + 2 P2>^2 over 31
        # Gauss-Hermite nodes.
        _, point, working = blockade_point()

        def at(x):
            if name == "theta":
                return working, point.theta + x
            return dataclasses.replace(working, delta_c=point.delta_c_opt + x), point.theta

        def amplitudes(x):
            p, theta = at(x)
            eff = P.derive_effective(p, j=point.J, theta=theta)
            return steady_state.analytic_amplitudes(eff, p.e_eg)

        h = 1e-6
        slope = abs(amplitudes(h).c2g - amplitudes(-h).c2g) / (2.0 * h)
        s = amplitudes(0.0)
        law = 2.0 * slope**2 * s.norm_squared() / (abs(s.c1g) ** 2 + abs(s.c1e) ** 2) ** 2
        assert law == pytest.approx(coefficient, rel=1e-5)
        # The |c1g|^4 normalisation drops P1's |c1e|^2 and N: 1.48e-3 off.
        assert abs(2.0 * slope**2 / abs(s.c1g) ** 4 / law - 1.0) > 1e-3

        nodes, weights = np.polynomial.hermite_e.hermegauss(31)
        weights = weights / math.sqrt(2.0 * math.pi)
        diffs = []
        for sigma in (1e-3, 1e-4):
            p1 = p2 = 0.0
            for x, w in zip(nodes, weights):
                p, theta = at(sigma * x)
                stats = steady_state.steady_stats(p, j=point.J, theta=theta)
                p1, p2 = p1 + w * stats.p1, p2 + w * stats.p2
            g2 = 2.0 * p2 / (p1 + 2.0 * p2) ** 2
            diffs.append(g2 / (law * sigma**2) - 1.0)
        assert abs(diffs[0]) < 1e-3
        assert diffs[0] == pytest.approx(diff, rel=1e-3)
        assert diffs[0] / diffs[1] == pytest.approx(100.0, rel=1e-2)

    def test_fixed_point_residual_scales_as_drive_cubed(self):
        base = P.reference_params()
        rng = np.random.default_rng(2024)
        for _ in range(50):
            k1 = rng.uniform(0.1, 1.9)
            de = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
            direction = (
                P.Direction.FORWARD if rng.uniform() < 0.5 else P.Direction.BACKWARD
            )
            p = dataclasses.replace(
                base,
                kappa1=k1,
                kappa2=2.0 - k1,
                delta_c=rng.uniform(-4.0, 4.0),
                delta_e=de,
                b_in=rng.uniform(0.005, 0.02),
                e_eg=rng.uniform(0.002, 0.01),
                direction=direction,
            )
            eff = P.derive_effective(
                p, j=rng.uniform(-3.0, 3.0), theta=rng.uniform(-math.pi, math.pi)
            )
            state = steady_state.analytic_amplitudes(eff, p.e_eg)
            deriv = dynamics.generator_from_effective(eff, p.e_eg) @ state.as_vector()
            residual = float(np.max(np.abs(deriv)))
            bound = 10.0 * (max(eff.omega, p.e_eg) / p.kappa) ** 3
            assert residual <= bound


class TestClosedForms:
    def test_microwave_off_reduction(self):
        # With e_eg = 0 the one-excitation pair collapses to two ratios with
        # the shared denominator J^2 - M delta_e.
        rng = np.random.default_rng(99)
        for _ in range(100):
            om = rng.uniform(0.001, 0.05)
            m = complex(rng.uniform(-3, 3), -rng.uniform(0.2, 2.0))
            de = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 3.0)
            j = rng.uniform(-3.0, 3.0)
            th = rng.uniform(-math.pi, math.pi)
            n = complex(rng.uniform(-3, 3), m.imag)
            c, valid = steady_state.amplitude_arrays(om, m, n, de, j, th, 0.0)
            assert bool(valid)
            d1 = j**2 - m * de
            assert complex(c[1]) == pytest.approx(om * de / d1, rel=1e-12)
            assert complex(c[2]) == pytest.approx(
                om * j * cmath.exp(1j * th) / d1, rel=1e-12
            )

    def test_swap_symmetry_of_stats(self):
        base, point, working = blockade_point()
        a = steady_state.steady_stats(working, j=point.J, theta=point.theta)
        b = steady_state.steady_stats(
            P.mirror_swap(working), j=point.J, theta=point.theta
        )
        assert a == b

    def test_encoded_drive_matches_override(self):
        base, point, working = blockade_point()
        a = steady_state.steady_stats(P.with_coupling(working, point.J, point.theta))
        b = steady_state.steady_stats(working, j=point.J, theta=point.theta)
        assert a.p1 == pytest.approx(b.p1, rel=1e-10)
        assert a.g2 == pytest.approx(b.g2, rel=1e-6) or (
            a.g2 < 1e-20 and b.g2 < 1e-20
        )


class TestSingularities:
    def test_first_denominator(self):
        eff = P.EffectiveParams(
            delta_e=0.0, G=0.0, J=0.0, theta=0.0, omega=0.01,
            M=complex(0.3, -0.5), N=complex(0.3, -0.5),
        )
        with pytest.raises(steady_state.SingularDenominator) as err:
            steady_state.analytic_amplitudes(eff, 0.01)
        assert err.value.which == "J^2 - M*delta_e"
        assert err.value.magnitude == 0.0

    def test_second_denominator(self):
        # Only reachable with a hand-built real M; physical parameters keep
        # Im(M) = -kappa/2 < 0 and the product away from J^2.
        eff = P.EffectiveParams(
            delta_e=0.0, G=0.0, J=1.0, theta=0.0, omega=0.01,
            M=complex(1.0, 0.0), N=complex(1.0, 0.0),
        )
        with pytest.raises(steady_state.SingularDenominator) as err:
            steady_state.analytic_amplitudes(eff, 0.01)
        assert err.value.which == "J^2 - M*N"

    def test_overflowing_coupling(self):
        # J**2 overflows to inf, so neither denominator is finite: the point
        # is singular, as the grid path marks it, and numpy does not warn.
        with pytest.raises(steady_state.SingularDenominator) as err:
            steady_state.steady_stats(P.reference_params(), j=1e200)
        assert err.value.which == "J^2 - M*delta_e"
        assert math.isinf(err.value.magnitude)
        assert str(err.value) == (
            "steady-state denominator J^2 - M*delta_e is not finite (magnitude inf)"
        )

    def test_overflowing_photon_number(self):
        # At b_in = 3.1e77 the norm is 1.2e308, but n_full counts |c2g|^2
        # twice and overflows: the point has no statistics on either path.
        p = dataclasses.replace(P.reference_params(), b_in=3.1e77)
        eff = P.derive_effective(p)
        inputs = eff.omega, eff.M, eff.N, eff.delta_e, eff.J, eff.theta, p.e_eg
        c1g, c0e, c2g, c1e, regular = (
            a.item() for a in steady_state._amplitudes(*inputs)
        )
        state = steady_state.AmplitudeState(1 + 0j, c1g, c0e, c2g, c1e)
        assert regular and math.isfinite(state.norm_squared())
        with pytest.raises(P.NumericalFailure, match="finite occupations"):
            steady_state.analytic_amplitudes(eff, p.e_eg)
        with pytest.raises(P.NumericalFailure, match="finite occupations"):
            steady_state.steady_stats(p)
        result = detuning_sweep(p, -1.0, 1.0, 3)
        assert result.values1[1] == p.delta_c
        assert not result.valid[P.Direction.FORWARD][1]

    def test_amplitude_arrays_share_the_evaluator_rule(self):
        # The reference point at b_in = 1e200 and J = 0.5: its denominators
        # are regular but c2g overflows.  amplitude_arrays, the sweep's
        # evaluator and the scalar path all call it invalid.
        p = dataclasses.replace(P.reference_params(), b_in=1e200)
        consts = P.effective_arrays(p, {"J": 0.5})
        args = [consts[k] for k in P._AMPLITUDE_INPUTS]
        c, valid = steady_state.amplitude_arrays(*args)
        assert not valid and not steady_state._stats_from_parameters(*args)[1]
        assert np.all(np.isnan(c.real))
        with pytest.raises(P.NumericalFailure) as err:
            steady_state.analytic_amplitudes(P.derive_effective(p, j=0.5), p.e_eg)
        assert not isinstance(err.value, steady_state.SingularDenominator)
        assert str(err.value) == (
            "photon statistics need finite occupations: an amplitude is not "
            "finite or an occupation overflows"
        )

    def test_array_path_masks_instead_of_raising(self):
        # The scalar path raises exactly where the grid marks a point
        # invalid: a SingularDenominator where a denominator is not regular,
        # the NumericalFailure of photon_stats where only the occupations
        # are not finite.  Elsewhere, on finite inputs, it gives the grid's
        # finite amplitudes.  The seeded grid holds boundary and non-finite
        # points.
        hand_built = np.broadcast_arrays(
            0.01,
            np.array([complex(0.3, -0.5), complex(0.3, -0.5)]),
            complex(0.3, -0.5),
            0.0,
            np.array([0.0, 1.0]),
            0.0,
            0.01,
        )
        assert steady_state.amplitude_arrays(*hand_built)[1].tolist() == [False, True]
        for args in (hand_built, np.broadcast_arrays(*fused_case(11))):
            with np.errstate(all="ignore"):
                c, valid = steady_state.amplitude_arrays(*args)
                marked = steady_state._stats_from_parameters(*args)[1]
                regular = steady_state._amplitudes(*args)[4]
            assert marked.tolist() == valid.tolist()
            for point in np.ndindex(valid.shape):
                omega, m, n, delta_e, j, theta, e_eg = (a[point].item() for a in args)
                eff = P.EffectiveParams(
                    delta_e=delta_e, G=0.0, J=j, theta=theta, omega=omega, M=m, N=n
                )
                if not valid[point]:
                    assert np.all(np.isnan(c[point].real))
                    if regular[point]:
                        failure = pytest.raises(P.NumericalFailure, match="finite occupations")
                    else:
                        failure = pytest.raises(steady_state.SingularDenominator)
                    with np.errstate(all="ignore"), failure:
                        steady_state.analytic_amplitudes(eff, e_eg)
                    continue
                state = steady_state.analytic_amplitudes(eff, e_eg)
                vector = state.as_vector()
                if all(math.isfinite(abs(a[point])) for a in args):
                    assert np.all(np.isfinite(vector.view(float)))
                    assert np.allclose(vector, c[point], rtol=1e-12, atol=0.0)


def detuning_sweep(params, lo, hi, count):
    """Both directions along a delta_c grid, by the sweep's array path."""
    spec = sweeps.SweepSpec(axis1=sweeps.SweepAxis("delta_c", lo, hi, count))
    return sweeps.run_sweep(spec, params)


class TestDetuningSweep:
    def test_symmetric_cavity_directions_agree(self):
        p = dataclasses.replace(
            P.reference_params(), kappa1=1.0, kappa2=1.0, e_he=2.0
        )
        out = detuning_sweep(p, -1.0, 1.0, 3)
        fwd = P.Direction.FORWARD
        bwd = P.Direction.BACKWARD
        assert out.valid[fwd].tolist() == out.valid[bwd].tolist() == [True] * 3
        for name, values in out.stats[fwd].items():
            assert np.array_equal(values, out.stats[bwd][name]), name

    def test_forward_dip_location_on_grid(self):
        base, point, working = blockade_point()
        encoded = P.with_coupling(base, point.J, point.theta)
        out = detuning_sweep(encoded, -4.0, 2.0, 601)
        fwd = P.Direction.FORWARD
        ok = out.valid[fwd]
        g2 = np.where(ok, out.stats[fwd]["g2"], np.nan)
        n_paper = np.where(ok, out.stats[fwd]["n_paper"], np.nan)
        grid = out.values1
        step = grid[1] - grid[0]
        dc_min = grid[int(np.nanargmin(g2))]
        dc_max = grid[int(np.nanargmax(n_paper))]
        assert abs(dc_min - point.delta_c_opt) <= step + 1e-12
        assert abs(dc_max - point.delta_c_opt) <= step + 1e-12

    def test_degenerate_atom_is_reported_none(self):
        # J = 0 and delta_e = 0 make J^2 - M delta_e vanish at every
        # detuning: the array path flags each point invalid with NaN
        # statistics where the scalar path raises.
        p = dataclasses.replace(P.reference_params(), delta_e=0.0, e_he=0.0)
        out = detuning_sweep(p, 0.0, 0.5, 2)
        for direction in out.spec.directions:
            assert not out.valid[direction].any()
            for values in out.stats[direction].values():
                assert np.isnan(values).all()
            for dc in out.values1:
                point = dataclasses.replace(p, delta_c=float(dc), direction=direction)
                with pytest.raises(steady_state.SingularDenominator):
                    steady_state.steady_stats(point)

    def test_preserves_grid_order(self):
        # Entry i of every statistic belongs to grid value i, with J and
        # theta derived from the parameters rather than overridden.
        p = dataclasses.replace(P.reference_params(), direction=P.Direction.BACKWARD)
        out = detuning_sweep(p, -0.2, 1.7, 3)
        grid = out.stats[P.Direction.BACKWARD]
        for i, dc in enumerate(out.values1):
            stats = steady_state.steady_stats(dataclasses.replace(p, delta_c=float(dc)))
            assert grid["g2"][i] == pytest.approx(stats.g2, rel=1e-12)
            assert grid["p1"][i] == pytest.approx(stats.p1, rel=1e-12)


def fused_case(seed, shape=(40, 50)):
    """Seeded parameter grids with singular, sub-floor and NaN points."""
    rng = np.random.default_rng(seed)
    omega = rng.uniform(0.0, 0.05, shape)
    m = rng.uniform(-3.0, 3.0, shape) - 1j * rng.uniform(0.2, 2.0, shape)
    n = rng.uniform(-3.0, 3.0, shape) + 1j * m.imag
    delta_e = rng.uniform(-3.0, 3.0, shape)
    j = rng.uniform(-3.0, 3.0, shape)
    theta = rng.uniform(-math.pi, math.pi, shape)
    e_eg = rng.uniform(0.0, 0.02, shape)
    flat = [a.reshape(-1) for a in (omega, m, n, delta_e, j, theta, e_eg)]
    omega, m, n, delta_e, j, theta, e_eg = flat
    pick = rng.permutation(omega.size)
    # |J^2 - M delta_e| <= SINGULAR_TOL, the boundary value included.
    s1 = pick[:30]
    j[s1] = 0.0
    delta_e[s1] = rng.uniform(-1.0, 1.0, s1.size) * steady_state.SINGULAR_TOL / 3.0
    j[pick[30]], m[pick[30]], delta_e[pick[30]] = 0.0, 1.0, -steady_state.SINGULAR_TOL
    # |J^2 - M N| <= SINGULAR_TOL, reachable with a real M.
    s2 = pick[31:50]
    m[s2] = rng.uniform(0.5, 2.0, s2.size)
    n[s2] = j[s2] ** 2 / m[s2]
    # Occupation below G2_OCCUPATION_FLOOR: no drive, or a vanishing one.
    omega[pick[50:70]] = 0.0
    e_eg[pick[50:70]] = 0.0
    omega[pick[70:90]] = 1e-20
    e_eg[pick[70:90]] = 0.0
    # Non-finite inputs in every argument.
    bad = pick[90:160].reshape(7, 10)
    for values, rows in zip((omega, m, n, delta_e, j, theta, e_eg), bad):
        values[rows[:5]] = math.nan
        values[rows[5:]] = math.inf
    return [a.reshape(shape) for a in (omega, m, n, delta_e, j, theta, e_eg)]


class TestFusedEvaluator:
    """The sweep's one-pass evaluator against the two-step public path."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_bit_identical_to_stats_of_amplitudes(self, seed):
        args = fused_case(seed)
        with np.errstate(all="ignore"):
            c, valid = steady_state.amplitude_arrays(*args)
            want = steady_state.stats_arrays(c)
            got, got_valid = steady_state._stats_from_parameters(*args)
            regular = steady_state._amplitudes(*args)[4]
        # One rule: where the denominators are regular, the occupations
        # decide.
        assert got_valid.tolist() == valid.tolist()
        assert set(got) == set(want)
        for name in want:
            assert got[name].shape == want[name].shape, name
            # Bits, NaN payloads and signed zeros included.
            assert got[name].tobytes() == want[name].tobytes(), name
        # The grid really holds each kind of point.
        assert 40 <= (~regular).sum() < valid.size
        assert (regular & ~valid).any()
        assert np.isnan(want["g2"][got_valid]).any()
        assert (want["g2"][got_valid] >= 0.0).any()
        for name in want:
            assert np.isnan(got[name][~got_valid]).all(), name


def full_broadcast_stats(omega, m, n, delta_e, j, theta, e_eg):
    """The evaluator as it was before it stopped broadcasting up front:
    every input expanded to the full grid first, then the same operations,
    and each statistic masked by one ``np.where``.  A denominator that is
    not finite is singular, and a point whose norm or photon number is not
    finite is invalid, as they are in the evaluator.  Returns the statistics,
    ``valid``, the two denominators and where they are regular."""
    omega, m, n, delta_e, j, theta, e_eg = np.broadcast_arrays(
        np.asarray(omega, dtype=float),
        np.asarray(m, dtype=complex),
        np.asarray(n, dtype=complex),
        np.asarray(delta_e, dtype=float),
        np.asarray(j, dtype=float),
        np.asarray(theta, dtype=float),
        np.asarray(e_eg, dtype=float),
    )
    phase_minus = np.exp(-1j * theta)
    phase_plus = np.conj(phase_minus)
    d1 = j**2 - m * delta_e
    d2 = j**2 - m * n
    regular = (
        np.isfinite(d1)
        & np.isfinite(d2)
        & (np.abs(d1) > steady_state.SINGULAR_TOL)
        & (np.abs(d2) > steady_state.SINGULAR_TOL)
    )
    safe1 = np.where(regular, d1, 1.0)
    safe2 = np.where(regular, d2, 1.0)
    c1g = (e_eg * j * phase_minus + omega * delta_e) / safe1
    c0e = (e_eg * m + omega * j * phase_plus) / safe1
    c2g = (
        (e_eg * j * phase_minus + omega * n) * c1g + omega * j * phase_minus * c0e
    ) / (SQRT2 * safe2)
    c1e = ((e_eg * m + omega * j * phase_plus) * c1g + omega * m * c0e) / safe2
    p1g = np.abs(c1g) ** 2
    p2g = np.abs(c2g) ** 2
    p1e = np.abs(c1e) ** 2
    norm = 1.0 + p1g + np.abs(c0e) ** 2 + p2g + p1e
    p1 = (p1g + p1e) / norm
    p2 = p2g / norm
    occupation = p1 + 2.0 * p2
    g2 = np.where(
        occupation >= steady_state.G2_OCCUPATION_FLOOR,
        2.0 * p2 / occupation**2,
        np.nan,
    )
    stats = {
        "p1": p1,
        "p2": p2,
        "g2": g2,
        "n_paper": p1g,
        "n_full": p1g + p1e + 2.0 * p2g,
        "norm": norm,
    }
    valid = regular & np.isfinite(norm) & np.isfinite(stats["n_full"])
    masked = {k: np.where(valid, v, np.nan) for k, v in stats.items()}
    return masked, valid, d1, d2, regular


#: Shapes of the seven inputs (omega, m, n, delta_e, j, theta, e_eg) on an
#: (N, M) grid: "s" a scalar, "r" an (N, 1) column, "c" a (1, M) row, "f"
#: the full grid.  Most layouts put J and delta_e, J and N, omega and e_eg
#: on crossing axes, so singular and undriven points occur where they meet.
MIXED_LAYOUTS = ("rsccrcc", "cfrrcsr", "frrffrf", "rccsrrc", "ssrrcss", "rcrcrcr", "sssssss")


def mixed_case(seed, layout, shape=(23, 17)):
    """Seeded inputs of the given layout, with J = 0, delta_e ~ 0, N = 0,
    omega = 0, e_eg = 0 and NaN/+-inf entries on some of their own rows
    or columns; scalars are drawn plainly."""
    rng = np.random.default_rng(seed)
    dims = {"s": (), "r": (shape[0], 1), "c": (1, shape[1]), "f": shape}
    draws = {
        "omega": lambda s: rng.uniform(0.0, 0.05, s),
        "m": lambda s: rng.uniform(-3.0, 3.0, s) - 1j * rng.uniform(0.2, 2.0, s),
        "n": lambda s: rng.uniform(-3.0, 3.0, s) - 1j * rng.uniform(0.2, 2.0, s),
        "delta_e": lambda s: rng.uniform(-3.0, 3.0, s),
        "j": lambda s: rng.uniform(-3.0, 3.0, s),
        "theta": lambda s: rng.uniform(-math.pi, math.pi, s),
        "e_eg": lambda s: rng.uniform(0.0, 0.02, s),
    }
    special = {
        "omega": 0.0,
        "e_eg": 0.0,
        "j": 0.0,
        "n": 0.0,
        "delta_e": steady_state.SINGULAR_TOL / 3.0,
    }
    args = []
    for (name, draw), key in zip(draws.items(), layout):
        shp = dims[key]
        a = draw(shp)
        if a.ndim:
            flat = a.reshape(-1)
            pick = rng.permutation(flat.size)
            if name in special:
                flat[pick[: max(1, flat.size // 4)]] = special[name]
            flat[pick[-1]] = math.nan
            flat[pick[-2]] = math.inf
            flat[pick[-3]] = -math.inf
        else:
            a = a.item()
        args.append(a)
    return args


class TestMixedShapeEvaluator:
    """Inputs that vary along different axes are combined only where they
    meet; the statistics must be those of the full-grid evaluation."""

    @pytest.mark.parametrize("layout", MIXED_LAYOUTS)
    @pytest.mark.parametrize("seed", [21, 22])
    def test_bit_identical_to_full_broadcast(self, seed, layout):
        args = mixed_case(seed, layout)
        with np.errstate(all="ignore"):
            want, valid, _, _, regular = full_broadcast_stats(*args)
            got, got_valid = steady_state._stats_from_parameters(*args)
            c, amp_valid = steady_state.amplitude_arrays(*args)
        assert got_valid.shape == valid.shape == c.shape[:-1]
        assert got_valid.tolist() == valid.tolist()
        # amplitude_arrays applies the same rule.
        assert amp_valid.tolist() == valid.tolist()
        for name in want:
            assert got[name].shape == want[name].shape, name
            # Bits, NaN payloads and signed zeros included.
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_layouts_hold_every_kind_of_point(self):
        kinds = set()
        for layout in MIXED_LAYOUTS:
            for seed in (21, 22):
                args = mixed_case(seed, layout)
                with np.errstate(all="ignore"):
                    want, valid, d1, d2, regular = full_broadcast_stats(*args)
                    occupation = want["p1"] + 2.0 * want["p2"]
                tol = steady_state.SINGULAR_TOL
                kinds |= {
                    kind
                    for kind, hit in [
                        ("d1", (np.abs(d1) <= tol).any()),
                        ("d2", ((np.abs(d2) <= tol) & (np.abs(d1) > tol)).any()),
                        ("floor", (valid & (occupation < steady_state.G2_OCCUPATION_FLOOR)).any()),
                        ("g2", (valid & np.isfinite(want["g2"])).any()),
                        ("nonfinite", (regular & ~valid).any()),
                    ]
                    if hit
                }
        assert kinds == {"d1", "d2", "floor", "g2", "nonfinite"}

    def test_written_into_rows_of_a_larger_grid(self):
        # Inputs that vary along the rows only fill every column of ``out``.
        rng = np.random.default_rng(5)
        j = rng.uniform(-3.0, 3.0, (9, 1))
        m = rng.uniform(-3.0, 3.0, (9, 1)) - 0.5j
        args = (0.02, m, m + 0.3, -0.5, j, 0.4, 0.01)
        out = {name: np.full((9, 4), -1.0) for name in steady_state._STAT_NAMES}
        stats, valid = steady_state._stats_from_parameters(*args, out=out)
        assert stats is out
        column, _ = steady_state._stats_from_parameters(*args)
        for name in out:
            assert column[name].shape == (9, 1)
            for k in range(4):
                assert out[name][:, k].tobytes() == column[name][:, 0].tobytes()
