import cmath
import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import expm

from cavityblockade import dynamics, optimizer, steady_state
from cavityblockade import params as P

SQRT2 = math.sqrt(2.0)

# The reference preset sits exactly on the |delta_p/g| >= 10 boundary and
# warns; that is expected and not what these tests are about.
pytestmark = pytest.mark.filterwarnings(
    "ignore::cavityblockade.params.RegimeWarning"
)

#: Tiny steady tolerance that disables early stopping without tripping
#: validation, so trajectories run to exactly t_max.
NEVER_STEADY = 1e-300


def make_eff(delta_c, delta_e, G, J, theta, omega, kappa=1.0):
    return P.EffectiveParams(
        delta_e=delta_e,
        G=G,
        J=J,
        theta=theta,
        omega=omega,
        M=complex(delta_c - G, -0.5 * kappa),
        N=complex(delta_c + delta_e, -0.5 * kappa),
    )


def dense_generator(eff, e_eg, hold_c0g=True):
    """Independent 5x5 assembly of the amplitude equations of motion."""
    om = eff.omega
    jm = eff.J * cmath.exp(-1j * eff.theta)
    jp = eff.J * cmath.exp(1j * eff.theta)
    top = [0.0, om, e_eg, 0.0, 0.0] if not hold_c0g else [0.0] * 5
    h = np.array(
        [
            top,
            [om, eff.M, -jm, SQRT2 * om, e_eg],
            [e_eg, -jp, eff.delta_e, 0.0, om],
            [0.0, SQRT2 * om, 0.0, 2.0 * eff.M, -SQRT2 * jm],
            [0.0, e_eg, om, -SQRT2 * jp, eff.N],
        ],
        dtype=complex,
    )
    return -1j * h


def random_state(rng):
    vec = rng.normal(size=5) + 1j * rng.normal(size=5)
    return dynamics.AmplitudeState.from_vector(vec)


def plain_evolve(initial, eff, e_eg, cfg):
    """Reference: ``state = step @ state`` one step at a time, with the
    per-step finite check (the modulus of every amplitude) and steady test
    of ``evolve``.

    Returns (states, outcome, k) with outcome "steady", "nonfinite" or
    "t_max" and k the step it ended on.
    """
    step = dynamics.rk4_propagator(
        dynamics.generator_from_effective(eff, e_eg, cfg.hold_c0g), cfg.dt
    )
    n_steps = math.ceil(cfg.t_max / cfg.dt - 1e-12)
    w = cfg.window_steps
    states = [initial.as_vector()]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            state = step @ states[-1]
            states.append(state)
            if not np.all(np.isfinite(np.abs(state))):
                return np.array(states), "nonfinite", k
            if k >= w:
                ratio = np.abs(state - states[k - w]) / (np.abs(state) + 1e-12)
                if np.max(ratio) < cfg.ss_tol:
                    return np.array(states), "steady", k
    return np.array(states), "t_max", n_steps


def plain_steady_rk4(effs, e_eg, cfg):
    """Reference: each set advanced one window at a time by its own window
    map, with the finite check (the modulus of every amplitude), the steady
    test and the stop rule of ``steady_rk4``.

    Returns (states, steady, windows), windows the number of windows run.
    """
    windows = [
        np.linalg.matrix_power(
            dynamics.rk4_propagator(
                dynamics.generator_from_effective(e, e_eg, cfg.hold_c0g), cfg.dt
            ),
            cfg.window_steps,
        )
        for e in effs
    ]
    n_windows = math.ceil(cfg.t_max / (cfg.window_steps * cfg.dt) - 1e-12)
    states = prev = [dynamics.vacuum_state().as_vector() for _ in effs]
    steady = np.zeros(len(effs), dtype=bool)
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(1, n_windows + 1):
            states = [window @ state for window, state in zip(windows, states)]
            bad = [k for k, state in enumerate(states) if not np.all(np.isfinite(np.abs(state)))]
            if bad:
                raise dynamics.NonFiniteState(
                    f"non-finite amplitudes for parameter sets {bad}; reduce dt"
                )
            for k, state in enumerate(states):
                ratio = np.abs(state - prev[k]) / (np.abs(state) + 1e-12)
                steady[k] |= np.max(ratio) < cfg.ss_tol
            prev = states
            if steady.all():
                break
    return np.array(states), steady, done


def blockade_point():
    base = P.reference_params()
    point = optimizer.solve_optimal(base)
    working = dataclasses.replace(base, delta_c=point.delta_c_opt)
    return base, point, working


def time_domain_batch():
    """The benchmark's time-domain batch: the blockade point, which never
    passes the steady test, and 31 seeded points, some of which do."""
    base, point, working = blockade_point()
    effs = [P.derive_effective(working, j=point.J, theta=point.theta)]
    rng = np.random.default_rng(1)
    for _ in range(31):
        k1 = rng.uniform(0.1, 0.6)
        p = dataclasses.replace(
            base,
            kappa1=k1,
            kappa2=2.0 - k1,
            delta_c=rng.uniform(-2.0, 3.0),
            delta_e=rng.uniform(-1.0, -0.2),
        )
        j, theta = rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi)
        effs.append(P.derive_effective(p, j=j, theta=theta))
    return base, effs


def rhs(state, eff, e_eg, hold_c0g=True):
    """dC/dt of an amplitude state: the generator applied to its vector."""
    return dynamics.generator_from_effective(eff, e_eg, hold_c0g) @ state.as_vector()


class TestRhs:
    """The right-hand side of the amplitude equations, from ``generator``."""

    def test_vacuum_is_fixed_point_without_drives(self):
        eff = make_eff(0.3, -0.5, 1.0, 0.27, 0.4, omega=0.0)
        d = rhs(dynamics.vacuum_state(), eff, e_eg=0.0)
        assert d.tolist() == [0.0] * 5

    def test_first_order_seeding_from_vacuum(self):
        eff = make_eff(0.3, -0.5, 1.0, 0.27, 0.4, omega=0.008)
        d_c0g, d_c1g, d_c0e, d_c2g, d_c1e = rhs(dynamics.vacuum_state(), eff, e_eg=0.01)
        assert d_c1g == -1j * 0.008
        assert d_c0e == -1j * 0.01
        assert d_c2g == 0.0 and d_c1e == 0.0 and d_c0g == 0.0

    @pytest.mark.parametrize("hold", [True, False])
    def test_matches_independent_dense_matrix(self, hold):
        rng = np.random.default_rng(42)
        for _ in range(50):
            dc, de, G, J, th = rng.uniform(-3.0, 3.0, size=5)
            om, e_eg = rng.uniform(0.0, 0.5, size=2)
            eff = make_eff(dc, de, G, J, th, omega=om)
            state = random_state(rng)
            got = rhs(state, eff, e_eg, hold_c0g=hold)
            want = dense_generator(eff, e_eg, hold) @ state.as_vector()
            assert np.allclose(got, want, rtol=0.0, atol=1e-13)

    def test_matches_generator_matrix(self):
        # One batched generator over a stack of parameter sets gives, set by
        # set, the matrix of the scalar call.
        rng = np.random.default_rng(3)
        effs = [
            make_eff(*rng.uniform(-3.0, 3.0, size=5), omega=rng.uniform(0.0, 0.1))
            for _ in range(6)
        ]
        states = np.array([random_state(rng).as_vector() for _ in effs])
        for hold in (True, False):
            stacked = dynamics.generator(
                [e.omega for e in effs],
                [e.M for e in effs],
                [e.N for e in effs],
                [e.delta_e for e in effs],
                [e.J for e in effs],
                [e.theta for e in effs],
                0.02,
                hold,
            )
            assert stacked.shape == (len(effs), 5, 5)
            for k, eff in enumerate(effs):
                a = dynamics.generator_from_effective(eff, 0.02, hold)
                assert np.array_equal(stacked[k], a)
                got = rhs(dynamics.AmplitudeState.from_vector(states[k]), eff, 0.02, hold)
                assert np.allclose(got, a @ states[k], rtol=0.0, atol=1e-14)

    def test_hold_flag_controls_ground_backaction(self):
        eff = make_eff(0.5, -0.5, 0.0, 0.3, 0.0, omega=0.01)
        state = dynamics.AmplitudeState(
            c0g=1.0, c1g=0.2j, c0e=0.1, c2g=0.0, c1e=0.0
        )
        held = rhs(state, eff, 0.02, hold_c0g=True)
        free = rhs(state, eff, 0.02, hold_c0g=False)
        assert held[0] == 0.0
        assert free[0] == -1j * (0.01 * 0.2j + 0.02 * 0.1)
        assert np.array_equal(held[1:], free[1:])

    def test_sign_flip_symmetry(self):
        # (J, theta) and (-J, theta + pi) give the same coupling J e^{-i theta}.
        rng = np.random.default_rng(8)
        state = random_state(rng)
        a = make_eff(0.7, -0.5, 1.0, 1.3, 0.4, omega=0.02)
        b = make_eff(0.7, -0.5, 1.0, -1.3, 0.4 + math.pi, omega=0.02)
        da = rhs(state, a, 0.01)
        db = rhs(state, b, 0.01)
        assert np.allclose(da, db, rtol=1e-12, atol=1e-13)


class TestPropagator:
    def test_rk4_step_is_quartic_taylor(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        dt = 0.01
        want = np.eye(5, dtype=complex)
        power = np.eye(5, dtype=complex)
        for k in range(1, 5):
            power = power @ (dt * a)
            want = want + power / math.factorial(k)
        got = dynamics.rk4_propagator(a, dt)
        assert np.allclose(got, want, rtol=1e-13, atol=1e-16)

    def test_global_fourth_order_convergence(self):
        eff = make_eff(0.0, -0.5, 1.0, 0.5, 0.3, omega=0.008944)
        a = dynamics.generator_from_effective(eff, 0.01)
        horizon = 10.0
        exact = expm(a * horizon) @ dynamics.vacuum_state().as_vector()
        errors = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            cfg = dynamics.IntegratorConfig(
                dt=dt, t_max=horizon, ss_tol=NEVER_STEADY
            )
            traj = dynamics.evolve(dynamics.vacuum_state(), eff, 0.01, cfg)
            assert traj.times[-1] == pytest.approx(horizon, abs=1e-9)
            errors.append(
                float(np.linalg.norm(traj.final.as_vector() - exact))
            )
        for coarse, fine in zip(errors, errors[1:]):
            ratio = coarse / fine
            assert 8.0 < ratio < 32.0, f"order ratio {ratio} outside [8, 32]"


class TestEvolve:
    def test_undriven_vacuum_stays_put(self):
        eff = make_eff(0.3, -0.5, 1.0, 0.4, 0.1, omega=0.0)
        traj = dynamics.evolve(dynamics.vacuum_state(), eff, 0.0)
        assert traj.steady
        assert len(traj) == dynamics.IntegratorConfig().window_steps + 1
        assert np.array_equal(traj.amplitudes[-1], traj.amplitudes[0])

    def test_blockade_point_matches_analytic(self):
        base, point, working = blockade_point()
        eff = P.derive_effective(working, j=point.J, theta=point.theta)
        analytic = steady_state.analytic_amplitudes(eff, base.e_eg)
        cfg = dynamics.IntegratorConfig(dt=1e-3, t_max=800.0)
        traj = dynamics.evolve(dynamics.vacuum_state(), eff, base.e_eg, cfg)
        assert traj.steady
        final = traj.final
        assert abs(abs(final.c1g) - abs(analytic.c1g)) < 1e-3 * abs(analytic.c1g)
        # The analytic two-photon amplitude is cancelled here, so compare
        # against the natural two-photon scale instead of a relative error.
        scale = abs(analytic.c1g) ** 2 / SQRT2
        assert abs(final.c2g) < 1e-3 * scale

    def test_detuned_point_matches_analytic(self):
        base, point, working = blockade_point()
        at_zero = dataclasses.replace(working, delta_c=0.0)
        eff = P.derive_effective(at_zero, j=point.J, theta=point.theta)
        analytic = steady_state.analytic_amplitudes(eff, base.e_eg)
        cfg = dynamics.IntegratorConfig(dt=1e-3, t_max=800.0)
        traj = dynamics.evolve(dynamics.vacuum_state(), eff, base.e_eg, cfg)
        assert traj.steady
        final = traj.final
        for label in ("c1g", "c2g"):
            got = abs(getattr(final, label))
            want = abs(getattr(analytic, label))
            assert abs(got - want) < 1e-3 * want

    @pytest.mark.parametrize("offset, rate", [(0.0, 0.0850), (1.0, 0.0166)])
    def test_slowest_decay_is_the_approach_rate(self, offset, rate):
        # At the blockade point and 1 kappa off it, the distance to the
        # exact steady state shrinks at the reported rate.
        base, point, working = blockade_point()
        p = dataclasses.replace(working, delta_c=point.delta_c_opt + offset)
        eff = P.derive_effective(p, j=point.J, theta=point.theta)
        cfg = dynamics.IntegratorConfig(dt=1e-3, t_max=100.0, ss_tol=NEVER_STEADY)
        traj = dynamics.evolve(dynamics.vacuum_state(), eff, base.e_eg, cfg)
        assert traj.slowest_decay == pytest.approx(rate, abs=5e-5)
        assert traj[10:20].slowest_decay == traj.slowest_decay
        a = dense_generator(eff, base.e_eg)
        exact = np.linalg.solve(a[1:, 1:], -a[1:, 0])
        distance = np.linalg.norm(traj.amplitudes[:, 1:] - exact, axis=1)
        measured = math.log(distance[40_000] / distance[100_000]) / 60.0
        assert measured == pytest.approx(traj.slowest_decay, rel=1e-5)

    def test_slowest_decay_only_with_held_ground(self):
        eff = make_eff(0.3, -0.5, 1.0, 0.27, -0.4, omega=0.008944)
        cfg = dynamics.IntegratorConfig(dt=1e-2, t_max=1.0, hold_c0g=False)
        traj = dynamics.evolve(dynamics.vacuum_state(), eff, 0.01, cfg)
        assert traj.slowest_decay is None

    def test_halving_dt_leaves_final_state(self):
        eff = make_eff(0.85, -0.5, 1.0, 0.27, -0.4, omega=0.008944)
        finals = []
        for dt in (2e-3, 1e-3):
            cfg = dynamics.IntegratorConfig(dt=dt, t_max=20.0, ss_tol=NEVER_STEADY)
            traj = dynamics.evolve(dynamics.vacuum_state(), eff, 0.01, cfg)
            finals.append(traj.final.as_vector())
        assert float(np.linalg.norm(finals[0] - finals[1])) < 1e-8

    def test_undriven_norm_decays_monotonically(self):
        rng = np.random.default_rng(17)
        vec = rng.normal(size=5) + 1j * rng.normal(size=5)
        vec /= np.linalg.norm(vec)
        state = dynamics.AmplitudeState.from_vector(vec)
        eff = make_eff(0.6, -0.5, 1.0, 0.8, 0.3, omega=0.0)
        cfg = dynamics.IntegratorConfig(
            dt=1e-3, t_max=5.0, ss_tol=NEVER_STEADY, hold_c0g=False
        )
        norms = dynamics.evolve(state, eff, 0.0, cfg).norm_squared()
        assert np.all(np.diff(norms) <= 1e-12)
        assert norms[-1] < norms[0]

    def test_driven_norm_never_exceeds_one(self):
        # With the ground-state back-action kept, dissipation only removes
        # norm; the bound allows integrator roundoff.
        p = P.reference_params()
        eff = P.derive_effective(p, j=0.27, theta=-0.4)
        cfg = dynamics.IntegratorConfig(
            dt=1e-3, t_max=50.0, ss_tol=NEVER_STEADY, hold_c0g=False
        )
        norms = dynamics.evolve(dynamics.vacuum_state(), eff, p.e_eg, cfg).norm_squared()
        assert float(np.max(norms)) <= 1.0 + 1e-6

    def test_gauge_equivalent_phases_evolve_identically(self):
        base = dataclasses.replace(
            P.reference_params(), e_he=5.0, phi_p=0.3, phi_he=-0.4, phi_eg=1.1
        )
        shifted = dataclasses.replace(
            base, phi_p=base.phi_p + 1.3, phi_he=base.phi_he + 1.3
        )
        cfg = dynamics.IntegratorConfig(dt=1e-3, t_max=5.0, ss_tol=NEVER_STEADY)
        out = []
        for p in (base, shifted):
            eff = P.derive_effective(p)
            out.append(
                dynamics.evolve(dynamics.vacuum_state(), eff, p.e_eg, cfg).amplitudes
            )
        # theta agrees up to angle-arithmetic roundoff, nothing more.
        assert np.allclose(out[0], out[1], rtol=1e-10, atol=1e-15)

    def test_mirror_swap_evolves_identically(self):
        p = P.reference_params()
        cfg = dynamics.IntegratorConfig(dt=1e-3, t_max=3.0, ss_tol=NEVER_STEADY)
        a = dynamics.evolve(
            dynamics.vacuum_state(), P.derive_effective(P.mirror_swap(p)), p.e_eg, cfg
        )
        b = dynamics.evolve(
            dynamics.vacuum_state(), P.derive_effective(p), p.e_eg, cfg
        )
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_unstable_step_raises(self):
        eff = make_eff(50.0, -0.5, 1.0, 0.3, 0.0, omega=0.01)
        cfg = dynamics.IntegratorConfig(dt=1.0, t_max=100.0, ss_window=1.0)
        with pytest.raises(dynamics.NonFiniteState, match="reduce dt"):
            dynamics.evolve(dynamics.vacuum_state(), eff, 0.01, cfg)

    @pytest.mark.parametrize("hold", [True, False])
    def test_matches_plain_iteration(self, hold):
        # 2050 steps: six whole 300-step windows and a partial one.
        rng = np.random.default_rng(11)
        eff = make_eff(0.85, -0.5, 1.0, 0.27, -0.4, omega=0.05)
        initial = random_state(rng)
        cfg = dynamics.IntegratorConfig(
            dt=1e-2, t_max=20.5, ss_window=3.0, ss_tol=NEVER_STEADY, hold_c0g=hold
        )
        want, outcome, _ = plain_evolve(initial, eff, 0.03, cfg)
        traj = dynamics.evolve(initial, eff, 0.03, cfg)
        assert outcome == "t_max" and not traj.steady
        assert traj.amplitudes.shape == want.shape == (2051, 5)
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(traj.amplitudes - want)) <= 1e-13 * scale

    def test_stops_on_the_plain_iteration_step(self):
        eff = make_eff(0.5, 0.0, 0.5, 1.0, 0.3, omega=0.05)
        cfg = dynamics.IntegratorConfig(dt=1e-2, t_max=200.0, ss_window=1.0, ss_tol=1e-6)
        want, outcome, k = plain_evolve(dynamics.vacuum_state(), eff, 0.03, cfg)
        assert outcome == "steady"
        # Not marginal: the test fails clearly one step earlier and passes
        # clearly at k, so rounding cannot move the stop step.
        w = cfg.window_steps
        ratios = [
            np.max(np.abs(want[j] - want[j - w]) / (np.abs(want[j]) + 1e-12))
            for j in (k - 1, k)
        ]
        assert ratios[0] > cfg.ss_tol * (1 + 1e-6) and ratios[1] < cfg.ss_tol * (1 - 1e-6)
        traj = dynamics.evolve(dynamics.vacuum_state(), eff, 0.03, cfg)
        assert traj.steady
        assert len(traj) == k + 1
        assert traj.times[-1] == pytest.approx(k * cfg.dt, abs=1e-12)

    def test_stops_on_the_plain_iteration_step_after_blocker_changes(self):
        # The amplitude with the largest test ratio at a window's end, the
        # one evolve screens the next window with, is not the same in
        # every window before the stop.
        eff = make_eff(0.75, -0.06, 0.83, 0.53, 0.83, omega=0.02)
        cfg = dynamics.IntegratorConfig(dt=1e-2, t_max=200.0, ss_window=1.0, ss_tol=1e-6)
        want, outcome, k = plain_evolve(dynamics.vacuum_state(), eff, 0.03, cfg)
        assert outcome == "steady"
        w = cfg.window_steps
        ratio = np.abs(want[w:] - want[:-w]) / (np.abs(want[w:]) + 1e-12)
        worst = {int(np.argmax(ratio[end - w])) for end in range(w, k, w)}
        assert len(worst) >= 3
        # Some amplitude passes at a step before k where another fails, so
        # no single amplitude's test decides the stop.
        early = ratio[k - 2 * w : k - w]
        split = np.any(early < cfg.ss_tol, axis=1) & np.any(early >= cfg.ss_tol, axis=1)
        assert split.any()
        assert np.max(ratio[k - 1 - w]) > cfg.ss_tol * (1 + 1e-6)
        assert np.max(ratio[k - w]) < cfg.ss_tol * (1 - 1e-6)
        traj = dynamics.evolve(dynamics.vacuum_state(), eff, 0.03, cfg)
        assert traj.steady
        assert len(traj) == k + 1
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(traj.amplitudes - want)) <= 1e-13 * scale

    def test_finite_window_whose_sum_overflows(self):
        # Amplitudes near 1e307 are finite, but the float sum over a window
        # of them is not; the window is redone step by step, not reported.
        eff = make_eff(0.5, 0.0, 0.5, 1.0, 0.3, omega=0.05)
        cfg = dynamics.IntegratorConfig(dt=1e-2, t_max=200.0, ss_window=1.0, ss_tol=1e-6)
        initial = dynamics.AmplitudeState(
            c0g=1e307 + 1e307j, c1g=5e306, c0e=5e306j, c2g=1e306, c1e=-2e306
        )
        want, outcome, k = plain_evolve(initial, eff, 0.03, cfg)
        assert outcome == "steady"
        assert np.all(np.isfinite(want.view(float)))
        with np.errstate(over="ignore"):
            assert not np.isfinite(want[1 : cfg.window_steps + 1].view(float).sum())
        traj = dynamics.evolve(initial, eff, 0.03, cfg)
        assert traj.steady
        assert len(traj) == k + 1
        scale = float(np.max(np.abs(want)))
        assert np.max(np.abs(traj.amplitudes - want)) <= 1e-13 * scale

    @pytest.mark.parametrize("dt", [0.1, 0.3])
    def test_unstable_step_raises_on_the_plain_iteration_step(self, dt):
        # A 200-unit window holds more steps than it takes to overflow, so
        # the step powers overflow inside the first window.
        eff = make_eff(50.0, -0.5, 1.0, 0.3, 0.0, omega=0.01)
        cfg = dynamics.IntegratorConfig(dt=dt, t_max=2000.0, ss_window=200.0)
        _, outcome, k = plain_evolve(dynamics.vacuum_state(), eff, 1e-9, cfg)
        assert outcome == "nonfinite"
        with pytest.raises(dynamics.NonFiniteState, match=f"t = {k * dt:.6g};"):
            dynamics.evolve(dynamics.vacuum_state(), eff, 1e-9, cfg)

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_power_increments(self, lead):
        rng = np.random.default_rng(3)
        shape = lead + (5, 5)
        m = np.eye(5) + 0.1 * (rng.normal(size=shape) + 1j * rng.normal(size=shape))
        for n in (1, 2, 7, 16):
            inc = dynamics._power_increments(m - np.eye(5), n)
            assert inc.shape == lead + (n, 5, 5)
            for j in range(n):
                want = np.linalg.matrix_power(m, j + 1) - np.eye(5)
                assert np.allclose(inc[..., j, :, :], want, rtol=1e-12, atol=1e-13)

    def test_steady_rk4_matches_evolve(self):
        p = P.reference_params()
        effs = [
            P.derive_effective(dataclasses.replace(p, delta_c=dc), j=0.27, theta=-0.4)
            for dc in (-1.0, 0.0, 0.85)
        ]
        cfg = dynamics.IntegratorConfig(dt=1e-3, t_max=5.0, ss_tol=NEVER_STEADY)
        states, steady = dynamics.steady_rk4(effs, p.e_eg, cfg)
        assert states.shape == (3, 5)
        assert not steady.any()
        for k, eff in enumerate(effs):
            traj = dynamics.evolve(dynamics.vacuum_state(), eff, p.e_eg, cfg)
            assert np.allclose(states[k], traj.final.as_vector(), rtol=1e-9, atol=1e-14)

    def test_steady_rk4_matches_window_iteration(self):
        base, effs = time_domain_batch()
        cfg = dynamics.IntegratorConfig()
        want, want_steady, _ = plain_steady_rk4(effs, base.e_eg, cfg)
        assert 0 < want_steady.sum() < len(effs) and not want_steady[0]
        states, steady = dynamics.steady_rk4(effs, base.e_eg, cfg)
        assert steady.tolist() == want_steady.tolist()
        assert np.max(np.abs(states - want)) <= 1e-13 * float(np.max(np.abs(want)))

    def test_steady_rk4_reports_the_nonfinite_sets(self):
        # Set 1 grows by about 1.12 a step, so some windows hold finite
        # amplitudes whose float sum overflows before any is infinite.
        effs = [
            make_eff(dc, -0.5, 1.0, 0.3, 0.0, omega=0.01) for dc in (0.3, 50.0, 0.5)
        ]
        cfg = dynamics.IntegratorConfig(dt=0.0295, t_max=300.0, ss_window=0.0295)
        assert cfg.window_steps == 1
        a = dynamics.generator_from_effective(effs[1], 0.01)
        step = dynamics.rk4_propagator(a, cfg.dt)
        state = dynamics.vacuum_state().as_vector()
        overflowed = False
        with np.errstate(over="ignore", invalid="ignore"):
            while np.all(np.isfinite(state)):
                overflowed |= not np.isfinite(state.view(float).sum())
                state = step @ state
        assert overflowed
        with pytest.raises(dynamics.NonFiniteState) as want:
            plain_steady_rk4(effs, 0.01, cfg)
        assert "parameter sets [1];" in str(want.value)
        with pytest.raises(dynamics.NonFiniteState) as got:
            dynamics.steady_rk4(effs, 0.01, cfg)
        assert str(got.value) == str(want.value)

    def test_steady_rk4_single_parameter_set(self):
        p = P.reference_params()
        eff = P.derive_effective(p, j=0.27, theta=-0.4)
        cfg = dynamics.IntegratorConfig(dt=1e-3, t_max=800.0)
        states, steady = dynamics.steady_rk4(eff, p.e_eg, cfg)
        assert states.shape == (1, 5)
        assert bool(steady[0])

    def test_steady_rk4_empty_input(self):
        states, steady = dynamics.steady_rk4([], 0.01)
        assert states.shape == (0, 5)
        assert steady.shape == (0,)


def steady_ratios(states, w):
    """The steady test's ratio at every step from w on: entry j - w is step j's."""
    return np.abs(states[w:] - states[:-w]) / (np.abs(states[w:]) + 1e-12)


def assert_same_run(initial, eff, e_eg, cfg):
    """evolve ends as the plain iteration does: the same outcome on the same
    step, every state within 1e-13 of the largest amplitude."""
    want, outcome, k = plain_evolve(initial, eff, e_eg, cfg)
    if outcome == "nonfinite":
        t = initial.t + k * cfg.dt
        with pytest.raises(dynamics.NonFiniteState, match=f"t = {t:.6g};"):
            dynamics.evolve(initial, eff, e_eg, cfg)
        return outcome, k
    traj = dynamics.evolve(initial, eff, e_eg, cfg)
    assert traj.steady == (outcome == "steady")
    assert traj.amplitudes.shape == want.shape == (k + 1, 5)
    scale = float(np.max(np.abs(want)))
    assert np.max(np.abs(traj.amplitudes - want)) <= 1e-13 * scale
    return outcome, k


class TestChunks:
    """evolve fills ``_CHUNK_WINDOWS`` steady-test windows per matrix product
    and steady_rk4 finds that many window ends per batched product; neither
    may move a stop, an outcome or an error from the plain iteration's."""

    C = dynamics._CHUNK_WINDOWS
    # From step w on, the largest test ratio of this run falls at every step
    # by a factor below 1 - 4e-4, so a tolerance between two consecutive
    # ratios stops the run on a chosen step with a margin rounding cannot
    # cross.
    FALLING = make_eff(0.1, -0.32, 0.56, 0.59, 2.53, omega=0.05)

    @pytest.mark.parametrize(
        "offset",
        [
            1,  # the first step after a chunk boundary
            12,  # inside the chunk's first window
            25,  # the end of the first window: the second window's start row
            75,  # another window's start row inside the chunk
            186,  # inside the chunk, off every window boundary
            400,  # the chunk's last step: the next chunk's start row
        ],
    )
    def test_steady_stop_placed_in_a_chunk(self, offset):
        cfg = dynamics.IntegratorConfig(dt=2e-2, t_max=60.0, ss_window=0.5, ss_tol=NEVER_STEADY)
        w = cfg.window_steps
        assert (w, self.C * w) == (25, 400)
        want, _, _ = plain_evolve(dynamics.vacuum_state(), self.FALLING, 0.03, cfg)
        worst = np.max(steady_ratios(want, w), axis=1)
        assert np.all(worst[1:] < worst[:-1] * (1 - 4e-4))
        k = 3 * self.C * w + offset
        tol = math.sqrt(worst[k - 1 - w] * worst[k - w])
        cfg = dataclasses.replace(cfg, ss_tol=tol)
        assert assert_same_run(dynamics.vacuum_state(), self.FALLING, 0.03, cfg) == ("steady", k)

    def test_screen_amplitude_changes_across_chunks(self):
        # The amplitude evolve screens a chunk with, the one with the largest
        # test ratio at the chunk's last step, takes three values before the
        # stop, and before it some step passes one amplitude's test but not
        # another's.
        eff = make_eff(0.75, -0.06, 0.83, 0.53, 0.83, omega=0.02)
        cfg = dynamics.IntegratorConfig(dt=1e-2, t_max=200.0, ss_window=0.25, ss_tol=1e-6)
        want, outcome, k = plain_evolve(dynamics.vacuum_state(), eff, 0.03, cfg)
        w = cfg.window_steps
        span = self.C * w
        ratio = steady_ratios(want, w)
        worst = [int(np.argmax(ratio[end - w])) for end in range(span, k, span)]
        assert outcome == "steady" and len(worst) >= 10
        assert len(set(worst)) >= 3
        early = ratio[k - 1 - span : k - 1 - w]
        assert np.any(np.any(early < cfg.ss_tol, axis=1) & np.any(early >= cfg.ss_tol, axis=1))
        assert np.max(ratio[k - 1 - w]) > cfg.ss_tol * (1 + 1e-6)
        assert np.max(ratio[k - w]) < cfg.ss_tol * (1 - 1e-6)
        assert assert_same_run(dynamics.vacuum_state(), eff, 0.03, cfg) == ("steady", k)

    @pytest.mark.parametrize(
        "ss_window, t_max, hold",
        [
            # Four whole chunks of 480 steps, then four windows and a
            # 10-step partial one.
            (0.3, 20.5, True),
            (0.3, 20.5, False),
            # Runs inside the first chunk of 1600 steps: one window, nine
            # and a partial one, fifteen.
            (1.0, 1.0, True),
            (1.0, 9.5, True),
            (1.0, 15.0, False),
        ],
    )
    def test_chunk_layouts_match_plain_iteration(self, ss_window, t_max, hold):
        cfg = dynamics.IntegratorConfig(
            dt=1e-2, t_max=t_max, ss_window=ss_window, ss_tol=NEVER_STEADY, hold_c0g=hold
        )
        rng = np.random.default_rng(12)
        eff = make_eff(0.85, -0.5, 1.0, 0.27, -0.4, omega=0.05)
        n_steps = round(t_max / cfg.dt)
        assert assert_same_run(random_state(rng), eff, 0.03, cfg) == ("t_max", n_steps)

    @pytest.mark.parametrize("dt", [0.0575, 0.059])
    def test_nonfinite_step_inside_a_later_chunk(self, dt):
        eff = make_eff(50.0, -0.5, 1.0, 0.3, 0.0, omega=0.01)
        cfg = dynamics.IntegratorConfig(dt=dt, t_max=2000.0, ss_window=10 * dt)
        _, outcome, k = plain_evolve(dynamics.vacuum_state(), eff, 1e-9, cfg)
        span = self.C * cfg.window_steps
        chunk, offset = divmod(k - 1, span)
        assert outcome == "nonfinite" and chunk >= 1
        assert 0 < offset < span - 1 and offset % cfg.window_steps != 0
        assert assert_same_run(dynamics.vacuum_state(), eff, 1e-9, cfg) == ("nonfinite", k)

    def test_steady_stop_wins_over_a_later_overflow_in_the_chunk(self):
        # Only c1g is non-zero, and with J = omega = 0 and delta_c = G it
        # decays at the real rate kappa/2; dt puts that just past RK4's real
        # stability bound (z = -2.7853), so the step multiplies c1g by
        # 1 + 6.6e-7.  Started just below the largest float, the run passes
        # the steady test at step 2 and would overflow at step 8, both in
        # the first chunk of 32 steps.
        eff = make_eff(0.5, 0.0, 0.5, 0.0, 0.0, omega=0.0)
        initial = dynamics.AmplitudeState(
            c0g=0.0, c1g=np.finfo(float).max * (1 - 5e-6), c0e=0.0, c2g=0.0, c1e=0.0
        )
        dt = 5.570588
        cfg = dynamics.IntegratorConfig(dt=dt, t_max=40 * dt, ss_window=2 * dt, ss_tol=NEVER_STEADY)
        assert self.C * cfg.window_steps == 32
        assert assert_same_run(initial, eff, 0.0, cfg) == ("nonfinite", 8)
        cfg = dataclasses.replace(cfg, ss_tol=1e-5)
        assert assert_same_run(initial, eff, 0.0, cfg) == ("steady", 2)

    def test_finite_chunk_whose_sum_overflows(self):
        # Decaying amplitudes near 1e306: every one is finite, but the float
        # sum over the first chunk is not; that chunk is redone step by step
        # and reported as nothing, and later chunks take the product again.
        rng = np.random.default_rng(14)
        eff = make_eff(0.5, 0.0, 0.5, 1.0, 0.3, omega=0.0)
        cfg = dynamics.IntegratorConfig(dt=1e-2, t_max=30.0, ss_window=0.25, ss_tol=NEVER_STEADY)
        vec = 1e306 * (1.0 + rng.uniform(size=5) + 1j * rng.uniform(size=5))
        vec[0] = 0.0
        initial = dynamics.AmplitudeState.from_vector(vec)
        want, outcome, k = plain_evolve(initial, eff, 0.0, cfg)
        span = self.C * cfg.window_steps
        with np.errstate(over="ignore", invalid="ignore"):
            overflows = [
                not np.isfinite(want[s + 1 : s + span + 1].view(float).sum())
                for s in range(0, k, span)
            ]
        assert np.all(np.isfinite(want.view(float)))
        assert overflows[0] and not all(overflows)
        assert assert_same_run(initial, eff, 0.0, cfg) == ("t_max", k)

    def test_seeded_configurations_match_plain_iteration(self):
        # Stable runs that stop steady or reach t_max, and runs whose dt
        # lies far outside RK4's stability region at a large detuning, so
        # they overflow; from vacuum and from random states, with the
        # ground amplitude held and free, windows of 2 to 40 steps.
        rng = np.random.default_rng(15)
        outcomes = []
        for trial in range(50):
            unstable = trial % 5 == 4
            eff = make_eff(
                rng.uniform(30.0, 60.0) if unstable else rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 0.5),
                rng.uniform(0.2, 1.5),
                rng.uniform(0.0, 1.2),
                rng.uniform(-math.pi, math.pi),
                omega=rng.uniform(0.005, 0.1),
            )
            dt = rng.uniform(0.05, 0.1) if unstable else rng.uniform(5e-3, 5e-2)
            w = int(rng.integers(2, 41))
            n_steps = int(rng.integers(w, 2500))
            cfg = dynamics.IntegratorConfig(
                dt=dt,
                t_max=n_steps * dt,
                ss_window=w * dt,
                ss_tol=10.0 ** rng.uniform(-5.0, -1.0),
                hold_c0g=bool(rng.integers(2)),
            )
            initial = random_state(rng) if rng.integers(2) else dynamics.vacuum_state()
            outcomes.append(assert_same_run(initial, eff, 0.03, cfg)[0])
        assert min(outcomes.count(name) for name in ("steady", "t_max", "nonfinite")) >= 5

    @pytest.mark.parametrize("bad", [(1, math.nan), (4, math.inf), (0, complex(0.0, -math.inf))])
    def test_nonfinite_initial_state_fails_at_the_first_step(self, bad):
        index, value = bad
        vec = np.array([1.0, 0.2, 0.1j, 0.0, 0.3], dtype=complex)
        vec[index] = value
        initial = dynamics.AmplitudeState.from_vector(vec, t=2.5)
        cfg = dynamics.IntegratorConfig(dt=1e-2, t_max=20.0, ss_window=0.5, ss_tol=1e-6)
        # Raised naming t0 + dt = 2.51, as the plain iteration does.
        assert assert_same_run(initial, self.FALLING, 0.03, cfg) == ("nonfinite", 1)

    @pytest.mark.parametrize("outcome", ["steady", "nonfinite"])
    def test_finite_states_too_large_for_the_bound(self, outcome):
        # Amplitudes near 1e299 are finite and so is the float sum of a
        # chunk of them, but no bound on a chunk's parts from its starts
        # (1e299 at least, times at least ten parts) is below 1e300, so the
        # first chunks are checked by their sum.  The steady run decays to
        # its fixed point; in the other only c1g and c0e are non-zero, c0e
        # is constant and dt puts c1g's decay at kappa/2 just past RK4's
        # real stability bound, so c1g grows about 1.05x a step and overflows in
        # a later chunk.
        if outcome == "steady":
            eff = make_eff(0.5, 0.0, 0.5, 1.0, 0.3, omega=0.05)
            vec = 1e299 * (1.0 + np.random.default_rng(16).uniform(size=5) * (1 + 1j))
            cfg = dynamics.IntegratorConfig(dt=1e-2, t_max=200.0, ss_window=1.0, ss_tol=1e-6)
        else:
            eff = make_eff(0.5, 0.0, 0.5, 0.0, 0.0, omega=0.0)
            vec = np.array([0.0, 1e299, 3e298j, 0.0, 0.0])
            cfg = dynamics.IntegratorConfig(dt=5.64, t_max=4000.0, ss_window=11.28)
        initial = dynamics.AmplitudeState.from_vector(vec)
        want, got, k = plain_evolve(initial, eff, 0.0, cfg)
        span = self.C * cfg.window_steps
        assert got == outcome and k > 2 * span
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(want[1 : 2 * span + 1].view(float).sum())
        assert assert_same_run(initial, eff, 0.0, cfg) == (outcome, k)

    @pytest.mark.parametrize("settle, raises", [(2681, False), (2682, True)])
    def test_steady_rk4_settles_before_an_overflow_in_the_chunk(self, settle, raises):
        # Set 1 passes the steady test at its first window, every amplitude
        # below the test's 1e-12 floor, and stays steady; but its c2g turns by
        # 2 (delta_c - G) dt = 3 a step, past RK4's 2 sqrt(2) limit, grows
        # 1.35x a window and overflows at window 2682, inside a chunk.  Set 0
        # settles slowly, and the tolerance makes every set steady first at
        # window ``settle``.  The run fails only when the overflow comes no
        # later than that.
        effs = [
            make_eff(0.5, 0.0, 0.0, 0.0, 0.0, omega=0.05, kappa=0.05),
            make_eff(15.0, 0.0, 0.0, 0.0, 0.0, omega=1e-20),
        ]
        cfg = dynamics.IntegratorConfig(dt=0.1, t_max=1000.0, ss_window=0.1)
        runs = []
        with np.errstate(over="ignore", invalid="ignore"):
            for eff in effs:
                step = dynamics.rk4_propagator(dynamics.generator_from_effective(eff, 0.0), cfg.dt)
                states = [dynamics.vacuum_state().as_vector()]
                for _ in range(2682):
                    states.append(step @ states[-1])
                runs.append(np.array(states))
        finite = np.isfinite(np.abs(runs[1])).all(axis=1)
        assert finite[:-1].all() and not finite[-1]
        assert divmod(2682 - 1, self.C) == (167, 9)
        # ratios[k - 1] is set 0's at window k.
        ratios = np.max(steady_ratios(runs[0], 1), axis=1)
        assert ratios[settle - 2] > ratios[settle - 1] * (1 + 1e-3)
        cfg = dataclasses.replace(
            cfg, ss_tol=math.sqrt(ratios[settle - 2] * ratios[settle - 1])
        )
        if raises:
            with pytest.raises(dynamics.NonFiniteState) as want:
                plain_steady_rk4(effs, 0.0, cfg)
            with pytest.raises(dynamics.NonFiniteState) as got:
                dynamics.steady_rk4(effs, 0.0, cfg)
            assert str(got.value) == str(want.value) == (
                "non-finite amplitudes for parameter sets [1]; reduce dt"
            )
            return
        want, want_steady, windows = plain_steady_rk4(effs, 0.0, cfg)
        assert windows == settle and want_steady.all()
        states, steady = dynamics.steady_rk4(effs, 0.0, cfg)
        assert steady.all()
        # Set 1's rounding grows with it; a window more would move it 1.35x.
        assert np.allclose(states, want, rtol=1e-10, atol=0.0)

    def test_overflowed_modulus_is_not_steady(self):
        # delta_e dt = 2.84 lies just past RK4's 2 sqrt(2) limit on the
        # imaginary axis, so c0e turns and grows about 1.03x a step.  Its
        # modulus overflows while both its parts are finite, and the steady
        # ratio, which divides by the modulus, would read 0 from there on.
        eff = make_eff(0.0, 2.84, 0.0, 0.0, 0.0, omega=0.0)
        cfg = dynamics.IntegratorConfig(dt=1.0, t_max=90000.0, ss_window=3.0)
        path, outcome, k = plain_evolve(dynamics.vacuum_state(), eff, 0.01, cfg)
        assert (outcome, k) == ("nonfinite", 24654)
        assert np.all(np.isfinite(path[-1].view(float)))
        with pytest.raises(dynamics.NonFiniteState, match="t = 24654;"):
            dynamics.evolve(dynamics.vacuum_state(), eff, 0.01, cfg)
        with pytest.raises(dynamics.NonFiniteState) as want:
            plain_steady_rk4([eff], 0.01, cfg)
        with pytest.raises(dynamics.NonFiniteState) as got:
            dynamics.steady_rk4([eff], 0.01, cfg)
        assert str(got.value) == str(want.value) == (
            "non-finite amplitudes for parameter sets [0]; reduce dt"
        )

    def test_overflowed_modulus_from_a_large_start(self):
        # As in the failing run of test_finite_states_too_large_for_the_bound,
        # dt puts c1g's decay just past RK4's real stability bound, so it grows
        # about 1.04x a step; with an imaginary part in c1g, at step 570 both
        # its parts are finite but its modulus is not.
        eff = make_eff(0.5, 0.0, 0.5, 0.0, 0.0, omega=0.0)
        initial = dynamics.AmplitudeState(
            c0g=0.0, c1g=1e299 * (1 + 0.5j), c0e=3e298, c2g=0.0, c1e=0.0
        )
        dt = 5.62
        cfg = dynamics.IntegratorConfig(
            dt=dt, t_max=4000.0, ss_window=2 * dt, ss_tol=NEVER_STEADY
        )
        path, _, _ = plain_evolve(initial, eff, 0.0, cfg)
        assert np.all(np.isfinite(path[570].view(float)))
        # Raised naming t = 570 dt = 3203.4.
        assert assert_same_run(initial, eff, 0.0, cfg) == ("nonfinite", 570)

    def test_bound_clears_the_benchmark_runs(self, monkeypatch):
        # The time-domain workload's runs: evolve at the reference joint root
        # and 1 kappa off it, and the 32-set batch, all with the default
        # config.  The bound clears every chunk, so none reaches the plain
        # iteration and the product results stand as they are.
        real = dynamics._chunk_finite
        checks = []

        def cleared(*args):
            checks.append(real(*args))
            assert checks[-1], "a chunk the bound does not clear"
            return True

        monkeypatch.setattr(dynamics, "_chunk_finite", cleared)
        base, point, working = blockade_point()
        for offset in (0.0, 1.0):
            p = dataclasses.replace(working, delta_c=working.delta_c + offset)
            eff = P.derive_effective(p, j=point.J, theta=point.theta)
            dynamics.evolve(dynamics.vacuum_state(), eff, p.e_eg)
        runs = len(checks)
        _, effs = time_domain_batch()
        dynamics.steady_rk4(effs, base.e_eg)
        assert 0 < runs < len(checks)

    def test_window_steady_is_the_worst_ratio_test(self):
        # The test against np.max over the amplitudes, on ratios on both
        # sides of the tolerance and with NaN and infinite states: an
        # infinite state gives a NaN ratio, an infinite previous state an
        # infinite one, and neither passes.
        rng = np.random.default_rng(17)
        tol = 1e-6
        for shape in [(32, 16, 5), (400, 5)]:
            states = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            prev = states * (1.0 + tol * rng.uniform(0.0, 1.3, size=shape))
            for arr in (states, prev):
                flat = arr.reshape(-1)
                picks = rng.choice(flat.size, size=max(1, flat.size // 50), replace=False)
                flat[picks[::3]] = complex(math.nan, 0.0)
                flat[picks[1::3]] = complex(math.inf, 1.0)
                flat[picks[2::3]] = complex(0.0, -math.inf)
            with np.errstate(invalid="ignore"):
                ratio = np.abs(states - prev) / (np.abs(states) + 1e-12)
                want = np.max(ratio, axis=-1) < tol
                got = dynamics._window_steady(states, prev, tol)
            assert got.shape == want.shape
            assert np.array_equal(got, want)
            assert 0 < want.sum() < want.size

    @pytest.mark.parametrize("tol, window", [(1e-5, 142), (3e-7, 193)])
    def test_steady_rk4_stops_inside_a_chunk(self, tol, window):
        # Every set is steady first after window 142 (the 14th of its
        # chunk of 16) or after window 193 (the first of its chunk).
        effs = [make_eff(dc, -0.5, 1.0, 1.0, 0.4, omega=0.05) for dc in (-0.5, 0.3, 1.2)]
        cfg = dynamics.IntegratorConfig(dt=1e-2, t_max=400.0, ss_window=0.5, ss_tol=tol)
        want, want_steady, windows = plain_steady_rk4(effs, 0.03, cfg)
        assert windows == window and want_steady.all()
        states, steady = dynamics.steady_rk4(effs, 0.03, cfg)
        assert steady.tolist() == want_steady.tolist()
        # A window more or less would move the states by about tol.
        assert np.max(np.abs(states - want)) <= 1e-13 * float(np.max(np.abs(want)))

    def test_steady_rk4_nonfinite_set_inside_a_chunk(self):
        # Sets 1 and 3 grow about 1.12x a step; with one-step windows set
        # 1 first overflows inside a chunk, and set 3 a few windows later in
        # the same chunk, so only set 1 is named.
        effs = [
            make_eff(dc, -0.5, 1.0, 0.3, 0.0, omega=0.01) for dc in (0.3, 50.0, 0.5, 49.9995)
        ]
        cfg = dynamics.IntegratorConfig(dt=0.0295, t_max=300.0, ss_window=0.0295)
        fails = []
        for eff in (effs[1], effs[3]):
            step = dynamics.rk4_propagator(dynamics.generator_from_effective(eff, 0.01), cfg.dt)
            state = dynamics.vacuum_state().as_vector()
            window = 0
            with np.errstate(over="ignore", invalid="ignore"):
                while np.all(np.isfinite(state)):
                    state = step @ state
                    window += 1
            fails.append(window)
        chunks = [divmod(window - 1, self.C) for window in fails]
        assert chunks[0][0] == chunks[1][0] > 0
        assert 0 < chunks[0][1] < chunks[1][1]
        with pytest.raises(dynamics.NonFiniteState) as want:
            plain_steady_rk4(effs, 0.01, cfg)
        with pytest.raises(dynamics.NonFiniteState) as got:
            dynamics.steady_rk4(effs, 0.01, cfg)
        assert str(got.value) == str(want.value) == (
            "non-finite amplitudes for parameter sets [1]; reduce dt"
        )


class TestTrajectory:
    def make(self):
        eff = make_eff(0.3, -0.5, 1.0, 0.27, -0.4, omega=0.008944)
        cfg = dynamics.IntegratorConfig(
            dt=1e-2, t_max=0.1, ss_window=0.05, ss_tol=NEVER_STEADY
        )
        return dynamics.evolve(dynamics.vacuum_state(), eff, 0.01, cfg)

    def test_sequence_protocol(self):
        traj = self.make()
        assert len(traj) == 11
        assert isinstance(traj[3], dynamics.AmplitudeState)
        assert traj[3].t == pytest.approx(0.03)
        sliced = traj[2:5]
        assert isinstance(sliced, dynamics.Trajectory)
        assert len(sliced) == 3
        assert traj.final.t == pytest.approx(0.1)
        assert [s.t for s in traj] == pytest.approx(list(traj.times))

    def test_norm_squared_adds_the_amplitudes_in_order(self):
        # Magnitudes spread over 16 decades, so the order of the additions
        # shows in the last bits of many rows.
        rng = np.random.default_rng(18)
        mag = 10.0 ** rng.uniform(-8.0, 8.0, size=(2000, 5))
        amps = mag * np.exp(2j * math.pi * rng.uniform(size=(2000, 5)))
        traj = dynamics.Trajectory(np.arange(2000.0), amps, steady=False)
        sq = np.abs(amps) ** 2
        want = np.sum(sq, axis=-1)
        assert np.array_equal(traj.norm_squared(), want)
        assert not np.array_equal(np.sum(sq[:, ::-1], axis=-1), want)


class TestIntegratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="dt"):
            dynamics.IntegratorConfig(dt=0.0)
        with pytest.raises(ValueError, match="ss_window"):
            dynamics.IntegratorConfig(ss_window=-1.0)
        with pytest.raises(ValueError, match="t_max"):
            dynamics.IntegratorConfig(t_max=0.5, ss_window=1.0)
        with pytest.raises(ValueError, match="ss_tol"):
            dynamics.IntegratorConfig(ss_tol=0.0)

    @pytest.mark.parametrize(
        "field, value", [("t_max", math.inf), ("ss_tol", math.inf), ("ss_tol", math.nan)]
    )
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            dynamics.IntegratorConfig(**{field: value})

    def test_window_steps(self):
        cfg = dynamics.IntegratorConfig(dt=1e-3, ss_window=1.0)
        assert cfg.window_steps == 1000
        assert dynamics.IntegratorConfig(dt=0.4, ss_window=1.0).window_steps == 2
