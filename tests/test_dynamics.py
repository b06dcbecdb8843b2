import cmath
import dataclasses
import math
from types import SimpleNamespace

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
        # The amplitude with the largest test ratio at a window's end is not
        # the same in every window before the stop.
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


def chunk_edges(cfg):
    """The steps at which evolve's chunks start under ``cfg``, and its last
    step: the first chunk holds 16 windows and each later one twice the one
    before, up to 128."""
    n_steps = math.ceil(cfg.t_max / cfg.dt - 1e-12)
    w = cfg.window_steps
    edges, size = [0], 16
    while edges[-1] < n_steps:
        edges.append(min(edges[-1] + size * w, n_steps))
        size = min(2 * size, 128)
    return edges


def exhaustive_first_steady(cur, prev, ss_tol):
    """Reference for ``dynamics._first_steady``: the screen it replaced.

    One amplitude's test, that of the largest ratio in the last row, runs on
    every row, and the five-amplitude test from the first row it passes.
    """
    last = np.abs(cur[-1] - prev[-1]) / (np.abs(cur[-1]) + 1e-12)
    k = int(np.argmax(last))
    c = cur[:, k]
    passed = np.abs(c - prev[:, k]) / (np.abs(c) + 1e-12) < ss_tol
    if not passed.any():
        return None
    first = int(np.argmax(passed))
    passed = dynamics._window_steady(cur[first:], prev[first:], ss_tol)
    return first + int(np.argmax(passed)) if passed.any() else None


def check_screen(monkeypatch):
    """Make every steady test of evolve check its answer against the
    exhaustive screen, and that of a run started at each gap holding a
    passing row, so no such gap is ruled out.  Returns the list of the
    (answer, limit, rows, rows the exact test ran on) of each chunk's test."""
    real, real_window = dynamics._first_steady, dynamics._window_steady
    calls = []
    exact = [0]

    def counted(states, *args):
        exact[0] += len(states)
        return real_window(states, *args)

    def checked(cur, prev, ss_tol, k, limit):
        exact[0] = 0
        got = real(cur, prev, ss_tol, k, limit)
        calls.append((got, limit, len(cur), exact[0]))
        assert got == exhaustive_first_steady(cur, prev, ss_tol)
        rows = dynamics._SAMPLE_ROWS
        k, limit = np.broadcast_arrays(k, limit)
        passing = np.flatnonzero(dynamics._window_steady(cur, prev, ss_tol))
        for gap in np.unique(passing // rows)[:8]:
            first = passing[passing >= gap * rows][0]
            tail = real(
                cur[gap * rows :], prev[gap * rows :], ss_tol, k[gap:], limit[gap:]
            )
            assert tail is not None and gap * rows + tail == first
        return got

    monkeypatch.setattr(dynamics, "_window_steady", counted)
    monkeypatch.setattr(dynamics, "_first_steady", checked)
    return calls


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
    """evolve fills its first ``_CHUNK_WINDOWS`` steady-test windows per
    matrix product and doubles each later chunk up to 128 windows (chunk
    edges at 16, 48, 112, 240, 368, ... windows); steady_rk4 finds
    ``_CHUNK_WINDOWS`` window ends per batched product.  Neither may move a
    stop, an outcome or an error from the plain iteration's."""

    C = dynamics._CHUNK_WINDOWS
    # From step w on, the largest test ratio of this run falls at every step
    # by a factor below 1 - 4e-4, so a tolerance between two consecutive
    # ratios stops the run on a chosen step with a margin rounding cannot
    # cross.
    FALLING = make_eff(0.1, -0.32, 0.56, 0.59, 2.53, omega=0.05)

    @pytest.mark.parametrize(
        "offset",
        [
            # The chunk of 64 windows from the edge at 48 windows, step 1200.
            1,  # the first step after the chunk boundary
            12,  # inside the chunk's first window
            25,  # the end of the first window: the second window's start row
            75,  # another window's start row inside the chunk
            186,  # inside the chunk, off every window boundary
            400,  # a window's start row 16 windows in
            987,  # deep in the chunk's second half, off every window boundary
            1600,  # the chunk's last step: the next chunk's start row
        ],
    )
    def test_steady_stop_placed_in_a_chunk(self, offset):
        cfg = dynamics.IntegratorConfig(dt=2e-2, t_max=60.0, ss_window=0.5, ss_tol=NEVER_STEADY)
        w = cfg.window_steps
        assert (w, self.C * w) == (25, 400)
        assert chunk_edges(cfg)[2:4] == [3 * self.C * w, 3 * self.C * w + 1600]
        want, _, _ = plain_evolve(dynamics.vacuum_state(), self.FALLING, 0.03, cfg)
        worst = np.max(steady_ratios(want, w), axis=1)
        assert np.all(worst[1:] < worst[:-1] * (1 - 4e-4))
        k = 3 * self.C * w + offset
        tol = math.sqrt(worst[k - 1 - w] * worst[k - w])
        cfg = dataclasses.replace(cfg, ss_tol=tol)
        assert assert_same_run(dynamics.vacuum_state(), self.FALLING, 0.03, cfg) == ("steady", k)

    def test_screen_amplitude_changes_across_chunks(self, monkeypatch):
        # The amplitude evolve screens a window's samples with, the one with
        # the largest test margin |d| - tol |c| at the window's boundary row,
        # takes three values before the stop, which lies past the fourth
        # chunk's start, and before it some step passes one amplitude's test
        # but not another's.
        eff = make_eff(0.88, -0.01, 1.14, 0.97, -2.08, omega=0.02)
        cfg = dynamics.IntegratorConfig(dt=1e-2, t_max=200.0, ss_window=0.25, ss_tol=1e-6)
        want, outcome, k = plain_evolve(dynamics.vacuum_state(), eff, 0.03, cfg)
        w = cfg.window_steps
        span = self.C * w
        ratio = steady_ratios(want, w)
        margin = np.abs(want[w:] - want[:-w]) - cfg.ss_tol * np.abs(want[w:])
        chosen = {row: int(np.argmax(margin[row - w])) for row in range(w, k, w)}
        edges = chunk_edges(cfg)
        assert outcome == "steady" and k > edges[3]
        assert len(set(chosen.values())) >= 3
        early = ratio[k - 1 - span : k - 1 - w]
        assert np.any(np.any(early < cfg.ss_tol, axis=1) & np.any(early >= cfg.ss_tol, axis=1))
        assert np.max(ratio[k - 1 - w]) > cfg.ss_tol * (1 + 1e-6)
        assert np.max(ratio[k - w]) < cfg.ss_tol * (1 - 1e-6)
        real = dynamics._screen_limits
        picked, calls = {}, []

        def recorded(*args):
            out = real(*args)
            # Entry i of a chunk's amplitudes is its window i + 1's, counted
            # from the last boundary row before the chunk's first tested row.
            base = max(edges[len(calls)] - w, 0)
            calls.append(out[0])
            for i, amplitude in enumerate(out[0].tolist()):
                picked.setdefault(base + (i + 1) * w, []).append(amplitude)
            return out

        monkeypatch.setattr(dynamics, "_screen_limits", recorded)
        check_screen(monkeypatch)
        assert assert_same_run(dynamics.vacuum_state(), eff, 0.03, cfg) == ("steady", k)
        assert len(calls) >= 4
        assert {row: picked[row] for row in chosen} == {
            row: [amplitude] * len(picked[row]) for row, amplitude in chosen.items()
        }

    @classmethod
    def falling_stop(cls, cfg, k):
        """``cfg`` with the tolerance that stops the FALLING run at step k."""
        want, _, _ = plain_evolve(dynamics.vacuum_state(), cls.FALLING, 0.03, cfg)
        w = cfg.window_steps
        worst = np.max(steady_ratios(want, w), axis=1)
        assert np.all(worst[1:] < worst[:-1] * (1 - 4e-4))
        return dataclasses.replace(cfg, ss_tol=math.sqrt(worst[k - 1 - w] * worst[k - w]))

    @staticmethod
    def counting(monkeypatch, name, size=lambda args: len(args[0])):
        """Record ``size`` of the arguments of each call of the dynamics
        function ``name``: by default, the length of the first."""
        real, calls = getattr(dynamics, name), []
        monkeypatch.setattr(
            dynamics, name, lambda *args: calls.append(size(args)) or real(*args)
        )
        return calls

    def test_benchmark_run_of_200_windows_screens_four_chunks(self, monkeypatch):
        # The time-domain workload's evolve at the reference joint root: 200
        # windows of 1000 steps, unsteady, in chunks of 16, 32, 64 and 88
        # windows; the first chunk's tests start at its second window.
        filled = self.counting(monkeypatch, "_chunk_finite")
        tested = self.counting(monkeypatch, "_first_steady")
        _, point, working = blockade_point()
        eff = P.derive_effective(working, j=point.J, theta=point.theta)
        traj = dynamics.evolve(dynamics.vacuum_state(), eff, working.e_eg)
        assert not traj.steady and len(traj) == 200_001
        assert filled == [16, 32, 64, 88]
        assert tested == [15_001, 32_000, 64_000, 88_000]

    def test_stop_in_the_first_chunk_fills_one_chunk(self, monkeypatch):
        cfg = dynamics.IntegratorConfig(dt=2e-2, t_max=60.0, ss_window=0.5, ss_tol=NEVER_STEADY)
        cfg = self.falling_stop(cfg, 300)
        filled = self.counting(monkeypatch, "_chunk_finite")
        grown = self.counting(monkeypatch, "_power_increments", lambda args: args[1])
        assert assert_same_run(dynamics.vacuum_state(), self.FALLING, 0.03, cfg) == ("steady", 300)
        # The step powers of a window, then the window increments of the
        # longest chunk the run could take, 64 of its 120 windows; a run of
        # 16 windows takes the first chunk's 15.
        assert filled == [self.C] and grown == [25, 63]
        grown.clear()
        cfg = dataclasses.replace(cfg, t_max=8.0, ss_tol=NEVER_STEADY)
        assert assert_same_run(dynamics.vacuum_state(), self.FALLING, 0.03, cfg) == ("t_max", 400)
        assert filled == [self.C] * 2 and grown == [25, self.C - 1]

    @pytest.mark.parametrize("edge", [16, 48, 112, 240])
    @pytest.mark.parametrize("side", [-1, 0, 1])
    def test_steady_stop_on_a_doubled_chunk_edge(self, edge, side):
        # Windows of 5 steps, so the edges fall at steps 80, 240, 560 and
        # 1200; the stop at the edge is the chunk's last step.
        cfg = dynamics.IntegratorConfig(dt=2e-2, t_max=60.0, ss_window=0.1, ss_tol=NEVER_STEADY)
        k = 5 * edge + side
        assert 5 * edge in chunk_edges(cfg)
        cfg = self.falling_stop(cfg, k)
        assert assert_same_run(dynamics.vacuum_state(), self.FALLING, 0.03, cfg) == ("steady", k)

    def test_run_reaches_capped_chunks(self, monkeypatch):
        # Windows of 2 steps: chunks of 16, 32, 64 and 128 windows, then
        # three more of 128 (steps 480-1248), and the stop 37 steps into the
        # next, each screen checked against the exhaustive one.
        cfg = dynamics.IntegratorConfig(dt=2e-2, t_max=40.0, ss_window=0.04, ss_tol=NEVER_STEADY)
        k = 1248 + 37
        assert chunk_edges(cfg)[4:8] == [480, 736, 992, 1248]
        cfg = self.falling_stop(cfg, k)
        calls = check_screen(monkeypatch)
        assert assert_same_run(dynamics.vacuum_state(), self.FALLING, 0.03, cfg) == ("steady", k)
        rows = [n for _, _, n, _ in calls]
        assert rows[:7] == [31, 64, 128, 256, 256, 256, 256] and len(calls) == 8
        assert calls[-1][0] == 36 and all(got is None for got, _, _, _ in calls[:-1])

    @pytest.mark.parametrize(
        "ss_window, t_max, hold",
        [
            # Whole chunks of 16 and 32 windows of 30 steps (1440 steps),
            # then twenty windows and a 10-step partial one.
            (0.3, 20.5, True),
            (0.3, 20.5, False),
            # Whole chunks of 16, 32 and 64 windows of 10 steps (1120
            # steps), then a 5-step partial window; and four whole chunks
            # ending on the edge at 240 windows.
            (0.1, 11.25, True),
            (0.1, 24.0, False),
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
        # Step 203 or 197 of windows of 10 steps: inside the chunk of 32
        # windows from step 160 to 480, off every window boundary.
        edges = chunk_edges(cfg)
        chunk = int(np.searchsorted(edges, k - 1, side="right")) - 1
        offset = k - 1 - edges[chunk]
        assert outcome == "nonfinite" and chunk >= 1
        assert 0 < offset < edges[chunk + 1] - edges[chunk] - 1
        assert offset % cfg.window_steps != 0
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


class TestScreen:
    """evolve samples its steady test's margins at every ``_SAMPLE_ROWS``-th
    row of a chunk and bounds the rows between; it must find the first
    passing row the exhaustive screen finds."""

    R = dynamics._SAMPLE_ROWS

    @pytest.mark.parametrize("hold", [True, False])
    @pytest.mark.parametrize(
        "where, k, t_max",
        [
            # In the chunk of 64 windows of 25 steps from step 1200.
            ("sample", 1201 + 3 * 32, 60.0),
            ("gap", 1201 + 3 * 32 + 16, 60.0),
            # The last step of its first 16 windows.
            ("last", 1600, 60.0),
            # The last step of the chunk of 32 windows from step 400.
            ("end", 1200, 60.0),
            # 1260 steps: chunks of 400 and 800 steps, two windows of 25,
            # then a 10-step rest window from step 1251.
            ("rest", 1255, 25.2),
        ],
    )
    def test_first_steady_row_matches_the_exhaustive_screen(
        self, monkeypatch, hold, where, k, t_max
    ):
        cfg = dynamics.IntegratorConfig(
            dt=2e-2, t_max=t_max, ss_window=0.5, ss_tol=NEVER_STEADY, hold_c0g=hold
        )
        w = cfg.window_steps
        edges = chunk_edges(cfg)
        start = edges[int(np.searchsorted(edges, k, side="left")) - 1]
        # The chunk's first tested row, start + 1, leads its first gap.
        offset = k - (start + 1)
        assert start == (400 if where == "end" else 1200)
        assert {"sample": offset % self.R == 0, "gap": offset % self.R == self.R // 2,
                "last": k == start + TestChunks.C * w, "end": k in edges,
                "rest": k > start + 2 * w}[where]
        want, _, n = plain_evolve(dynamics.vacuum_state(), TestChunks.FALLING, 0.03, cfg)
        worst = np.max(steady_ratios(want, w), axis=1)
        before = worst[: k - w].min()
        assert worst[k - w] < before * (1 - 1e-4)
        cfg = dataclasses.replace(cfg, ss_tol=math.sqrt(before * worst[k - w]))
        calls = check_screen(monkeypatch)
        run = assert_same_run(dynamics.vacuum_state(), TestChunks.FALLING, 0.03, cfg)
        assert run == ("steady", k)
        got, limit, _, _ = calls[-1]
        assert got == offset and np.isfinite(limit).all()

    def test_screen_matches_the_exhaustive_screen_on_seeded_runs(self, monkeypatch):
        # Runs of a few chunks each that stop steady or reach t_max, from
        # vacuum and from random states, with the ground amplitude held and
        # free and windows of 1 to 300 steps.  The screen must rule out a
        # good share of their rows, or this shows little.
        calls = check_screen(monkeypatch)
        rng = np.random.default_rng(43)
        outcomes = []
        for trial in range(30):
            eff = make_eff(
                rng.uniform(-1.0, 1.0),
                rng.uniform(-1.0, 0.5),
                rng.uniform(0.2, 1.5),
                rng.uniform(0.0, 1.2),
                rng.uniform(-math.pi, math.pi),
                omega=rng.uniform(0.005, 0.1),
            )
            dt = rng.uniform(5e-3, 5e-2)
            w = int(rng.integers(1, 301))
            cfg = dynamics.IntegratorConfig(
                dt=dt,
                t_max=int(rng.integers(20 * w, 60 * w)) * dt,
                ss_window=w * dt,
                ss_tol=10.0 ** rng.uniform(-9.0, -3.0),
                hold_c0g=bool(trial % 2),
            )
            initial = random_state(rng) if trial % 3 else dynamics.vacuum_state()
            outcomes.append(assert_same_run(initial, eff, 0.03, cfg)[0])
        assert min(outcomes.count(name) for name in ("steady", "t_max")) >= 5
        got, limits, rows, exact = zip(*calls)
        assert len(calls) > 50 and all(np.isfinite(limit).all() for limit in limits)
        assert sum(exact) < 0.6 * sum(rows)

    def test_refilled_chunk_rules_out_no_rows(self, monkeypatch):
        # Decaying amplitudes near 1e299: no bound from them clears the
        # first two chunks (steps 0-400 and 400-1200), which the plain
        # iteration refills, and the later ones (1200-2800 and 2800-4000)
        # take the products.  Neither a refilled chunk nor the next one,
        # whose partner rows a window earlier lie in it, may rule out a row.
        eff = make_eff(0.5, 0.0, 0.5, 1.0, 0.3, omega=0.0)
        vec = 3e299 * (1.0 + np.random.default_rng(16).uniform(size=5) * (1 + 1j))
        vec[0] = 0.0
        initial = dynamics.AmplitudeState.from_vector(vec)
        cfg = dynamics.IntegratorConfig(dt=1e-2, t_max=40.0, ss_window=0.25, ss_tol=NEVER_STEADY)
        cleared = []
        real = dynamics._chunk_finite
        monkeypatch.setattr(
            dynamics, "_chunk_finite", lambda *a: cleared.append(real(*a)) or cleared[-1]
        )
        calls = check_screen(monkeypatch)
        assert assert_same_run(initial, eff, 0.0, cfg) == ("t_max", 4000)
        assert cleared == [False, False, True, True] and len(calls) == 4
        for i, (_, limit, _, _) in enumerate(calls):
            if i < 3:
                assert np.isinf(limit).all()
            else:
                assert np.isfinite(limit).all()

    def test_exact_test_stops_at_the_first_passing_gap(self, monkeypatch):
        # A stop 75 steps into the chunk of 64 windows from step 1200, after
        # which every row passes: the exact test may run on at most twice
        # the gaps from the first it could not rule out up to the stop's,
        # not on the rest of the chunk.
        cfg = dynamics.IntegratorConfig(dt=2e-2, t_max=60.0, ss_window=0.5, ss_tol=NEVER_STEADY)
        k = 1200 + 75
        cfg = TestChunks.falling_stop(cfg, k)
        real_first, real_window = dynamics._first_steady, dynamics._window_steady
        calls = []

        def first(cur, prev, ss_tol, amplitude, limit):
            calls.append([cur, prev, amplitude, limit, 0])
            return real_first(cur, prev, ss_tol, amplitude, limit)

        def window(states, *args):
            calls[-1][-1] += len(states)
            return real_window(states, *args)

        monkeypatch.setattr(dynamics, "_first_steady", first)
        monkeypatch.setattr(dynamics, "_window_steady", window)
        assert assert_same_run(dynamics.vacuum_state(), TestChunks.FALLING, 0.03, cfg) == ("steady", k)
        cur, prev, amplitude, limit, exact = calls[-1]
        assert np.isfinite(limit).all()
        samples = np.arange(0, len(cur), self.R)
        amplitude = np.broadcast_to(amplitude, samples.shape)
        c = cur[samples, amplitude]
        ruled = np.abs(c - prev[samples, amplitude]) - cfg.ss_tol * np.abs(c) > limit
        stop_gap = (k - 1201) // self.R
        first_open = int(np.argmin(ruled))
        assert first_open <= stop_gap and not ruled[stop_gap:].any()
        assert 0 < exact <= 2 * self.R * (stop_gap - first_open + 1)
        assert len(cur) == 1600

    @pytest.mark.parametrize("limit", [math.inf, math.nan])
    def test_limit_that_is_not_finite_rules_out_no_rows(self, limit):
        # Every sample fails by far, and the one passing row sits inside a
        # gap; a finite limit rules its gap out, one that is not finite
        # rules out nothing.
        rng = np.random.default_rng(18)
        prev = rng.normal(size=(200, 5)) + 1j * rng.normal(size=(200, 5))
        cur = 1.5 * prev
        cur[77] = prev[77]
        assert exhaustive_first_steady(cur, prev, 1e-6) == 77
        assert dynamics._first_steady(cur, prev, 1e-6, 2, 0.0) is None
        assert dynamics._first_steady(cur, prev, 1e-6, 2, limit) == 77

    def test_bounds_that_are_not_finite_give_no_finite_limit(self):
        # A step map whose norm overflows the gap's spread, or boundary
        # rows that are not finite, leave the screen no finite limit.
        eff = make_eff(50.0, -0.5, 1.0, 0.3, 0.0, omega=0.01)
        step = dynamics.rk4_propagator(dynamics.generator_from_effective(eff, 0.01), 1e12)
        powers = dynamics._power_increments(step - np.eye(5), 3)
        with np.errstate(over="ignore", invalid="ignore"):
            reach, rounding = dynamics._screen_constants(step, powers, 1e-6)
            lift = np.concatenate((np.eye(5), (step - np.eye(5)).T), axis=1)
            ends = np.ones((4, 5), dtype=complex)
            _, limits = dynamics._screen_limits(ends, lift, 1e-6, reach, rounding)
            assert not math.isfinite(reach) and not np.isfinite(limits).any()
            ends[2, 1] = complex(math.nan, 0.0)
            _, limits = dynamics._screen_limits(ends, np.eye(5, 10), 1e-6, 1.0, 1e-12)
        assert not np.isfinite(limits).any()

    def test_exact_test_runs_on_at_most_one_row_in_32(self, monkeypatch):
        # At the reference joint root, the time-domain workload's evolve, the
        # five-amplitude test may run on at most 1/32 of the rows, and the
        # screen may take the moduli of at most two amplitudes a sample row.
        # An exhaustive screen, of one amplitude or five, fails this.
        class CountingNumpy:
            active = False
            moduli = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def abs(self, a, *args, **kwargs):
                if self.active:
                    self.moduli += np.size(a)
                return np.abs(a, *args, **kwargs)

        counting = CountingNumpy()
        monkeypatch.setattr(dynamics, "np", counting)
        rows = {"tested": 0, "exact": 0}
        real_first, real_window = dynamics._first_steady, dynamics._window_steady

        def first(cur, *args):
            rows["tested"] += len(cur)
            counting.active = True
            try:
                return real_first(cur, *args)
            finally:
                counting.active = False

        def window(states, *args):
            rows["exact"] += len(states)
            return real_window(states, *args)

        monkeypatch.setattr(dynamics, "_first_steady", first)
        monkeypatch.setattr(dynamics, "_window_steady", window)
        _, point, working = blockade_point()
        eff = P.derive_effective(working, j=point.J, theta=point.theta)
        traj = dynamics.evolve(dynamics.vacuum_state(), eff, working.e_eg)
        assert not traj.steady and rows["tested"] == len(traj) - 1000
        assert rows["exact"] <= rows["tested"] / 32
        assert 0 < counting.moduli <= 2 * math.ceil(rows["tested"] / 32) + 10 * rows["exact"]


def delayed_correlation():
    """The exact post-detection evolution at the joint root, by the
    weak-drive pure-state method (Carmichael, Brecha and Rice, Opt. Commun.
    82, 73 (1991)).

    A detection maps the analytic steady amplitudes to x0 = (c1g, sqrt2
    c2g, c1e, 0, 0).  The held generator is linear with constant
    coefficients, so x(tau) = x* + V e^{Lambda tau} V^-1 (x0 - x*), with V
    and Lambda from its eigendecomposition and x* its fixed point at c0g =
    c1g.  ``states(taus)`` gives x at each delay, shape (len(taus), 5).
    """
    base, point, working = blockade_point()
    eff = P.derive_effective(working, j=point.J, theta=point.theta)
    c = steady_state.analytic_amplitudes(eff, base.e_eg).as_vector()
    x0 = np.array([c[1], SQRT2 * c[3], c[4], 0.0, 0.0])
    a = dynamics.generator_from_effective(eff, base.e_eg)
    lam, v = np.linalg.eig(a)
    fixed = x0.copy()
    fixed[1:] = np.linalg.solve(a[1:, 1:], -a[1:, 0] * x0[0])
    coef = np.linalg.solve(v, x0 - fixed)

    def states(taus):
        return fixed + (np.exp(np.outer(taus, lam)) * coef) @ v.T

    return SimpleNamespace(
        eff=eff, e_eg=base.e_eg, x0=x0, c1g=c[1], fixed=fixed, v=v, lam=lam,
        states=states,
    )


class TestDelayedCorrelation:
    """g2(tau) = |c1g(tau)|^2/|c1g_ss|^4 after a detection at the joint root,
    normalised by the analytic c1g_ss (``delayed_correlation``)."""

    def test_modal_state_matches_rk4(self):
        # Measured: 1.53e-14 of the largest amplitude over 40 001 steps, with
        # cond(V) = 1.776.
        d = delayed_correlation()
        assert np.linalg.cond(d.v) == pytest.approx(1.776, abs=1e-3)
        cfg = dynamics.IntegratorConfig(dt=1e-3, t_max=40.0, ss_tol=NEVER_STEADY)
        start = dynamics.AmplitudeState.from_vector(d.x0)
        traj = dynamics.evolve(start, d.eff, d.e_eg, cfg)
        assert len(traj) == 40_001
        scale = np.max(np.abs(traj.amplitudes))
        assert np.max(np.abs(d.states(traj.times) - traj.amplitudes)) <= 1e-13 * scale

    def test_antibunching_window_first_peak_and_slowest_rate(self):
        d = delayed_correlation()
        taus = np.linspace(0.0, 40.0, 40_001)
        g2 = np.abs(d.states(taus)[:, 1]) ** 2 / abs(d.c1g) ** 4
        assert g2[0] < 1e-20
        assert taus[np.argmax(g2 >= 0.5)] == pytest.approx(3.196, abs=1e-9)
        rise = np.diff(g2)
        peak = np.argmax((rise[:-1] > 0.0) & (rise[1:] <= 0.0)) + 1
        assert g2[peak] == pytest.approx(1.813471, rel=1e-6)
        assert taus[peak] == pytest.approx(6.981, abs=1e-9)
        rate = -max(d.lam.real[np.abs(d.lam) > 1e-12])
        assert rate == pytest.approx(0.08501095, rel=1e-7)
        cfg = dynamics.IntegratorConfig(dt=1e-2, t_max=1.0)
        start = dynamics.AmplitudeState.from_vector(d.x0)
        traj = dynamics.evolve(start, d.eff, d.e_eg, cfg)
        assert rate == pytest.approx(traj.slowest_decay, rel=1e-12)

    def test_normalisation_is_the_analytic_amplitude(self):
        # At tau = 40 the last transient still holds e^{-0.085 * 40} = 3.3%.
        # Normalised by the held fixed point's c1g instead, g2 would tend to
        # 1 exactly and read 1.04078 here.
        d = delayed_correlation()
        at_40 = abs(d.states([40.0])[0, 1]) ** 2
        assert at_40 / abs(d.c1g) ** 4 == pytest.approx(1.04025, rel=1e-5)
        assert at_40 / abs(d.fixed[1]) ** 2 == pytest.approx(1.04078, rel=1e-5)


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
