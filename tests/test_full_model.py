import cmath
import dataclasses
import math

import numpy as np
import pytest

from cavityblockade import cli
from cavityblockade import full_model as fm
from cavityblockade import optimizer
from cavityblockade import params as P

pytestmark = pytest.mark.filterwarnings(
    "ignore::cavityblockade.params.RegimeWarning"
)


def bare_params(**kw) -> P.SystemParams:
    """A Raman-detuned set: delta_c = 0.3, delta_p = 100, delta_he = 99.5
    and delta_e = -e_he**2/delta_p, so delta_eg = 0, unless overridden."""
    defaults = dict(kappa1=0.2, kappa2=1.8, delta_c=0.3, delta_he=99.5)
    defaults.update(kw)
    defaults.setdefault(
        "delta_e", -defaults.get("e_he", 0.0) ** 2 / defaults.get("delta_p", 100.0)
    )
    return P.SystemParams(**defaults)


def joint_root_params() -> P.SystemParams:
    """The reference point at its optimal joint root (J, theta, delta_c),
    encoded as e_he, phi_p and delta_c."""
    base = P.reference_params()
    point = optimizer.solve_optimal(base)
    return dataclasses.replace(
        base,
        e_he=P.implied_e_he(point.J, base),
        phi_p=point.theta,
        delta_c=point.delta_c_opt,
    )


def dim_of(n_max: int) -> int:
    return 3 * (n_max + 1)


def assemble_hamiltonian(p: P.SystemParams, n_max: int, t: float) -> np.ndarray:
    """Independent dense assembly of the rotating-frame Hamiltonian, with
    its detunings computed here from the fields of ``p``."""
    delta_eg = p.delta_e + p.e_he**2 / p.delta_p
    delta_he = p.delta_p - delta_eg if p.delta_he is None else p.delta_he
    kappa_in = p.kappa1 if p.direction is P.Direction.FORWARD else p.kappa2
    dim = dim_of(n_max)
    h = np.zeros((dim, dim), dtype=complex)
    drive = math.sqrt(kappa_in) * p.b_in * cmath.exp(1j * p.phi_p)
    microwave = p.e_eg * cmath.exp(1j * p.phi_eg)
    pump = p.e_he * cmath.exp(1j * p.phi_he) * cmath.exp(
        1j * (delta_he + delta_eg) * t
    )
    couple = p.g * cmath.exp(-1j * p.delta_p * t)
    for n in range(n_max + 1):
        for li, level in enumerate(fm.LEVELS):
            k = 3 * n + li
            h[k, k] = n * p.delta_c - 0.5j * p.kappa * n
            if level == "e":
                h[k, k] += delta_eg
        g_n, e_n, h_n = 3 * n, 3 * n + 1, 3 * n + 2
        h[e_n, g_n] += microwave
        h[g_n, e_n] += microwave.conjugate()
        h[h_n, e_n] += pump
        h[e_n, h_n] += pump.conjugate()
        if n < n_max:
            root = math.sqrt(n + 1.0)
            for li in range(3):
                h[3 * (n + 1) + li, 3 * n + li] += drive * root
                h[3 * n + li, 3 * (n + 1) + li] += drive.conjugate() * root
            h[3 * (n + 1), h_n] += couple * root
            h[h_n, 3 * (n + 1)] += np.conj(couple * root)
    return h


def reference_run(p, n_max, t_end, dt, initial=None, collect_from=None):
    """Per-step RK4 on the independently assembled H(t), with the
    collection rule of FullModel.run (step 0 is never collected)."""
    n_steps = int(round(t_end / dt))
    first = n_steps + 1
    if collect_from is not None:
        first = max(1, math.ceil(collect_from / dt))
    if initial is None:
        x = np.zeros(dim_of(n_max), dtype=complex)
        x[0] = 1.0
    else:
        x = np.array(initial, dtype=complex)
    times, states = [], []
    for k in range(n_steps):
        a0, a1, a2 = (
            -1j * assemble_hamiltonian(p, n_max, k * dt + c)
            for c in (0.0, dt / 2.0, dt)
        )
        k1 = a0 @ x
        k2 = a1 @ (x + dt / 2.0 * k1)
        k3 = a1 @ (x + dt / 2.0 * k2)
        k4 = a2 @ (x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k + 1 >= first:
            times.append((k + 1) * dt)
            states.append(x)
    return x, np.array(times), np.array(states).reshape(-1, dim_of(n_max))


def random_resonant_params(rng):
    return dataclasses.replace(
        P.reference_params(),
        delta_c=rng.uniform(-3, 3),
        delta_e=rng.uniform(-2, 2),
        e_he=rng.uniform(0, 5),
        e_eg=rng.uniform(0, 0.5),
        b_in=rng.uniform(0.05, 0.5),
        phi_p=rng.uniform(-3, 3),
        phi_he=rng.uniform(-3, 3),
        phi_eg=rng.uniform(-3, 3),
    )


class TestModelStructure:
    def test_pure_decay_rates(self):
        p = bare_params(delta_c=0.0)
        assert p.delta_c == 0.0 and p.delta_eg == 0.0
        model = fm.FullModel(p)
        rng = np.random.default_rng(1)
        state = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
        deriv = -1j * (model.hamiltonian(0.0) @ state)
        for n in range(model.n_max + 1):
            for level in fm.LEVELS:
                k = fm.state_index(n, level)
                assert deriv[k] == pytest.approx(
                    -0.5 * p.kappa * n * state[k], rel=1e-14, abs=1e-15
                )

    def test_static_when_nothing_rotates(self):
        # Raman resonant with exactly representable detunings: delta_p = 128,
        # delta_eg = 0.375 + 16/128 = 0.5 and delta_he = 127.5, so the
        # rephased H' does not rotate at all.
        p = P.SystemParams(
            kappa1=0.2,
            kappa2=1.8,
            g=3.0,
            delta_p=128.0,
            delta_e=0.375,
            delta_c=0.3,
            e_he=4.0,
            e_eg=0.01,
            b_in=0.02,
        )
        assert p.delta_eg == 0.5
        assert p.delta_he_effective + p.delta_eg == p.delta_p
        model = fm.FullModel(p)
        assert model.raman_resonant
        h0 = model.hamiltonian(0.0, frame=True)
        for t in (0.37, 2.9, 117.0):
            assert np.array_equal(model.hamiltonian(t, frame=True), h0)

    def test_hamiltonian_matches_independent_assembly(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            base = dataclasses.replace(
                P.reference_params(),
                delta_c=rng.uniform(-3, 3),
                delta_e=rng.uniform(-2, 2),
                e_he=rng.uniform(0, 5),
                e_eg=rng.uniform(0, 0.05),
                phi_p=rng.uniform(-3, 3),
                phi_he=rng.uniform(-3, 3),
                phi_eg=rng.uniform(-3, 3),
            )
            model = fm.FullModel(base, n_max=2)
            t = float(rng.uniform(0, 10))
            got = model.hamiltonian(t)
            want = assemble_hamiltonian(base, 2, t)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
            state = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
            assert np.allclose(
                -1j * (got @ state), -1j * (want @ state), rtol=1e-12, atol=1e-12
            )

    def test_rephased_frame(self):
        # H'(t) = U^dagger H(t) U + delta_p P_h with U = e^{i delta_p t} on
        # every |h> state: only the drive rotates, at delta_he + delta_eg - delta_p.
        p = bare_params(g=3.0, e_he=1.5, e_eg=0.2, b_in=0.3, phi_he=0.7)
        model = fm.FullModel(p)
        in_h = np.tile(np.array(fm.LEVELS) == "h", model.n_max + 1)
        for t in (0.0, 0.37, 2.9):
            u = np.exp(1j * p.delta_p * t * in_h)
            want = (
                u.conj()[:, None] * assemble_hamiltonian(p, 2, t) * u[None, :]
                + np.diag(np.where(in_h, p.delta_p, 0.0))
            )
            assert np.allclose(model.hamiltonian(t, frame=True), want, rtol=1e-12, atol=1e-12)
        period = 2.0 * math.pi / 0.5
        assert np.allclose(
            model.hamiltonian(period, frame=True),
            model.hamiltonian(0.0, frame=True),
            rtol=1e-12,
            atol=1e-12,
        )

    def test_raman_resonance_rule(self):
        # |delta_he + delta_eg - delta_p| <= 1e-12 * max(1, |delta_p|,
        # |delta_he|, |delta_eg|) = 1.005e-10 at the reference point.
        base = P.reference_params()
        assert fm.FullModel(base).raman_resonant
        assert fm.FullModel(raman_offset(base, 0.9e-10)).raman_resonant
        assert not fm.FullModel(raman_offset(base, 1.1e-10)).raman_resonant
        assert not fm.FullModel(raman_offset(base, -1e-9)).raman_resonant

    def test_n_max_bounds(self):
        with pytest.raises(ValueError, match=r"n_max must be in \[1, 4\], got 5"):
            fm.FullModel(bare_params(), n_max=5)
        with pytest.raises(ValueError, match="n_max"):
            fm.FullModel(bare_params(), n_max=0)
        assert fm.FullModel(bare_params(), n_max=1).dim == 6
        assert fm.FullModel(bare_params(), n_max=4).dim == 15


class TestRun:
    def test_norm_never_grows(self):
        model = fm.FullModel(joint_root_params())
        _, _, states = model.run(30.0, 1e-3, collect_from=0.0)
        norms = np.sum(np.abs(states) ** 2, axis=-1)
        assert float(np.max(norms)) <= 1.0 + 1e-6
        assert np.all(np.diff(norms) <= 1e-12)

    def test_collection_window(self):
        model = fm.FullModel(bare_params(b_in=0.02))
        final, times, states = model.run(1.0, 0.1, collect_from=0.5)
        assert times.tolist() == pytest.approx([0.5, 0.6, 0.7, 0.8, 0.9, 1.0])
        assert states.shape == (6, model.dim)
        assert np.array_equal(states[-1], final)

    def test_no_collection_by_default(self):
        model = fm.FullModel(bare_params(b_in=0.02))
        final, times, states = model.run(0.5, 0.1)
        assert times.shape == (0,)
        assert states.shape == (0, model.dim)
        assert final.shape == (model.dim,)

    def test_argument_validation(self):
        model = fm.FullModel(bare_params())
        with pytest.raises(ValueError, match="positive"):
            model.run(1.0, 0.0)
        with pytest.raises(ValueError, match="shape"):
            model.run(1.0, 0.1, initial=np.zeros(4, dtype=complex))

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4])
    @pytest.mark.parametrize("explicit_initial", [False, True])
    def test_run_matches_per_step_rk4(self, n_max, explicit_initial, monkeypatch):
        # Short blocks so 600 steps span several, the last one partial.
        monkeypatch.setattr(fm, "_BLOCK_STEPS", 64)
        rng = np.random.default_rng(40 + n_max)
        resonant = random_resonant_params(rng)
        detuned = bare_params(g=10.0, e_he=1.5, e_eg=0.2, b_in=0.3)
        dim = dim_of(n_max)
        initial = None
        if explicit_initial:
            initial = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            initial /= np.linalg.norm(initial)
        t_end, dt = 0.6, 1e-3
        for p, is_resonant in ((resonant, True), (detuned, False)):
            model = fm.FullModel(p, n_max)
            assert model.raman_resonant is is_resonant
            want_final, want_times, want_states = reference_run(
                p, n_max, t_end, dt, initial, collect_from=0.0
            )
            scale = float(np.max(np.abs(want_states)))
            for collect_from, first in ((None, 601), (0.0, 1), (0.2505, 251)):
                final, times, states = model.run(
                    t_end, dt, initial=initial, collect_from=collect_from
                )
                assert np.array_equal(times, want_times[first - 1 :])
                assert states.shape == (601 - first, dim)
                assert np.max(np.abs(final - want_final)) <= 1e-12 * scale
                if len(states):
                    assert np.max(np.abs(states - want_states[first - 1 :])) <= 1e-12 * scale
                    assert np.array_equal(states[-1], final)

    @pytest.mark.parametrize("collect_from", [None, 0.0, 50.0])
    def test_unstable_step_raises(self, collect_from):
        resonant = P.reference_params()
        detuned = bare_params(g=10.0, e_he=1.5, b_in=0.3)
        for p, is_resonant in ((resonant, True), (detuned, False)):
            model = fm.FullModel(p)
            assert model.raman_resonant is is_resonant
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(ArithmeticError, match="non-finite"):
                    model.run(100.0, 0.5, collect_from=collect_from)

    def test_photon_occupations_normalized(self):
        rng = np.random.default_rng(3)
        states = rng.normal(size=(17, 9)) + 1j * rng.normal(size=(17, 9))
        occ = fm.photon_occupations(states, n_max=2)
        total = occ[0] + occ[1] + occ[2]
        assert np.allclose(total, 1.0, rtol=0.0, atol=1e-12)


def raman_offset(base: P.SystemParams, offset: float) -> P.SystemParams:
    """``base`` with the upper-leg drive ``offset`` from Raman resonance."""
    return dataclasses.replace(
        base, delta_he=base.delta_he_effective + offset
    )


def g2_of(states: np.ndarray, n_max: int) -> float:
    occ = fm.photon_occupations(states, n_max)
    p1, p2 = float(np.mean(occ[1])), float(np.mean(occ[2]))
    return 2.0 * p2 / (p1 + 2.0 * p2) ** 2


E_HE_2 = dataclasses.replace(P.reference_params(), e_he=2.0, delta_c=0.0)


class TestValidation:
    def test_reference_point_agrees(self):
        report = fm.validate_effective(P.reference_params())
        assert report.passed
        assert report.rel_diff < 0.2
        assert report.n_max == 2
        text = report.as_text()
        assert "pass = true" in text
        assert f"rel_diff = {report.rel_diff!r}" in text

    @pytest.mark.parametrize("n_max", [2, 3])
    def test_resonant_g2_is_the_eigenvector(self, n_max):
        # The runner-up mode decays at ~5e-3 kappa at both points, so a run of
        # 100/kappa followed by averaging windows kept e^{-0.49} of it.  At
        # the joint root (J != 0) the effective g2 is ~6e-30, so the
        # comparison fails there; the full model's g2 is still checked.
        in_h = np.tile(np.array(fm.LEVELS) == "h", n_max + 1)
        for p, agrees in ((E_HE_2, True), (joint_root_params(), False)):
            lam, vec = np.linalg.eig(
                assemble_hamiltonian(p, n_max, 0.0)
                + np.diag(np.where(in_h, p.delta_p, 0.0))
            )
            want = g2_of(vec[:, np.argmax(lam.imag)][None], n_max)
            report = fm.validate_effective(p, n_max=n_max)
            assert report.g2_full == pytest.approx(want, rel=1e-9, abs=0.0)
            assert report.passed is agrees
            top, second = np.sort(lam.imag)[::-1][:2]
            assert report.gap == pytest.approx(top - second, rel=1e-9)
            assert report.settle_time == pytest.approx(math.log(50.0) / report.gap)

    def test_off_resonance_is_the_floquet_mode(self):
        # Beat period T = 2 pi/20: the monodromy matrix of the independent
        # per-step RK4, rephased by U(T)^dagger, and its dominant mode
        # followed through one period.  This reference steps in the lab
        # frame and the package in the rephased one; the two RK4
        # discretizations differ by about 5e-9 in g2 here.
        base = raman_offset(E_HE_2, -20.0)
        assert not fm.FullModel(base).raman_resonant
        period = 2.0 * math.pi / 20.0
        n_steps = round(period / 1e-3)
        dt = period / n_steps
        lab = np.stack(
            [
                reference_run(base, 2, period, dt, initial=column)[0]
                for column in np.eye(dim_of(2))
            ],
            axis=1,
        )
        in_h = np.tile(np.array(fm.LEVELS) == "h", 3)
        mu, vec = np.linalg.eig(np.exp(-1j * base.delta_p * period * in_h)[:, None] * lab)
        order = np.argsort(-np.abs(mu))
        _, _, states = reference_run(
            base, 2, period, dt, initial=vec[:, order[0]], collect_from=0.0
        )
        want = g2_of(states, 2)
        report = fm.validate_effective(base)
        assert report.g2_full == pytest.approx(want, rel=1e-8, abs=0.0)
        want_gap = math.log(abs(mu[order[0]]) / abs(mu[order[1]])) / period
        assert report.gap == pytest.approx(want_gap, rel=1e-6)

    def test_off_resonance_step_converged(self):
        base = raman_offset(E_HE_2, 3.0)
        coarse = fm.validate_effective(base)
        fine = fm.validate_effective(base, dt=5e-4)
        assert coarse.g2_full == pytest.approx(fine.g2_full, rel=1e-9, abs=0.0)
        assert coarse.gap == pytest.approx(fine.gap, rel=1e-9)

    def test_slow_beat_is_refused(self):
        # T = 2 pi/0.05 ~ 126 is longer than 100/kappa.
        with pytest.raises(ValueError, match="T = 125.66"):
            fm.validate_effective(raman_offset(E_HE_2, 0.05))

    def test_decoupled_cavity_matches_exactly(self):
        # All atom couplings and drives off: both models reduce to the same
        # truncated driven cavity, whatever level the atom sits in.  The
        # three copies' top modes decay alike, so the gap is round-off.
        p = dataclasses.replace(
            P.reference_params(), g=0.0, e_he=0.0, e_eg=0.0, b_in=5e-4
        )
        report = fm.validate_effective(p)
        assert report.rel_diff < 1e-6
        for value in (report.g2_full, report.g2_effective, report.rel_diff, report.gap):
            assert math.isfinite(value)
        assert report.gap < 1e-12
        assert report.settle_time > 1e12
        text = report.as_text()
        assert f"gap = {report.gap!r}" in text
        assert f"settle_time = {report.settle_time!r}" in text

    def test_undriven_cavity_reports_nan(self):
        # No photons: g2 is undefined on both sides, and the vacuum states
        # tie for the slowest decay.
        report = fm.validate_effective(dataclasses.replace(P.reference_params(), b_in=0.0))
        assert math.isnan(report.g2_full) and not report.passed
        assert report.gap == 0.0 and report.settle_time == math.inf

    def test_breakdown_is_loud(self):
        p = dataclasses.replace(P.reference_params(), delta_p=10.0)
        with pytest.warns(P.RegimeWarning, match="unreliable"):
            report = fm.validate_effective(p)
        assert not report.passed
        assert report.g2_full > 10.0 * report.g2_effective

    def test_argument_validation(self):
        p = P.reference_params()
        with pytest.raises(ValueError, match="tolerance"):
            fm.validate_effective(p, tolerance=0.0)
        with pytest.raises(ValueError, match="dt"):
            fm.validate_effective(p, dt=0.0)
        # Without two-photon states g2 cannot be measured, only misreported as 0.
        with pytest.raises(ValueError, match="n_max must be at least 2"):
            fm.validate_effective(p, n_max=1)

    def test_report_text_shape(self):
        report = fm.ValidationReport(
            g2_full=1.25,
            g2_effective=1.0,
            rel_diff=0.25,
            passed=False,
            n_max=2,
            gap=0.004,
            settle_time=977.98,
        )
        lines = report.as_text().strip().split("\n")
        assert lines[0] == "g2_full = 1.25"
        assert "pass = false" in lines
        assert lines[-2:] == ["gap = 0.004", "settle_time = 977.98"]


class TestCli:
    def test_slow_beat_exits_1(self, capsys):
        argv = ["validate-full", "--e-he", "2", "--delta-c", "0", "--delta-he", "100.45"]
        assert cli.main(argv) == 1
        assert "T = 628.319" in capsys.readouterr().err

    @pytest.mark.parametrize("n_max", ["1", "5"])
    def test_unusable_n_max_exits_1(self, n_max, capsys):
        assert cli.main(["validate-full", "--n-max", n_max]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "n_max" in captured.err

    def test_failed_comparison_exits_0(self, capsys):
        # validate-full reports; it does not gate.
        assert cli.main(["validate-full", "--delta-p", "10"]) == 0
        assert "pass = false" in capsys.readouterr().out
