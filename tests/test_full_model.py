import cmath
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import CHILD_WARNINGS

from cavityblockade import cli
from cavityblockade import full_model as fm
from cavityblockade import optimizer
from cavityblockade import params as P
from cavityblockade import steady_state

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
    """The reference point at its optimal joint root (J, theta, delta_c)."""
    point = optimizer.solve_optimal(P.reference_params())
    at_root = dataclasses.replace(P.reference_params(), delta_c=point.delta_c_opt)
    return P.with_coupling(at_root, point.J, point.theta)


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


def assemble_rephased(p: P.SystemParams, n_max: int, t: float) -> np.ndarray:
    """H'(t) = U^dagger H(t) U + delta_p P_h from ``assemble_hamiltonian``'s
    H(t), with U = e^{i delta_p t} on every |h> state: only the drive
    rotates, at delta_he + delta_eg - delta_p."""
    in_h = np.tile(np.array(fm.LEVELS) == "h", n_max + 1)
    u = np.exp(1j * p.delta_p * t * in_h)
    return (
        u.conj()[:, None] * assemble_hamiltonian(p, n_max, t) * u[None, :]
        + np.diag(np.where(in_h, p.delta_p, 0.0))
    )


def reference_run(p, n_max, t_end, dt, initial=None, collect_from=None):
    """Per-step RK4 on the independently assembled H(t) from ``initial``
    (|0, g> when None): (final state, times, states), the states collected
    from the first step at or after ``collect_from`` (None collects none;
    step 0 never is)."""
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
        assert p.delta_c == 0.0 and p.delta_e + p.e_he * p.e_he / p.delta_p == 0.0
        model = fm.FullModel(p)
        rng = np.random.default_rng(1)
        state = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
        deriv = -1j * (model.hamiltonian(0.0) @ state)
        for n in range(model.n_max + 1):
            for level in fm.LEVELS:
                k = fm.state_index(n, level)
                # H' shifts every |h> state by delta_p (assemble_rephased).
                shift = p.delta_p if level == "h" else 0.0
                assert deriv[k] == pytest.approx(
                    (-0.5 * p.kappa * n - 1j * shift) * state[k], rel=1e-14, abs=1e-15
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
        delta_eg = p.delta_e + p.e_he * p.e_he / p.delta_p
        assert delta_eg == 0.5
        assert (p.delta_p - delta_eg) + delta_eg == p.delta_p
        model = fm.FullModel(p)
        assert model.raman_resonant
        h0 = model.hamiltonian(0.0)
        for t in (0.37, 2.9, 117.0):
            assert np.array_equal(model.hamiltonian(t), h0)

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
            want = assemble_rephased(base, 2, t)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
            state = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
            assert np.allclose(
                -1j * (got @ state), -1j * (want @ state), rtol=1e-12, atol=1e-12
            )

    def test_rephased_frame(self):
        # Off Raman resonance H'(t) rotates at delta_he + delta_eg - delta_p,
        # here -0.5, so it repeats after 2 pi/0.5.
        p = bare_params(g=3.0, e_he=1.5, e_eg=0.2, b_in=0.3, phi_he=0.7)
        model = fm.FullModel(p)
        for t in (0.0, 0.37, 2.9):
            want = assemble_rephased(p, 2, t)
            assert np.allclose(model.hamiltonian(t), want, rtol=1e-12, atol=1e-12)
        period = 2.0 * math.pi / 0.5
        assert np.allclose(
            model.hamiltonian(period),
            model.hamiltonian(0.0),
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

    def test_bare_detuning_is_the_derived_one(self):
        # e_he**2 through the C library's pow rounds one ulp away from
        # e_he * e_he here; the full model reads _derive's product.
        p = dataclasses.replace(P.reference_params(), e_he=20.059112069609753)
        k = fm.state_index(0, "e")
        delta_eg = fm.FullModel(p).hamiltonian(0.0)[k, k].real
        assert delta_eg == p.delta_e + p.e_he * p.e_he / p.delta_p
        assert delta_eg == P.effective_arrays(p, {})["delta_eg"]

    @pytest.mark.parametrize(
        "inputs", [{"e_he": 1e200}, {"e_he": 1e10, "delta_p": 1e-300}], ids=["e_he", "delta_p"]
    )
    def test_non_finite_hamiltonian_is_numerical_failure(self, inputs):
        # delta_eg = delta_e + e_he**2/delta_p overflows in both.
        p = dataclasses.replace(P.reference_params(), **inputs)
        with pytest.raises(P.NumericalFailure, match="not finite"):
            fm.FullModel(p)

    def test_run_is_a_stub(self):
        # The name stays for the benchmark's tracer; there is no integrator.
        with pytest.raises(NotImplementedError, match="steady_mode"):
            fm.FullModel(P.reference_params()).run(1.0)

    def test_n_max_bounds(self):
        with pytest.raises(ValueError, match=r"n_max must be in \[1, 4\], got 5"):
            fm.FullModel(bare_params(), n_max=5)
        with pytest.raises(ValueError, match="n_max"):
            fm.FullModel(bare_params(), n_max=0)
        assert fm.FullModel(bare_params(), n_max=1).dim == 6
        assert fm.FullModel(bare_params(), n_max=4).dim == 15


class TestBitPins:
    """sha256 of H'(t) and of ``steady_mode``'s states and gap at seeded
    points: for each n_max from 1 to 4, a Raman-resonant draw, two draws 3
    and -20 off resonance and an undriven point.  The digests were recorded
    before H' was assembled as its operator sum; they pin every entry and
    its order.

    ``steady_mode``'s eig rounds by the OpenBLAS thread count: the digests
    were recorded with two threads, and with one the off-resonance draws at
    n_max 3 and 4 differ.  The count is fixed when numpy loads, so those
    digests are computed in a child process started with two threads."""

    STEADY_CHILD = """
import hashlib, json
import numpy as np
import test_full_model as t
digests = []
for p, n_max, _ in t.TestBitPins.points():
    states, gap = t.fm.FullModel(p, n_max).steady_mode()
    digests.append(hashlib.sha256(states.tobytes() + np.float64(gap).tobytes()).hexdigest())
print(json.dumps(digests))
"""

    PINS = [
        ("3fe384229ab0948e4465638488fd82dbec848d0310018b1dd90ff2777c182b58",
         "f25f3e29f2c1ea798b55fc0bbab611f403884b3fa1a059559839d3db1f707540"),
        ("2a812835f1b690f22194d0e251857a2330dcc4dca2bc0a1fea3568e57542a5ef",
         "e76fa20f5a8d2a77ffc36dda29c359c52b3443eddecde83b827c92a5fa628db6"),
        ("3c25b0e5a0794f397baff6132016d3bc4739647845b2496b9affcba43d8f9ea3",
         "5289cd77a6b93937f605d6c7f953e8b5d9e5701ebd7975cec4ca84ceb0520705"),
        ("9a709b5642ee5700db8b563e3476c18e6d2d3f95eb7e24b3947447a6d4acb91e",
         "0a3fe174a79be254805c092047df0d6a7845c80786fcb847e21db0088337646e"),
        ("a662b4c4590780213ac78bfcee2ac486b3d1cdaab05f2f687d338d8a4dd65799",
         "4ad3d6e0dabb7fafc609e082ec6b54733d8ac88287e37c24ca51aa883b203d07"),
        ("bf665434fd63f6421b847f1e9516e3c83263700b91e7fddc4c93b359a1090b4f",
         "93b8c885ae54261924d926a45fe2dcf15b43d4086dbcc2f682255cb7d6c90180"),
        ("0f32cab490e4916207644e9aee1c704acbe469625ad5038115ae29d0aa298ea5",
         "b3b7cd837007fbb23a1a638620213f1dda122cd2740f15450c4b8460688148b5"),
        ("9e276fc3337ef5256eebb55a09769525ea136ccddd307ab26921064d5f6a80ab",
         "129c3ade5e093069c8fab8818e7ea805384a5f5ada78e0f6fbb2c275da4af4d3"),
        ("63c4fd589e7962b4983b7b56767edf2199c21c6345e894938ed62091b8cfb785",
         "50f83abfaf1c8c87c45d309ef869852243cbcdc98c43bda1871ffe4dc20cf14a"),
        ("749948aa3292916596b84c49c9bcf5a55c583eedf42d16a60054ae8f93d3a45b",
         "4889ea8cc20ace984e1984eb408028dcfa6d1d31b2ac3019e0e7417878da92b7"),
        ("93e8100b0943a3c7446627d5d0c2b04c91fac86e1b29f853983746772a707ac5",
         "5b3229b5af1e6044d4fcfd51816e1a88d8bce04ddb680b67c4951484adf5469e"),
        ("4d811efd9ff73b5adaedc433948abd48ca2d0f600633dd90ba91a63a66fa6ee4",
         "11cda55df3c596868ed6afca5341bf2fe6a25500746870448660c829b8db3851"),
        ("1e2f881d5d88d73d0cdd585482165581ea077e2670ac1301b9523e35476fb909",
         "17bc5e29d87e276245103d44e9f9f9232daf8f9bda919b284ed7f0014171a450"),
        ("631e81095e43c0ce65c2fc41871f8b5f22731b1d546d3e82da2d3e8ea753ebd0",
         "e67cffe7531d99d21b658a5ff34586ffa356ef7dcbf553775e2f6dd097cad764"),
        ("d2c38326e86dcf40ae09f450160e3987d65791aaea4cd9aa832c807898d456a5",
         "4b515048cae4c6d4a7f791faffedeb3640562af54c902c672d11fb46a88dbe45"),
        ("b98ac7b9c7d829732ea6b1b75a7f8c167e007c9be9094bba1d224e624162810f",
         "435884644433260f14d5798df59997751af0ab2785159a936c54e68b96232e99"),
    ]

    @staticmethod
    def points():
        rng = np.random.default_rng(2033)
        for n_max in (1, 2, 3, 4):
            for offset in (None, 3.0, -20.0):
                p = random_resonant_params(rng)
                if offset is not None:
                    p = raman_offset(p, offset)
                yield p, n_max, float(rng.uniform(0, 10))
            # Undriven off resonance: A = 0 and the Floquet modes tie, so the
            # signs of A's zero entries decide which one eig returns.
            undriven = dataclasses.replace(
                p, e_he=0.0, b_in=0.0, phi_he=3.0, delta_he=None
            )
            yield raman_offset(undriven, 3.0), n_max, 1.0

    def test_hamiltonian_and_steady_mode_bits(self):
        paths = (Path(fm.__file__).resolve().parents[1], Path(__file__).resolve().parent)
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": "2",
            "PYTHONWARNINGS": CHILD_WARNINGS,
            "PYTHONPATH": os.pathsep.join(map(str, paths)),
        }
        child = subprocess.run(
            [sys.executable, "-c", self.STEADY_CHILD],
            capture_output=True,
            text=True,
            env=env,
        )
        assert child.returncode == 0, child.stderr
        got = []
        for (p, n_max, t), steady in zip(self.points(), json.loads(child.stdout)):
            h = fm.FullModel(p, n_max).hamiltonian(t)
            got.append((hashlib.sha256(h.tobytes()).hexdigest(), steady))
        assert got == self.PINS


class TestLossOnly:
    @pytest.mark.parametrize("n_max", [2, 3, 4])
    @pytest.mark.parametrize("detuned", [False, True], ids=["joint-root", "detuned"])
    def test_cavity_loss_is_the_only_loss(self, n_max, detuned):
        # The anti-Hermitian part of H'(t) is -(kappa/2) a^dag a, which is
        # negative semidefinite: cavity loss is the only loss, and no
        # state's norm can grow.
        p = joint_root_params()
        if detuned:
            p = raman_offset(p, 3.0)
        model = fm.FullModel(p, n_max)
        assert model.raman_resonant is not detuned
        _, number, *_ = fm._operators(n_max)
        loss = -0.5 * p.kappa * number
        for t in (0.0, 0.37, 2.9, 117.0):
            h = model.hamiltonian(t)
            bound = 1e-12 * np.linalg.norm(h, 2)
            assert np.max(np.abs((h - h.conj().T) / 2j - loss)) <= bound


def test_photon_occupations_normalized():
    rng = np.random.default_rng(3)
    states = rng.normal(size=(17, 9)) + 1j * rng.normal(size=(17, 9))
    occ = fm.photon_occupations(states, n_max=2)
    total = occ[0] + occ[1] + occ[2]
    assert np.allclose(total, 1.0, rtol=0.0, atol=1e-12)


def raman_offset(base: P.SystemParams, offset: float) -> P.SystemParams:
    """``base`` with the upper-leg drive ``offset`` from Raman resonance,
    delta_he = delta_p - delta_eg + offset with delta_eg = delta_e +
    e_he**2/delta_p."""
    delta_eg = base.delta_e + base.e_he * base.e_he / base.delta_p
    return dataclasses.replace(base, delta_he=base.delta_p - delta_eg + offset)


def g2_of(states: np.ndarray, n_max: int) -> float:
    occ = fm.photon_occupations(states, n_max)
    p1, p2 = float(np.mean(occ[1])), float(np.mean(occ[2]))
    return 2.0 * p2 / (p1 + 2.0 * p2) ** 2


E_HE_2 = dataclasses.replace(P.reference_params(), e_he=2.0, delta_c=0.0)


BIG_DETUNING = dataclasses.replace(E_HE_2, delta_p=3000.0, g=300.0, e_he=1.0)


def one_more_harmonic(model: fm.FullModel, monkeypatch):
    """``model.steady_mode()`` at the H it picks, and again with one
    harmonic more: its 8H + 1 samples give the edge weight at H by FFT, and
    a threshold of half that makes the loop take exactly one more step."""
    states, gap = model.steady_mode()
    harmonics = (len(states) - 1) // 8
    weight = (np.abs(np.fft.fft(states, axis=0)) ** 2).sum(axis=1)
    edge = (weight[harmonics] + weight[-harmonics]) / weight.sum()
    monkeypatch.setattr(fm, "_EDGE_WEIGHT", edge / 2.0)
    more_states, more_gap = model.steady_mode()
    assert harmonics >= 1 and len(more_states) == len(states) + 8
    return (g2_of(states, model.n_max), gap), (g2_of(more_states, model.n_max), more_gap)


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
        # followed through one period.  The package solves Shirley's
        # Fourier matrix instead, so the difference, about 6e-9 in g2 and
        # 5e-7 in the gap, is this reference's RK4 error.
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

    @pytest.mark.parametrize("n_max", [2, 3])
    @pytest.mark.parametrize("offset", [3.0, -20.0, 0.5])
    def test_off_resonance_truncation_converged(self, offset, n_max, monkeypatch):
        model = fm.FullModel(raman_offset(E_HE_2, offset), n_max)
        (g2, gap), (more_g2, more_gap) = one_more_harmonic(model, monkeypatch)
        assert g2 == pytest.approx(more_g2, rel=1e-10, abs=0.0)
        assert gap == pytest.approx(more_gap, rel=1e-10, abs=0.0)

    def test_large_detuning_truncation_converged(self, monkeypatch):
        # ||K|| ~ delta_p = 3000 puts the eigenvector's round-off at about
        # 1e-8 in g2, so g2 is held to the 1e-8 of the replaced RK4 test.
        # 662.9010838 is g2 from a one-period RK4 monodromy matrix whose
        # step was converged to 1e-8.
        model = fm.FullModel(raman_offset(BIG_DETUNING, 10.0))
        (g2, gap), (more_g2, more_gap) = one_more_harmonic(model, monkeypatch)
        assert g2 == pytest.approx(more_g2, rel=1e-8, abs=0.0)
        assert gap == pytest.approx(more_gap, rel=1e-10, abs=0.0)
        assert g2 == pytest.approx(662.9010838, rel=1e-7)

    def test_resonant_solve_is_the_static_hamiltonian(self, monkeypatch):
        # H = 0: K is H' itself, bit for bit, and is solved once.
        seen = []
        eig = np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda k: seen.append(k.copy()) or eig(k))
        tilted = dataclasses.replace(E_HE_2, delta_c=-0.7, phi_he=2.0, phi_eg=-1.0)
        for p in (P.reference_params(), E_HE_2, joint_root_params(), tilted):
            model = fm.FullModel(p, 3)
            assert model.raman_resonant
            seen.clear()
            states, _ = model.steady_mode()
            want = model.hamiltonian(0.0)
            assert len(seen) == 1 and seen[0].tobytes() == want.tobytes()
            assert states.shape == (1, model.dim)

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
        # The effective model's |delta_p/g| <= 10 rule is the one check of
        # the ratio: it warns once.
        p = dataclasses.replace(P.reference_params(), delta_p=10.0)
        with pytest.warns(P.RegimeWarning) as caught:
            report = fm.validate_effective(p)
        ratio = [str(w.message) for w in caught if "|delta_p/g|" in str(w.message)]
        assert ratio == ["|delta_p/g| = 1 <= 10; adiabatic elimination is marginal"]
        assert not report.passed
        assert report.g2_full > 10.0 * report.g2_effective

    def test_no_effective_statistics_fails_before_the_full_model(self):
        # e_he * e_he overflows in delta_eg, which would make the full
        # model's H0 non-finite; the effective model's J**2 overflows
        # first, as in ``g2``.
        p = dataclasses.replace(P.reference_params(), e_he=1e200)
        with pytest.raises(steady_state.SingularDenominator, match="not finite"):
            fm.validate_effective(p)
        # Occupations that overflow fail the same way too.
        p = dataclasses.replace(P.reference_params(), b_in=1e150)
        with pytest.raises(P.NumericalFailure, match="finite occupations"):
            fm.validate_effective(p)

    def test_argument_validation(self):
        p = P.reference_params()
        # Without two-photon states g2 cannot be measured, only misreported as 0.
        for n_max in (1, 5):
            message = rf"n_max must be in \[2, 4\] to measure g2, got {n_max}"
            with pytest.raises(ValueError, match=message):
                fm.validate_effective(p, n_max=n_max)

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

    def test_report_text_is_every_field_in_order(self):
        report = fm.ValidationReport(
            g2_full=1.25,
            g2_effective=1.0,
            rel_diff=0.25,
            passed=True,
            n_max=3,
            gap=0.0,
            settle_time=math.inf,
        )
        assert report.as_text() == (
            "g2_full = 1.25\ng2_effective = 1.0\nrel_diff = 0.25\npass = true\n"
            "n_max = 3\ngap = 0.0\nsettle_time = inf\n"
        )


class TestBlockadePoints:
    """The three-level g2 where the effective model has an exact root."""

    # (point, direction, g2_full at n_max = 3, bound on its relative change
    # at n_max = 4); measured gaps: 1.63e-5 at the joint root, at most
    # 5.4e-7 at fig6c and fig6d.
    CASES = [
        ("joint", P.Direction.FORWARD, 1.985006080e-3, 2e-5),
        ("fig6c", P.Direction.FORWARD, 0.04645985684, 1e-6),
        ("fig6c", P.Direction.BACKWARD, 73.45106361, 1e-6),
        ("fig6d", P.Direction.FORWARD, 0.07272759273, 1e-6),
        ("fig6d", P.Direction.BACKWARD, 50.40393818, 1e-6),
    ]

    @pytest.mark.parametrize(
        "point, direction, g2_full, truncation",
        CASES,
        ids=[f"{case[0]}-{case[1].value}" for case in CASES],
    )
    def test_g2_full(self, point, direction, g2_full, truncation):
        if point == "joint":
            p = joint_root_params()
        else:
            target = {"fig6c": 0.0, "fig6d": 2.5}[point]
            at_target = dataclasses.replace(P.reference_params(), delta_c=target)
            j, theta, _ = optimizer.nonreciprocal_point(at_target, target)
            p = dataclasses.replace(
                P.with_coupling(at_target, j, theta), direction=direction
            )
        report = fm.validate_effective(p, n_max=3)
        assert report.g2_full == pytest.approx(g2_full, rel=1e-6)
        deeper = fm.validate_effective(p, n_max=4).g2_full
        assert deeper == pytest.approx(report.g2_full, rel=truncation)

    @pytest.mark.parametrize(
        "target, j_root, g2_full",
        [(0.0, -4.6866, 0.04905068414), (2.5, -4.6399, 0.08595607054)],
    )
    def test_negative_delta_p_root_encodes_to_a_root(self, target, j_root, g2_full):
        # With delta_p < 0 the configured J = g e_he/delta_p is negative, so
        # a root with J < 0 needs no pi shift of theta.  Shifting by the sign
        # of J alone encodes another point: effective g2 0.140 and 11.36,
        # three-level g2 0.0555 and 16.7.
        at_target = dataclasses.replace(
            P.reference_params(), delta_p=-100.0, delta_c=target
        )
        j, theta, _ = optimizer.nonreciprocal_point(at_target, target)
        assert j == pytest.approx(j_root, abs=1e-4)
        p = P.with_coupling(at_target, j, theta)
        assert steady_state.steady_stats(p).g2 < 1e-20
        g2 = fm.validate_effective(p, n_max=3).g2_full
        assert g2 == pytest.approx(g2_full, rel=1e-6)


def weak_drive_amplitudes(p: P.SystemParams, n_max: int = 3) -> np.ndarray:
    """The weak-drive limit of the three-level steady state, from
    ``FullModel``'s own static H' on Raman resonance.

    H' splits by the excitation number N = n + [level is e or h] into the
    part that keeps N (cavity, detunings, g and the e_he drive) and the two
    weak drives, Omega a^dag and E_eg s_eg, that raise it by one.  From
    |0, g> with amplitude 1, c_N = -H_NN^-1 V c_(N-1) for the blocks N = 1
    {|1g>, |0e>, |0h>} and N = 2 {|2g>, |1e>, |1h>}; every other amplitude
    is 0.
    """
    model = fm.FullModel(p, n_max)
    assert model.raman_resonant
    h = model.hamiltonian(0.0)
    number = np.array(
        [n + (level != "g") for n in range(n_max + 1) for level in fm.LEVELS]
    )
    c = np.zeros(model.dim, dtype=complex)
    c[fm.state_index(0, "g")] = 1.0
    for k in (1, 2):
        block, below = number == k, number == k - 1
        drive = h[np.ix_(block, below)] @ c[below]
        c[block] = -np.linalg.solve(h[np.ix_(block, block)], drive)
    return c


def one_way_params(target: float, direction: P.Direction) -> P.SystemParams:
    """The reference point at delta_c = ``target`` with the couplings of its
    one-way working point, driven in ``direction`` (fig6c: 0, fig6d: 2.5)."""
    at_target = dataclasses.replace(P.reference_params(), delta_c=target)
    j, theta, _ = optimizer.nonreciprocal_point(at_target, target)
    return dataclasses.replace(P.with_coupling(at_target, j, theta), direction=direction)


def branch_point(target: float, large: bool) -> tuple[P.SystemParams, float, float]:
    """The reference point at delta_c = ``target`` and the (J, theta) of its
    small- or ``large``-|J| forward root from the fixed-detuning solve."""
    at_target = dataclasses.replace(P.reference_params(), delta_c=target)
    forward = dataclasses.replace(at_target, direction=P.Direction.FORWARD)
    roots = sorted(
        optimizer.find_roots(forward, fix_delta_c=True), key=lambda r: abs(r.J)
    )
    root = roots[-1] if large else roots[0]
    return at_target, root.J, root.theta


class TestWeakDriveLimit:
    """The three-level model's weak-drive limit, two block solves of H'."""

    def test_first_block_is_the_effective_model(self):
        # Measured: c0e to 1.6e-16 relative, |c1g| with difference 0.  The
        # drive phases make c1g agree only in modulus (a gauge).
        p = joint_root_params()
        c = weak_drive_amplitudes(p)
        eff = steady_state.analytic_amplitudes(P.derive_effective(p), p.e_eg)
        c0e = c[fm.state_index(0, "e")]
        assert abs(c0e - eff.c0e) <= 1e-15 * abs(eff.c0e)
        c1g = c[fm.state_index(1, "g")]
        assert abs(c1g) == pytest.approx(abs(eff.c1g), rel=1e-15, abs=0.0)

    def test_joint_root_is_drive_order(self):
        # Eig gives 1.98501e-3 here (TestBlockadePoints), so nearly all of
        # it is drive order.
        g2 = g2_of(weak_drive_amplitudes(joint_root_params())[None], 3)
        assert g2 == pytest.approx(4.1811e-4, rel=1e-4)

    # (delta_c of the one-way point, direction, g2 of the weak-drive limit
    # relative to eig at n_max = 3, minus 1).  Measured -3.8616e-5,
    # -1.0473e-4, -7.4862e-4 and -9.5256e-4.
    AGAINST_EIG = [
        (0.0, P.Direction.FORWARD, -3.8616e-5),
        (0.0, P.Direction.BACKWARD, -1.0473e-4),
        (2.5, P.Direction.FORWARD, -7.4862e-4),
        (2.5, P.Direction.BACKWARD, -9.5256e-4),
    ]

    @pytest.mark.parametrize(
        "target, direction, rel",
        AGAINST_EIG,
        ids=[f"{'fig6c' if t == 0.0 else 'fig6d'}-{d.value}" for t, d, _ in AGAINST_EIG],
    )
    def test_matches_eig_at_the_one_way_points(self, target, direction, rel):
        p = one_way_params(target, direction)
        weak = g2_of(weak_drive_amplitudes(p)[None], 3)
        eig = fm.validate_effective(p, n_max=3).g2_full
        assert weak / eig - 1.0 == pytest.approx(rel, rel=1e-3)

    def test_difference_to_eig_falls_as_the_drive_squared(self):
        # Scaling b_in and e_eg by 0.1 cuts the difference to eig by a factor
        # of 99.84 at fig6c forward, and of 99.88 backward and 99.75 forward
        # on the large-|J| root at delta_c = 1.57 (J = -4.029436, theta =
        # 1.420694).
        at_target, j, theta = branch_point(1.57, large=True)
        points = [one_way_params(0.0, P.Direction.FORWARD)] + [
            dataclasses.replace(P.with_coupling(at_target, j, theta), direction=d)
            for d in (P.Direction.BACKWARD, P.Direction.FORWARD)
        ]
        for p in points:
            weaker = dataclasses.replace(p, b_in=0.1 * p.b_in, e_eg=0.1 * p.e_eg)
            gaps = [
                g2_of(weak_drive_amplitudes(q)[None], 3)
                - fm.validate_effective(q, n_max=3).g2_full
                for q in (p, weaker)
            ]
            assert gaps[0] / gaps[1] == pytest.approx(100.0, rel=0.05)

    # (delta_c, branch, effective backward g2, weak-drive g2 relative to it
    # minus 1 at delta_p = 1e2, 1e3, 1e4 and 1e5).  The small-|J| root at
    # delta_c = 1.57 is in regime; the large-|J| root at 0 is fig6c's.
    DELTA_P_LIMIT = [
        (1.57, False, 1.324025486,
         (-1.473579e-2, -1.525574e-3, -1.530968e-4, -1.531509e-5)),
        (0.0, True, 47.48818467,
         (0.5465609, 4.940264e-2, 4.887446e-3, 4.882161e-4)),
    ]

    @pytest.mark.parametrize(
        "target, large, g2_effective, rels",
        DELTA_P_LIMIT,
        ids=["delta_c-1.57-small", "fig6c"],
    )
    def test_tends_to_the_effective_model_as_delta_p_grows(
        self, target, large, g2_effective, rels
    ):
        # J, theta and G = g^2/delta_p = 1 held, with g = sqrt(delta_p) and
        # e_he = |J| sqrt(delta_p) (with_coupling); driven backward.  The
        # effective model does not move, and the elimination's error falls
        # as 1/delta_p: by 9.66, 9.96, 10.00 a decade in regime and by
        # 11.06, 10.11, 10.01 at fig6c.
        at_target, j, theta = branch_point(target, large)
        got = []
        for delta_p in (1e2, 1e3, 1e4, 1e5):
            q = dataclasses.replace(at_target, g=math.sqrt(delta_p), delta_p=delta_p)
            q = dataclasses.replace(
                P.with_coupling(q, j, theta), direction=P.Direction.BACKWARD
            )
            g2 = steady_state.steady_stats(q).g2
            assert g2 == pytest.approx(g2_effective, rel=1e-9)
            got.append(g2_of(weak_drive_amplitudes(q)[None], 3) / g2 - 1.0)
        assert got == pytest.approx(list(rels), rel=1e-5)
        assert got[-2] / got[-1] == pytest.approx(10.0, rel=2e-3)


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

    def test_non_finite_state_exits_2(self, monkeypatch, capsys):
        def blow_up(self):
            raise ArithmeticError("full-model state became non-finite near t = 1.000")

        monkeypatch.setattr(fm.FullModel, "steady_mode", blow_up)
        assert cli.main(["validate-full"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: full-model state became non-finite near t = 1.000\n"
        )

    def test_tolerance_is_not_an_option(self, capsys):
        # The pass bound is full_model.PASS_REL_DIFF, not a setting.
        assert cli.main(["validate-full", "--tolerance", "0.1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unrecognized arguments: --tolerance 0.1\n"

    def test_step_is_not_an_option(self, capsys):
        assert cli.main(["validate-full", "--dt", "1e-3"]) == 1
        assert "--dt" in capsys.readouterr().err

    def test_large_detuning_off_resonance_reports(self, capsys):
        # delta_he = Raman + 3 at delta_p = 3000, where a fixed RK4 step of
        # 1e-3 overflows; 690.3507741 is g2 from a converged RK4 monodromy.
        delta_eg = -0.5 + 1.0 / 3000.0
        argv = [
            "validate-full", "--delta-p", "3000", "--g", "300", "--e-he", "1",
            "--delta-he", repr(3000.0 - delta_eg + 3.0),
        ]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        values = dict(line.split(" = ") for line in out.splitlines() if line)
        assert math.isfinite(float(values["g2_full"]))
        assert math.isfinite(float(values["gap"]))
        assert float(values["g2_full"]) == pytest.approx(690.3507741, rel=1e-7)

    def test_failed_comparison_exits_0(self, capsys):
        # validate-full reports; it does not gate.
        assert cli.main(["validate-full", "--delta-p", "10"]) == 0
        assert "pass = false" in capsys.readouterr().out

    # fig6d's working point as validate-full flags: J = -3.964 carried by a
    # pi shift of theta, and the same phase less 2 pi.
    FIG6D_E_HE = "39.64000042264327"
    FIG6D_PHI_P = "4.307737685990058"
    FIG6D_PHI_P_WRAPPED = "-1.9754476211895282"

    @classmethod
    def fig6d_report(cls, capsys, phi_p: str) -> dict[str, str]:
        argv = [
            "validate-full", "--e-he", cls.FIG6D_E_HE,
            "--phi-p", phi_p, "--delta-c", "2.5", "--n-max", "3",
        ]
        assert cli.main(argv) == 0
        return dict(
            line.split(" = ") for line in capsys.readouterr().out.splitlines() if line
        )

    def test_fig6d_flags_are_the_encoded_root(self):
        at_target = dataclasses.replace(P.reference_params(), delta_c=2.5)
        j, theta, _ = optimizer.nonreciprocal_point(at_target, 2.5)
        p = P.with_coupling(at_target, j, theta)
        assert float(self.FIG6D_E_HE) == p.e_he
        assert float(self.FIG6D_PHI_P) == p.phi_p
        assert float(self.FIG6D_PHI_P_WRAPPED) == p.phi_p - P.TAU

    def test_exact_root_reports_inf_and_exits_0(self, capsys):
        # The wrapped phase, where the effective g2 is exactly 0.0.
        values = self.fig6d_report(capsys, self.FIG6D_PHI_P_WRAPPED)
        assert values["g2_effective"] == "0.0"
        assert values["rel_diff"] == "inf"
        assert values["pass"] == "false"
        assert float(values["g2_full"]) == pytest.approx(0.07272759273, rel=1e-6)

    def test_root_phase_plus_two_pi_reports_round_off_and_exits_0(self, capsys):
        # The same phase plus 2 pi: theta is taken as given, not wrapped, so
        # the effective g2 is round-off rather than exactly 0.0.
        values = self.fig6d_report(capsys, self.FIG6D_PHI_P)
        assert 0.0 < float(values["g2_effective"]) < 1e-29
        assert values["pass"] == "false"
        assert float(values["g2_full"]) == pytest.approx(0.07272759273, rel=1e-6)
