import cmath
import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import CHILD_WARNINGS

from cavityblockade import optimizer, sweeps
from cavityblockade import params as P
from cavityblockade import steady_state


def quiet_effective(params, **kw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", P.RegimeWarning)
        return P.derive_effective(params, **kw)


class TestDeriveEffective:
    def test_direct_substitution(self):
        p = P.SystemParams(g=10.0, delta_p=100.0, e_he=30.0)
        eff = quiet_effective(p)
        assert eff.G == 1.0
        assert eff.J == 3.0
        assert eff.theta == 0.0

    def test_decoupled_atom(self):
        eff = quiet_effective(P.SystemParams(g=0.0, delta_p=7.0, e_he=2.0))
        assert eff.G == 0.0
        assert eff.J == 0.0

    def test_forward_drive_amplitude(self):
        p = P.SystemParams(kappa1=0.2, kappa2=1.8, b_in=0.02, delta_p=100.0)
        eff = P.derive_effective(p)
        assert eff.omega == math.sqrt(0.2) * 0.02
        assert abs(eff.omega - 0.0089443) < 1e-7

    def test_backward_drive_amplitude(self):
        p = P.SystemParams(
            kappa1=0.2, kappa2=1.8, b_in=0.02, direction=P.Direction.BACKWARD
        )
        assert P.derive_effective(p).omega == math.sqrt(1.8) * 0.02

    def test_m_n_imaginary_parts(self):
        p = P.SystemParams(g=4.0, delta_p=100.0, delta_c=0.7, delta_e=-0.5)
        eff = P.derive_effective(p)
        assert eff.M.imag == -0.5 * p.kappa
        assert eff.N.imag == -0.5 * p.kappa
        assert eff.M.real == pytest.approx(p.delta_c - eff.G, abs=1e-15)
        assert eff.N.real == pytest.approx(p.delta_c + p.delta_e, abs=1e-15)

    def test_gauge_combination_only(self):
        base = P.SystemParams(phi_p=0.3, phi_he=-0.4, phi_eg=1.1)
        shifted = dataclasses.replace(
            base, phi_p=base.phi_p + 0.77, phi_he=base.phi_he + 0.77
        )
        assert P.derive_effective(shifted).theta == pytest.approx(
            P.derive_effective(base).theta, abs=1e-12
        )

    def test_linear_scaling_of_g_and_j(self):
        lam = 3.0
        p = P.SystemParams(g=2.0, delta_p=40.0, e_he=1.5)
        q = P.SystemParams(g=lam * 2.0, delta_p=lam * 40.0, e_he=lam * 1.5)
        ep, eq = quiet_effective(p), quiet_effective(q)
        assert eq.G == pytest.approx(lam * ep.G, rel=1e-14)
        assert eq.J == pytest.approx(lam * ep.J, rel=1e-14)

    def test_direct_j_theta_overrides(self):
        p = P.reference_params()
        eff = quiet_effective(p, j=-0.7, theta=2.0)
        assert eff.J == -0.7
        assert eff.theta == 2.0

    @pytest.mark.parametrize(
        "override, value",
        [("j", math.nan), ("j", math.inf), ("theta", math.inf), ("theta", -math.inf)],
    )
    def test_non_finite_override_rejected_by_name(self, override, value):
        name = "J" if override == "j" else "theta"
        with pytest.raises(P.ConfigError, match=f"^{name} must be finite"):
            quiet_effective(P.reference_params(), **{override: value})

    def test_zero_delta_p_rejected(self):
        with pytest.raises(ZeroDivisionError):
            P.derive_effective(P.SystemParams(delta_p=0.0))

    def test_marginal_detuning_warns(self):
        with pytest.warns(P.RegimeWarning, match="adiabatic"):
            P.derive_effective(P.SystemParams(g=10.0, delta_p=50.0))

    def test_strong_cavity_drive_warns(self):
        with pytest.warns(P.RegimeWarning, match="weak-driving"):
            P.derive_effective(P.SystemParams(b_in=0.2))

    def test_strong_microwave_warns(self):
        with pytest.warns(P.RegimeWarning, match="weak-driving"):
            P.derive_effective(P.SystemParams(e_eg=0.5))

    def test_near_resonant_atomic_drive_warns(self):
        # delta_p/g = 10.1 keeps the adiabatic check quiet so only the
        # pump-detuning condition fires.
        p = P.SystemParams(g=10.0, delta_p=101.0, e_he=30.0)
        with pytest.warns(P.RegimeWarning, match="far detuned"):
            P.derive_effective(p)


class TestWarningAttribution:
    """A RegimeWarning names the line that called the public function, not
    a line inside the package.  reference_params() sits on |delta_p/g| = 10,
    so every call below warns."""

    CALLS = {
        "derive_effective": lambda p: P.derive_effective(p),
        "effective_arrays": lambda p: P.effective_arrays(p, {"delta_c": np.zeros(3)}),
        "run_sweep": lambda p: sweeps.run_sweep(
            sweeps.SweepSpec(sweeps.SweepAxis("delta_c", -1.0, 1.0, 3)), p
        ),
        "nonreciprocal_point": lambda p: optimizer.nonreciprocal_point(p, 0.0),
    }

    @pytest.mark.parametrize("name", CALLS)
    def test_warning_names_the_calling_file(self, name):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            self.CALLS[name](P.reference_params())
        regime = [w for w in record if issubclass(w.category, P.RegimeWarning)]
        assert any("delta_p/g|" in str(w.message) for w in regime)
        assert {w.filename for w in regime} == {__file__}


class TestSystemParams:
    def test_mirror_sum_invariant(self):
        with pytest.raises(ValueError, match="kappa1"):
            P.SystemParams(kappa1=0.4, kappa2=1.8)

    def test_rates_positive(self):
        with pytest.raises(ValueError):
            P.SystemParams(kappa1=0.0, kappa2=2.0)
        with pytest.raises(ValueError):
            P.SystemParams(kappa=-1.0, kappa1=-1.0, kappa2=-1.0)

    def test_amplitudes_non_negative(self):
        for field in ("g", "e_he", "e_eg", "b_in"):
            with pytest.raises(ValueError, match=field):
                P.SystemParams(**{field: -0.1})

    def test_finite_fields(self):
        with pytest.raises(ValueError, match="finite"):
            P.SystemParams(delta_c=math.inf)

    def test_direction_type_checked(self):
        with pytest.raises(ValueError, match="direction"):
            P.SystemParams(direction="forward")

    @pytest.mark.filterwarnings("ignore::cavityblockade.params.RegimeWarning")
    def test_delta_eg_relation(self):
        p = P.SystemParams(delta_e=-0.5, e_he=30.0, delta_p=100.0)
        assert P.effective_arrays(p, {})["delta_eg"] == -0.5 + 30.0 * 30.0 / 100.0

    @pytest.mark.filterwarnings("ignore::cavityblockade.params.RegimeWarning")
    def test_delta_he_defaults_to_raman_resonance(self):
        p = P.SystemParams(delta_e=-0.5, e_he=30.0, delta_p=100.0)
        c = P.effective_arrays(p, {})
        assert c["delta_he"] == p.delta_p - c["delta_eg"]
        q = dataclasses.replace(p, delta_he=17.0)
        assert P.effective_arrays(q, {})["delta_he"] == 17.0

    def test_kappa_in_by_direction(self):
        p = P.SystemParams(kappa1=0.2, kappa2=1.8)
        assert p.kappa_in == 0.2
        assert dataclasses.replace(p, direction=P.Direction.BACKWARD).kappa_in == 1.8

    def test_reference_preset(self):
        p = P.reference_params()
        assert (p.kappa1, p.kappa2) == (0.2, 1.8)
        assert (p.g, p.delta_p) == (10.0, 100.0)
        assert (p.delta_e, p.b_in, p.e_eg) == (-0.5, 0.02, 0.01)
        assert p.direction is P.Direction.FORWARD


class TestMirrorSwap:
    def test_swap_example(self):
        p = P.SystemParams(kappa1=0.2, kappa2=1.8)
        q = P.mirror_swap(p)
        assert (q.kappa1, q.kappa2) == (1.8, 0.2)
        assert q.direction is P.Direction.BACKWARD

    def test_involution(self):
        p = P.reference_params()
        assert P.mirror_swap(P.mirror_swap(p)) == p

    def test_symmetric_cavity_only_flips_direction(self):
        p = P.SystemParams(kappa1=1.0, kappa2=1.0)
        q = P.mirror_swap(p)
        assert q == dataclasses.replace(p, direction=P.Direction.BACKWARD)

    def test_swap_preserves_drive_amplitude(self):
        # Relabeling the mirrors and the direction together keeps the
        # physical input mirror, so the drive amplitude is unchanged.
        p = P.reference_params()
        q = P.mirror_swap(p)
        assert q.kappa_in == p.kappa_in
        assert quiet_effective(q).omega == quiet_effective(p).omega


class TestWithCoupling:
    @pytest.mark.parametrize(
        "delta_p, j, shifted",
        [
            (100.0, 2.0, False),
            (100.0, -2.0, True),
            (-100.0, 2.0, True),
            (-100.0, -2.0, False),
        ],
    )
    def test_pi_shift_where_j_delta_p_is_negative(self, delta_p, j, shifted):
        p = P.SystemParams(g=10.0, delta_p=delta_p, phi_he=0.25, phi_eg=-1.5)
        q = P.with_coupling(p, j, 3.0)
        assert q.e_he == 20.0
        # theta + pi is not wrapped, as _derive takes theta as given.
        assert q.phi_p == 3.0 + 0.25 - 1.5 + (math.pi if shifted else 0.0)
        assert dataclasses.replace(q, e_he=p.e_he, phi_p=p.phi_p) == p

    def test_zero_coupling_raises(self):
        with pytest.raises(ZeroDivisionError, match="g = 0"):
            P.with_coupling(P.SystemParams(g=0.0), 1.0, 0.0)

    def test_encoded_point_is_the_override_point(self):
        # Seeded draws over both signs of delta_p and nonzero phi_he, phi_eg:
        # the encoded point keeps J e^{-i theta} and its statistics are those
        # of the j=/theta= override.
        rng = np.random.default_rng(46)
        for _ in range(2000):
            p = P.SystemParams(
                kappa1=(k1 := rng.uniform(0.1, 1.9)),
                kappa2=2.0 - k1,
                g=rng.uniform(0.5, 20.0),
                delta_p=rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 500.0),
                delta_e=rng.uniform(-2.0, 2.0),
                delta_c=rng.uniform(-4.0, 4.0),
                e_eg=rng.uniform(0.0, 0.05),
                b_in=0.02,
                phi_he=rng.uniform(-math.pi, math.pi),
                phi_eg=rng.uniform(-math.pi, math.pi),
                direction=rng.choice(list(P.Direction)),
            )
            j = rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 10.0)
            theta = rng.uniform(-math.pi, math.pi)
            q = P.with_coupling(p, j, theta)
            c = P._derive(q, {})[0]
            coupling = j * cmath.exp(-1j * theta)
            assert abs(c["j"] * cmath.exp(-1j * c["theta"]) - coupling) <= 1e-14 * abs(
                coupling
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", P.RegimeWarning)
                encoded = steady_state.steady_stats(q)
                override = steady_state.steady_stats(p, j=j, theta=theta)
            for name in ("p1", "p2", "g2", "n_cavity_paper", "n_cavity_full", "norm"):
                assert getattr(encoded, name) == pytest.approx(
                    getattr(override, name), rel=1e-12
                ), name


class TestConfigText:
    def test_roundtrip(self):
        text = """
        # working point
        kappa1 = 0.2
        kappa2 = 1.8
        g = 10
        delta_p = 100   # far detuned
        delta_e = -0.5
        b_in = 0.02
        e_eg = 0.01
        direction = backward
        """
        p = P.params_from_mapping(P.parse_config(text))
        assert p.kappa1 == 0.2 and p.g == 10.0
        assert p.direction is P.Direction.BACKWARD

    def test_unknown_key(self):
        with pytest.raises(P.ConfigError, match="unknown key"):
            P.parse_config("coupling = 3")

    def test_duplicate_key(self):
        with pytest.raises(P.ConfigError, match="duplicate"):
            P.parse_config("g = 1\ng = 2")

    def test_bad_number(self):
        with pytest.raises(P.ConfigError, match="could not parse"):
            P.parse_config("g = ten")

    def test_bad_direction(self):
        with pytest.raises(P.ConfigError, match="direction"):
            P.parse_config("direction = sideways")

    def test_missing_assignment(self):
        with pytest.raises(P.ConfigError, match="key = value"):
            P.parse_config("just words")

    def test_mapping_layered_over_base(self):
        base = P.reference_params()
        p = P.params_from_mapping({"delta_c": 2.5}, base=base)
        assert p.delta_c == 2.5
        assert p.g == base.g

    def test_mapping_rejects_invalid_combination(self):
        # One mirror alone slides the other; both named must sum to 2 kappa,
        # and a slide must leave both rates positive.
        with pytest.raises(P.ConfigError, match="must equal 2"):
            P.params_from_mapping({"kappa1": 0.4, "kappa2": 1.8})
        with pytest.raises(P.ConfigError, match="positive"):
            P.params_from_mapping({"kappa1": 2.5})

    def test_load_config(self, tmp_path):
        path = tmp_path / "point.cfg"
        path.write_text("delta_c = 1.25\ndirection = forward\n")
        p = P.load_config(path, base=P.reference_params())
        assert p.delta_c == 1.25

    def test_config_error_is_value_error(self):
        assert issubclass(P.ConfigError, ValueError)


def scipy_modules_after(code: str) -> str:
    """Standard output of a fresh interpreter that runs ``code`` and then
    prints the scipy modules it has loaded."""
    src = str(Path(P.__file__).resolve().parents[1])
    proc = subprocess.run(
        [
            sys.executable,
            "-c",
            f"{code}; import sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src, "PYTHONWARNINGS": CHILD_WARNINGS},
        check=True,
    )
    return proc.stdout


def test_import_leaves_scipy_unloaded():
    # scipy adds several hundred milliseconds to start-up, and the package never
    # needs it: only the tests use it (scipy.linalg.expm).
    assert scipy_modules_after("import cavityblockade").strip() == "[]"


def test_nonreciprocal_scan_leaves_scipy_unloaded():
    # No forward root lies in |J| <= 5 at this target, so the verb takes the
    # (J, theta) scan of optimizer.nonreciprocal_point.
    argv = (
        "nonreciprocal --kappa1 0.5919 --kappa2 1.4081 --g 8.011 --delta-e -0.7073 "
        "--e-eg 0.0059 --b-in 0.0228 --target-delta-c -0.7264"
    ).split()
    code = f"from cavityblockade.cli import main; main({argv!r})"
    assert scipy_modules_after(code).splitlines()[-1] == "[]"
