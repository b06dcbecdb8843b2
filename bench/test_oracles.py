"""Properties the benchmark's oracles must have.

    python3 -m pytest bench/test_oracles.py

The oracles do not use the package, so neither do these tests: parameter
sets are plain namespaces with the package's field names.
"""

import math
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402


def reference(**changes):
    """The package's reference working point (g = 10, delta_p = 100, ...)."""
    fields = dict(
        kappa=1.0, kappa1=0.2, kappa2=1.8, g=10.0, delta_p=100.0, delta_he=None,
        delta_e=-0.5, delta_c=0.0, e_he=0.0, e_eg=0.01, b_in=0.02,
        phi_p=0.0, phi_he=0.0, phi_eg=0.0, direction=SimpleNamespace(value="forward"),
    )
    fields.update(changes)
    return SimpleNamespace(**fields)


def random_points(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k1 = rng.uniform(0.1, 0.6)
        yield oracles.point_of(reference(
            kappa1=k1, kappa2=2.0 - k1, g=rng.uniform(8.0, 12.0),
            delta_e=rng.uniform(-1.0, -0.2), e_eg=rng.uniform(0.005, 0.02),
            b_in=rng.uniform(0.01, 0.03), delta_c=rng.uniform(-1.0, 3.0)))


@pytest.mark.parametrize("joint", [True, False])
def test_every_root_cancels_the_c2g_numerator(joint):
    count = 0
    for pt in random_points(40, seed=7):
        for j, theta, dc in oracles.cancellation_roots(pt, joint):
            trial = replace(pt, j=j, theta=theta, delta_c=dc)
            assert abs(oracles.c2g_numerator(trial)) <= 1e-9 * oracles.numerator_scale(trial)
            if joint:
                assert dc == pytest.approx(pt.shift + j * j / pt.delta_e, rel=1e-12)
            count += 1
    assert count >= 40


def test_resultant_vanishes_at_every_root():
    for pt in random_points(10, seed=3):
        for joint in (True, False):
            coef = oracles.resultant(pt, joint)
            assert len(coef) - 1 == (10 if joint else 8)
            for j, _, _ in oracles.cancellation_roots(pt, joint):
                assert abs(np.polynomial.polynomial.polyval(j, coef)) <= 1e-9 * np.abs(coef).max() * max(1.0, j ** 10)


def test_fixed_detuning_root_missed_by_multistart_newton():
    roots = oracles.cancellation_roots(oracles.point_of(reference(delta_c=2.5)), joint=False)
    assert any(abs(j + 3.964) < 1e-3 and abs(theta - 1.166) < 1e-3 for j, theta, _ in roots)
    assert any(abs(j - 0.2528) < 1e-3 for j, _, _ in roots)


def test_closed_form_matches_linear_steady_state_at_weak_drive():
    pt = oracles.point_of(reference(delta_c=1.0), j=0.5, theta=0.3)
    exact = oracles.linear_steady_state(pt)
    a = -1j * oracles.effective_hamiltonian(pt)
    assert np.abs(a[1:] @ exact.state).max() <= 1e-12 * np.abs(exact.state).max()
    assert exact.decay > 0.0
    weak = oracles.stats_of(exact.state)["g2"]
    assert oracles.closed_form(pt)["g2"] == pytest.approx(weak, rel=1e-2)


@pytest.mark.parametrize("n_max", [2, 3])
@pytest.mark.parametrize("changes", [{}, {"e_he": 2.0}])
def test_full_model_mode_is_the_slowest_eigenvector(n_max, changes):
    params = reference(**changes)
    h = oracles.full_model_hamiltonian(params, n_max)
    lam, vec = oracles.full_model_mode(params, n_max)
    assert np.linalg.norm(h @ vec - lam * vec) <= 1e-10 * np.linalg.norm(vec)
    assert lam.imag >= np.linalg.eigvals(h).imag.max() - 1e-15


def test_full_model_steady_state_at_nonzero_coupling():
    g2 = oracles.full_model_g2(reference(e_he=2.0), 2)
    assert g2 == pytest.approx(0.94244, abs=5e-5)
    assert math.isfinite(oracles.full_model_g2(reference(), 3))
