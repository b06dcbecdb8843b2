"""Independent reference answers for the benchmark's correctness checks.

Nothing here calls the package's solvers.  Every oracle takes plain floats
(a :class:`Point`) and works from the model's equations directly:

* ``cancellation_roots``: the real zeros of the two-photon amplitude, from
  the resultant of the cancellation quadratic and its conjugate-reciprocal
  as a polynomial in J (degree 10 for a joint solve, 8 for a fixed cavity
  detuning);
* ``closed_form``: the perturbative steady amplitudes and g2 of the paper;
* ``linear_steady_state``: the exact fixed point of the 5x5 amplitude
  equations with c0g held at 1, plus the slowest decay rate and the
  eigenvector condition number that bound how far a run can still be from
  it;
* ``full_model_g2``: the steady state of the truncated three-level model,
  the eigenvector with the largest imaginary eigenvalue of the static
  Hamiltonian in the frame where every |h> state is rephased by delta_p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as poly

SQRT2 = math.sqrt(2.0)

#: find_roots must return every cancellation root with |J| up to this.
ROOT_WINDOW = 5.0


@dataclass(frozen=True)
class Point:
    """One operating point of the effective model, in units of kappa.

    ``omega`` is the cavity drive sqrt(kappa_in) * b_in of the driven
    mirror, ``shift`` the Stark shift G = g**2/delta_p and ``e`` the
    microwave amplitude.
    """

    omega: float
    e: float
    delta_e: float
    shift: float
    delta_c: float = 0.0
    j: float = 0.0
    theta: float = 0.0
    kappa: float = 1.0

    @property
    def m(self) -> complex:
        return self.delta_c - 0.5j * self.kappa - self.shift

    @property
    def n(self) -> complex:
        return self.delta_c - 0.5j * self.kappa + self.delta_e


def point_of(params, *, j=None, theta=None, delta_c=None, direction=None) -> Point:
    """Reduce a parameter object with the package's field names to a Point.

    Only attributes are read, so this works for SystemParams and for plain
    namespaces alike.
    """
    direction = direction or params.direction.value
    kappa_in = params.kappa1 if direction == "forward" else params.kappa2
    return Point(
        omega=math.sqrt(kappa_in) * params.b_in,
        e=params.e_eg,
        delta_e=params.delta_e,
        shift=params.g**2 / params.delta_p,
        delta_c=params.delta_c if delta_c is None else float(delta_c),
        j=params.g * params.e_he / params.delta_p if j is None else float(j),
        theta=params.phi_p - params.phi_he - params.phi_eg if theta is None else float(theta),
        kappa=params.kappa,
    )


# --------------------------------------------------------------------------
# two-photon cancellation


def c2g_numerator(pt: Point) -> complex:
    """Numerator of the closed-form c2g; zero exactly at a blockade root."""
    z = complex(math.cos(pt.theta), -math.sin(pt.theta))
    e, om, j = pt.e, pt.omega, pt.j
    return (
        e * e * j * j * z * z
        + e * om * j * z * (pt.m + pt.n + pt.delta_e)
        + om * om * (j * j + pt.n * pt.delta_e)
    )


def numerator_scale(pt: Point) -> float:
    """Size of the largest term of the numerator, for relative tests."""
    e, om, j = pt.e, pt.omega, abs(pt.j)
    return (
        e * e * j * j
        + e * om * j * abs(pt.m + pt.n + pt.delta_e)
        + om * om * (j * j + abs(pt.n * pt.delta_e))
    )


def canonical(j: float, theta: float) -> tuple[float, float]:
    """Of (J, theta) and the equivalent (-J, theta + pi), the one whose theta
    lies closest to 0, theta in (-pi, pi]."""

    def wrap(t: float) -> float:
        r = math.remainder(t, 2.0 * math.pi)
        return math.pi if r <= -math.pi else r

    a, b = (j, wrap(theta)), (-j, wrap(theta + math.pi))
    return min(a, b, key=lambda jt: (abs(jt[1]), 0 if jt[1] >= 0.0 else 1))


def same_root(a, b, tol: float = 1e-6) -> bool:
    """Whether (J, theta) pairs a and b name the same root, allowing for the
    equivalent representation (-J, theta + pi)."""

    def angle_gap(x: float, y: float) -> float:
        return abs(math.remainder(x - y, 2.0 * math.pi))

    return (abs(a[0] - b[0]) < tol and angle_gap(a[1], b[1]) < tol) or (
        abs(a[0] + b[0]) < tol and angle_gap(a[1], b[1] + math.pi) < tol
    )


def _coefficients(pt: Point, joint: bool):
    """Ascending coefficients in J of a, b, c with the quadratic
    a z**2 + b z + c, z = exp(-i theta), equal to the c2g numerator."""
    h = 0.5j * pt.kappa
    if joint:
        # delta_c = G + J**2/delta_e puts the single-excitation pair on resonance.
        m = np.array([-h, 0.0, 1.0 / pt.delta_e])
        n = np.array([pt.shift + pt.delta_e - h, 0.0, 1.0 / pt.delta_e])
    else:
        m = np.array([pt.m])
        n = np.array([pt.n])
    j1 = np.array([0.0, 1.0])
    j2 = np.array([0.0, 0.0, 1.0])
    a = pt.e**2 * j2.astype(complex)
    b = pt.e * pt.omega * poly.polymul(poly.polyadd(poly.polyadd(m, n), [pt.delta_e]), j1)
    c = pt.omega**2 * poly.polyadd(j2, pt.delta_e * n)
    return a, b, c


def resultant(pt: Point, joint: bool) -> np.ndarray:
    """Real ascending coefficients of (|a|^2-|c|^2)^2 - |a conj(b) - b conj(c)|^2."""
    a, b, c = _coefficients(pt, joint)
    ac, bc, cc = np.conj(a), np.conj(b), np.conj(c)
    mul = poly.polymul
    d = poly.polysub(mul(a, ac), mul(c, cc))
    w = poly.polysub(mul(a, bc), mul(b, cc))
    wc = poly.polysub(mul(ac, b), mul(bc, c))
    res = poly.polysub(mul(d, d), mul(w, wc))
    return np.real(poly.polytrim(res, 0.0))


def cancellation_roots(pt: Point, joint: bool) -> list[tuple[float, float, float]]:
    """Every real cancellation root as canonical (J, theta, delta_c).

    ``pt.delta_c`` is the fixed detuning when ``joint`` is False and is
    ignored otherwise.  Each real zero of the resultant is polished by
    Newton steps on the resultant itself; theta follows from the common
    root z = (|a|^2-|c|^2)/(conj(c) b - a conj(b)) of the quadratic and its
    conjugate-reciprocal, and is kept only where |z| = 1.
    """
    coef = resultant(pt, joint)
    coef = coef / np.max(np.abs(coef))
    deriv = poly.polyder(coef)
    candidates = poly.polyroots(coef)
    found: list[tuple[float, float, float]] = []
    for root in candidates:
        if abs(root.imag) > 1e-4 * max(1.0, abs(root.real)):
            continue
        j = float(root.real)
        for _ in range(8):
            slope = poly.polyval(j, deriv)
            if slope == 0.0:
                break
            j -= poly.polyval(j, coef) / slope
        if j == 0.0:
            continue
        a, b, c = (complex(poly.polyval(j, k)) for k in _coefficients(pt, joint))
        den = c.conjugate() * b - a * b.conjugate()
        num = abs(a) ** 2 - abs(c) ** 2
        zs = [num / den] if den != 0.0 else []
        if not zs or abs(abs(zs[0]) - 1.0) > 1e-6:
            # Double root of the quadratic: take its roots directly.
            disc = np.sqrt(complex(b * b - 4.0 * a * c))
            zs = [(-b + disc) / (2.0 * a), (-b - disc) / (2.0 * a)]
        for z in zs:
            if abs(abs(z) - 1.0) > 1e-6:
                continue
            dc = float(pt.shift + j * j / pt.delta_e) if joint else pt.delta_c
            jc, tc = canonical(float(j), -math.atan2(z.imag, z.real))
            trial = Point(pt.omega, pt.e, pt.delta_e, pt.shift, dc, jc, tc, pt.kappa)
            if abs(c2g_numerator(trial)) > 1e-9 * numerator_scale(trial):
                continue
            if not any(same_root((jc, tc), f, 1e-7) for f in found):
                found.append((jc, tc, dc))
    found.sort(key=lambda r: (abs(r[0]), abs(r[1]), 0 if r[1] >= 0.0 else 1))
    return found


# --------------------------------------------------------------------------
# steady state of the effective model


def closed_form(pt: Point) -> dict[str, float] | None:
    """Perturbative steady state with c0g = 1 (paper's closed forms).

    Returns the photon statistics, or None where a denominator vanishes.
    """
    zm = complex(math.cos(pt.theta), -math.sin(pt.theta))
    zp = zm.conjugate()
    e, om, j, de, m, n = pt.e, pt.omega, pt.j, pt.delta_e, pt.m, pt.n
    d1 = j * j - m * de
    d2 = j * j - m * n
    if abs(d1) <= 1e-10 or abs(d2) <= 1e-10:
        return None
    c1g = (e * j * zm + om * de) / d1
    c0e = (e * m + om * j * zp) / d1
    c2g = ((e * j * zm + om * n) * c1g + om * j * zm * c0e) / (SQRT2 * d2)
    c1e = ((e * m + om * j * zp) * c1g + om * m * c0e) / d2
    return stats_of(np.array([1.0, c1g, c0e, c2g, c1e]))


def stats_of(c: np.ndarray) -> dict[str, float]:
    """p1, p2, g2 and photon numbers of an amplitude vector (c0g, c1g, c0e,
    c2g, c1e)."""
    p = np.abs(np.asarray(c)) ** 2
    norm = float(p.sum())
    p1 = float(p[1] + p[4]) / norm
    p2 = float(p[3]) / norm
    occ = p1 + 2.0 * p2
    return {
        "p1": p1,
        "p2": p2,
        "g2": 2.0 * p2 / occ**2 if occ >= 1e-30 else math.nan,
        "n_paper": float(p[1]),
        "n_full": float(p[1] + p[4] + 2.0 * p[3]),
    }


def effective_hamiltonian(pt: Point) -> np.ndarray:
    """5x5 non-Hermitian H with i dC/dt = H C, basis (c0g, c1g, c0e, c2g, c1e)."""
    jm = pt.j * complex(math.cos(pt.theta), -math.sin(pt.theta))
    jp = jm.conjugate()
    om, e, r2 = pt.omega, pt.e, SQRT2
    return np.array(
        [
            [0.0, om, e, 0.0, 0.0],
            [om, pt.m, -jm, r2 * om, e],
            [e, -jp, pt.delta_e, 0.0, om],
            [0.0, r2 * om, 0.0, 2.0 * pt.m, -r2 * jm],
            [0.0, e, om, -r2 * jp, pt.n],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class LinearSteadyState:
    """Fixed point of the amplitude equations with c0g held at 1.

    ``decay`` is the slowest decay rate of the four driven amplitudes and
    ``condition`` the condition number of their eigenvector matrix, so a
    run from ``start`` is within condition * exp(-decay t) * |start - state|
    of ``state`` at time t.
    """

    state: np.ndarray
    decay: float
    condition: float

    def distance_bound(self, t: float, start: np.ndarray) -> float:
        gap = float(np.linalg.norm(np.asarray(start)[1:] - self.state[1:]))
        return self.condition * math.exp(-self.decay * t) * gap


def linear_steady_state(pt: Point) -> LinearSteadyState:
    a = -1j * effective_hamiltonian(pt)
    block = a[1:, 1:]
    x = np.linalg.solve(block, -a[1:, 0])
    lam, vec = np.linalg.eig(block)
    return LinearSteadyState(
        state=np.concatenate([[1.0 + 0.0j], x]),
        decay=float(np.min(-lam.real)),
        condition=float(np.linalg.cond(vec)),
    )


# --------------------------------------------------------------------------
# truncated three-level model


def full_model_g2(params, n_max: int) -> float:
    """g2 of the steady state of the full model truncated at n_max photons.

    Levels per photon number are (g, e, h).  In the frame where every |h>
    amplitude is rephased by delta_p the Hamiltonian is static whenever the
    upper-leg drive is Raman resonant, delta_he + delta_eg = delta_p, which
    is the default (``delta_he`` None).  Cavity loss is -i kappa/2 per
    photon and |h> does not decay, so the long-time state is the eigenvector
    whose eigenvalue has the largest imaginary part.
    """
    if params.delta_he is not None:
        raise ValueError("the static frame needs the Raman-resonant default delta_he")
    _, vec = full_model_mode(params, n_max)
    p = np.abs(vec) ** 2
    p = p / p.sum()
    p1 = float(p[3:6].sum())
    p2 = float(p[6:9].sum()) if n_max >= 2 else 0.0
    return 2.0 * p2 / (p1 + 2.0 * p2) ** 2


def full_model_hamiltonian(params, n_max: int) -> np.ndarray:
    """Static rotating-frame Hamiltonian of the truncated three-level model."""
    dim = 3 * (n_max + 1)
    g, e, h = 0, 1, 2
    kappa_in = params.kappa1 if params.direction.value == "forward" else params.kappa2
    drive = math.sqrt(kappa_in) * params.b_in * np.exp(1j * params.phi_p)
    micro = params.e_eg * np.exp(1j * params.phi_eg)
    pump = params.e_he * np.exp(1j * params.phi_he)
    delta_eg = params.delta_e + params.e_he**2 / params.delta_p
    hm = np.zeros((dim, dim), dtype=complex)
    for n in range(n_max + 1):
        k = 3 * n
        for level in (g, e, h):
            hm[k + level, k + level] = n * (params.delta_c - 0.5j * params.kappa)
        hm[k + e, k + e] += delta_eg
        hm[k + h, k + h] += params.delta_p
        hm[k + e, k + g] = micro
        hm[k + g, k + e] = np.conj(micro)
        hm[k + h, k + e] = pump
        hm[k + e, k + h] = np.conj(pump)
        if n < n_max:
            root = math.sqrt(n + 1)
            for level in (g, e, h):
                hm[k + 3 + level, k + level] = drive * root
                hm[k + level, k + 3 + level] = np.conj(drive) * root
            hm[k + 3 + g, k + h] = params.g * root
            hm[k + h, k + 3 + g] = params.g * root
    return hm


def full_model_mode(params, n_max: int) -> tuple[complex, np.ndarray]:
    """Eigenvalue and eigenvector with the largest imaginary eigenvalue."""
    lam, vec = np.linalg.eig(full_model_hamiltonian(params, n_max))
    k = int(np.argmax(lam.imag))
    return complex(lam[k]), vec[:, k]
