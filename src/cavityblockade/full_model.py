"""Un-eliminated three-level model used as an oracle for the effective one.

The model is built straight from the rotating-frame detunings: delta_c,
delta_p, and the bare delta_eg and upper-leg delta_he (Raman resonant
unless set) that ``params._derive`` forms from the inputs, with no lab
frequencies.  It takes from ``_derive`` only these input relations and the
drive Omega, never the eliminated G or J, so it stays an independent check
of the elimination.  It is written in the frame that rephases every |h>
state by delta_p, where only the |h> <-> |e> drive rotates, at the beat
omega = delta_he + delta_eg - delta_p:

    H'(t) = H0 + e^{i omega t} A + e^{-i omega t} A^dagger,
    H0 = (delta_c - i kappa/2) a^dag a + delta_eg s_ee + delta_p s_hh
         + (E_eg e^{i phi_eg} s_eg + h.c.) + (Omega a^dag + h.c.)
         + g (a^dag s_gh + h.c.),
    A = E_he e^{i phi_he} s_he,

with s_ij = |i><j| on the atom and Omega = sqrt(kappa_in) b_in e^{i phi_p}.
Cavity loss enters as -i kappa/2 per photon; spontaneous emission of |h> is
excluded, consistent with the large-detuning regime where |h> is barely
populated.  The lab frame, where the coupling keeps its phase
e^{-i delta_p t}, follows as H(t) = U(t) (H'(t) - delta_p P_h) U(t)^dagger
with U(t) = e^{i delta_p t} on every |h> state and 1 elsewhere: x = U y
maps solutions of H' onto those of H.  U moves no population, so
``FullModel.steady_mode`` solves for the long-time state of y directly:

- Raman resonant, omega = 0 (the default of ``SystemParams``): H' =
  H0 + A + A^dagger is static, and the long-time state is its eigenvector
  whose eigenvalue has the largest imaginary part.
- Otherwise H' has the period T = 2 pi/|omega|, and the long-time state is
  the Floquet mode of largest growth rate (Shirley, Phys. Rev. 138, B979
  (1965)).  A mode y(t) = e^{-i eps t} sum_m phi_m e^{i m omega t} solves
  eps phi_m = (H0 + m omega) phi_m + A phi_{m-1} + A^dagger phi_{m+1}: an
  eigenproblem of the block-tridiagonal Fourier matrix K over the
  harmonics |m| <= H, grown until the mode's weight on the outermost ones
  is negligible.  No time step is involved.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import steady_state
from .params import TAU, NumericalFailure, SystemParams, _Report, _derive

LEVELS = ("g", "e", "h")

#: Relative size of the beat delta_he + delta_eg - delta_p below which the
#: drive counts as Raman resonant (see ``FullModel``).
RAMAN_TOL = 1e-12

MAX_N_MAX = 4

#: ``validate_effective`` passes a point whose rel_diff is below this.
PASS_REL_DIFF = 0.2

#: Share of the Floquet mode's weight on its two outermost harmonics at or
#: below which ``FullModel.steady_mode`` stops adding harmonics.
_EDGE_WEIGHT = 1e-12


def state_index(n: int, level: str) -> int:
    """The basis index of |n> (x) |level>, ``level`` one of ``LEVELS``."""
    return 3 * n + LEVELS.index(level)


@functools.lru_cache(maxsize=None)
def _operators(n_max: int) -> tuple[np.ndarray, ...]:
    """a^dag, a^dag a, s_ee, s_hh, s_eg, s_he and a^dag s_gh on the
    ``state_index`` basis |n> (x) |level>, read-only."""
    g, e, h = atom = np.eye(3)  # the LEVELS
    photons = np.eye(n_max + 1)
    create = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), -1)
    ops = (
        np.kron(create, atom),
        np.kron(np.diag(np.arange(n_max + 1.0)), atom),
        *(np.kron(photons, np.outer(*ij)) for ij in [(e, e), (h, h), (e, g), (h, e)]),
        np.kron(create, np.outer(g, h)),
    )
    for op in ops:
        op.flags.writeable = False
    return ops


class FullModel:
    """The truncated three-level model, held as the parts H0 and A of H'(t)
    (module docstring), from delta_c and delta_p of ``params`` and the
    delta_eg, delta_he and Omega that ``params._derive`` forms from them.
    NumericalFailure where an entry of H0 is not finite; A's one entry,
    at most e_he in size, always is.

    ``hamiltonian`` forms H'(t), and ``steady_mode`` solves for the
    long-time state.  ``beat`` is omega, and ``raman_resonant`` records
    whether it vanishes, |omega| <= RAMAN_TOL * max(1, |delta_p|,
    |delta_he|, |delta_eg|); then H' is static.
    """

    def __init__(self, params: SystemParams, n_max: int = 2) -> None:
        if not 1 <= n_max <= MAX_N_MAX:
            raise ValueError(f"n_max must be in [1, {MAX_N_MAX}], got {n_max}")
        self.params = params
        self.n_max = n_max
        self.dim = 3 * (n_max + 1)
        c, _ = _derive(params, {})
        delta_eg, delta_he = c["delta_eg"], c["delta_he"]

        create, number, s_ee, s_hh, s_eg, s_he, create_gh = _operators(n_max)
        microwave = params.e_eg * cmath.exp(1j * params.phi_eg)
        drive = float(c["omega"]) * cmath.exp(1j * params.phi_p)
        with np.errstate(over="ignore", invalid="ignore"):
            self._h0 = (
                (params.delta_c - 0.5j * params.kappa) * number
                + delta_eg * s_ee
                + params.delta_p * s_hh
                + microwave * s_eg
                + microwave.conjugate() * s_eg.T
                + drive * create
                + drive.conjugate() * create.T
                + params.g * (create_gh + create_gh.T)
            )
        if not np.isfinite(self._h0).all():
            raise NumericalFailure("the three-level Hamiltonian is not finite at these inputs")
        # A = E_he e^{i phi_he} s_he placed, so its zeros are +0: signs move ties.
        pump = params.e_he * cmath.exp(1j * params.phi_he)
        self._drive = np.where(s_he != 0.0, pump, 0j)
        self.beat = delta_he + delta_eg - params.delta_p
        scale = max(1.0, abs(params.delta_p), abs(delta_he), abs(delta_eg))
        self.raman_resonant = abs(self.beat) <= RAMAN_TOL * scale

    def hamiltonian(self, t: float) -> np.ndarray:
        """Non-Hermitian H'(t) of the |h>-rephased frame, including the
        -i kappa/2 photon decay."""
        phase = np.exp(1j * self.beat * t)
        return self._h0 + phase * self._drive + np.conj(phase) * self._drive.conj().T

    def run(self, *args, **kwargs):
        """Kept only as the name the benchmark's tracer wraps: the model has
        no time integrator, and its long-time state is ``steady_mode``."""
        raise NotImplementedError("FullModel has no integrator; use steady_mode")

    def steady_mode(self) -> tuple[np.ndarray, float]:
        """The long-time state in the |h>-rephased frame, and the rate at
        which the runner-up mode falls behind it.

        Returns (states, gap) from one eigen solve of Shirley's Fourier
        matrix K over the harmonics |m| <= H (module docstring).  K repeats
        each mode once per shift of its harmonics; the steady state is the
        mode of largest Im eigenvalue among the copies centred at
        |mean m| < 1/2, and ``gap`` its distance to the next such copy.
        ``states`` holds it at 8H + 1 equally spaced points of one period:
        4H + 1 average each |y_n(t)|^2 exactly, and twice that keeps the
        average of their ratio P_n(t) at round-off.  When ``raman_resonant``
        H = 0 and K is the static H'; otherwise H grows from 1 until at most
        1e-12 of the mode's weight sits on its two outermost harmonics.

        A beat period over 100/kappa raises ValueError.  That is a physics
        policy, not a numerical guard: the Fourier solve converges there
        too, but the period average then runs over the drives' relative
        phase, which a detection window of order 1/kappa does not see, so
        its g2 is not the one such a detector measures.
        """
        h0, omega, harmonics = self._h0, 0.0, 0
        if self.raman_resonant:
            h0 = self.hamiltonian(0.0)
        else:
            omega = self.beat
            period = TAU / abs(omega)
            if period > 100.0 / self.params.kappa:
                raise ValueError(
                    f"the drive beat period T = {period:.6g} exceeds 100/kappa; "
                    "move delta_he onto Raman resonance or further from it"
                )
            harmonics = 1
        while True:
            m = np.arange(-harmonics, harmonics + 1)
            i = np.arange(m.size)
            k = np.zeros((m.size, self.dim, m.size, self.dim), dtype=complex)
            k[i, :, i, :] = h0 + (m * omega)[:, None, None] * np.eye(self.dim)
            k[i[1:], :, i[:-1], :] = self._drive
            k[i[:-1], :, i[1:], :] = self._drive.conj().T
            lam, vec = np.linalg.eig(k.reshape(m.size * self.dim, -1))
            # Unit eigenvectors: column j of weight is mode j's share per harmonic.
            weight = (np.abs(vec) ** 2).reshape(m.size, self.dim, -1).sum(axis=1)
            order = np.argsort(-lam.imag)
            top, second = order[np.abs(m @ weight[:, order]) < 0.5][:2]
            if self.raman_resonant or weight[[0, -1], top].sum() <= _EDGE_WEIGHT:
                break
            harmonics += 1
        samples = 8 * harmonics + 1
        phases = np.exp(1j * TAU / samples * np.outer(np.arange(samples), m))
        states = phases @ vec[:, top].reshape(m.size, self.dim)
        return states, float(lam[top].imag - lam[second].imag)


def photon_occupations(states: np.ndarray, n_max: int) -> dict[int, np.ndarray]:
    """Normalized P_n(t) summed over atomic levels, keyed by photon number."""
    prob = np.abs(states) ** 2
    per_n = prob.reshape(prob.shape[:-1] + (n_max + 1, 3)).sum(axis=-1)
    return dict(enumerate(np.moveaxis(per_n / prob.sum(axis=-1)[..., None], -1, 0)))


@dataclass(frozen=True)
class ValidationReport(_Report):
    """Full-vs-effective comparison at one parameter point.

    ``passed`` avoids shadowing the keyword; the key=value serialization
    still emits it as ``pass``.  ``gap`` is the rate at which the full
    model's runner-up mode falls behind its steady state, and
    ``settle_time`` = ln(10/PASS_REL_DIFF)/gap the time it takes to fall by
    a factor PASS_REL_DIFF/10 (inf when the gap is 0).  ``passed`` is
    rel_diff < ``PASS_REL_DIFF``.
    """

    g2_full: float
    g2_effective: float
    rel_diff: float
    passed: bool = field(metadata={"key": "pass"})
    n_max: int
    gap: float
    settle_time: float


def validate_effective(params: SystemParams, *, n_max: int = 2) -> ValidationReport:
    """Solve the full model's steady state and compare its g2 with the
    analytic one.

    P1 and P2 come from ``FullModel.steady_mode``, averaged over its samples
    of one beat period off Raman resonance.  ``n_max`` must be 2 to
    ``MAX_N_MAX``: g2 needs the two-photon states.  That is checked first,
    before any work.  ``g2_full`` is the two-photon formula
    2 P2/(P1 + 2 P2)^2 over n <= 2, NaN below the 1e-30 occupation floor: at
    the reference joint root with n_max = 3 it is 1.985e-3, where
    <n(n-1)>/<n>^2 over every photon number is 2.392e-3.  ``rel_diff`` is
    |g2_full - g2_effective|/|g2_effective|; at an exact root, where
    g2_effective is 0.0, it is inf unless g2_full is 0.0 too.  Where the
    effective model has no statistics, this raises what
    ``steady_state.steady_stats`` raises, before it builds the full model.
    Its regime warnings are those of ``steady_stats``, one per violated
    condition, |delta_p/g| <= 10 among them.
    """
    if not 2 <= n_max <= MAX_N_MAX:
        raise ValueError(
            f"n_max must be in [2, {MAX_N_MAX}] to measure g2, got {n_max}"
        )
    g2_effective = steady_state.steady_stats(params).g2

    model = FullModel(params, n_max)
    states, gap = model.steady_mode()
    occ = photon_occupations(states, n_max)
    # The period averages as one-element arrays, which _g2 computes on.
    p1, p2 = (occ[n].mean(keepdims=True) for n in (1, 2))
    g2_full = steady_state._g2(p1, p2).item()
    diff = abs(g2_full - g2_effective)
    if g2_effective == 0.0:
        rel_diff = 0.0 if diff == 0.0 else math.inf
    else:
        rel_diff = diff / abs(g2_effective)
    return ValidationReport(
        g2_full=g2_full,
        g2_effective=g2_effective,
        rel_diff=rel_diff,
        passed=bool(rel_diff < PASS_REL_DIFF),
        n_max=n_max,
        gap=gap,
        settle_time=math.log(10.0 / PASS_REL_DIFF) / gap if gap > 0.0 else math.inf,
    )


__all__ = [
    "LEVELS",
    "FullModel",
    "ValidationReport",
    "photon_occupations",
    "state_index",
    "validate_effective",
]
