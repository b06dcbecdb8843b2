"""Un-eliminated three-level model used as an oracle for the effective one.

The model is built straight from the rotating-frame detunings of
``SystemParams``: delta_c, delta_p, the bare delta_eg and the upper-leg
delta_he (Raman resonant unless set), with no lab frequencies.  Its
Hamiltonian keeps two explicitly time-dependent phases, e^{-i delta_p t} on
the cavity-atom coupling and e^{+i (delta_he + delta_eg) t} on the
|h> <-> |e> drive.  Cavity loss enters as -i kappa/2 per photon;
spontaneous emission of |h> is excluded, consistent with the
large-detuning regime where |h> is barely populated.

Rephasing every |h> state by delta_p, x(t) = U(t) y(t) with U(t) =
e^{i delta_p t} on |h> and 1 elsewhere, removes the first phase: y obeys
i dy/dt = H'(t) y with H'(t) = U^dagger H(t) U + delta_p on the |h>
diagonal, in which only the drive still rotates, at omega = delta_he +
delta_eg - delta_p.  U moves no population, so ``FullModel.steady_mode``
solves for the long-time state of y directly:

- Raman resonant, omega = 0 (the default of ``SystemParams``): H' =
  H(0) + delta_p P_h is static, and the long-time state is its eigenvector
  whose eigenvalue has the largest imaginary part.
- Otherwise H' has the period T = 2 pi/|omega|, and the long-time state is
  the Floquet mode of largest multiplier (Shirley, Phys. Rev. 138, B979
  (1965)): the dominant eigenvector of the one-period RK4 monodromy matrix,
  followed through that period.  The RK4 step h is derived, not chosen:
  it divides T into at least T/1e-3 steps, and into more where needed to
  keep h times a bound on ||H'(t)|| at most 0.2, well inside RK4's
  stability interval on the imaginary axis (|h lambda| <= 2 sqrt 2).  The
  step count thus grows as T ||H'||, about T delta_p once delta_p is large.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import steady_state
from .params import TAU, RegimeWarning, SystemParams, _kv_text

LEVELS = ("g", "e", "h")

#: Relative size of the beat delta_he + delta_eg - delta_p below which the
#: drive counts as Raman resonant (see ``FullModel``).
RAMAN_TOL = 1e-12

MAX_N_MAX = 4
VALIDATE_REGIME_MIN = 5.0

#: Steps per block of generator matrices assembled at once by the RK4 run.
_BLOCK_STEPS = 4096

#: Nominal RK4 step of the one-period monodromy matrix, and the largest
#: product of a step with the bound on ||H'(t)|| (``FullModel.steady_mode``).
_MONODROMY_STEP = 1e-3
_MONODROMY_STEP_NORM = 0.2


def state_index(n: int, level: str) -> int:
    return 3 * n + LEVELS.index(level)


class FullModel:
    """Dense time-dependent generator for the truncated three-level model.

    Built straight from the detunings of ``params``: delta_c, delta_p,
    ``params.delta_eg`` and ``params.delta_he_effective``, with the cavity
    drive Omega = sqrt(kappa_in) b_in.  The matrix splits into a static part
    (detunings, decay, cavity drive, microwave) plus two rotating blocks
    whose phases are the only time dependence; ``hamiltonian`` reassembles
    the sum at any t.  ``raman_resonant`` records whether the beat vanishes,
    |delta_he + delta_eg - delta_p| <= RAMAN_TOL * max(1, |delta_p|,
    |delta_he|, |delta_eg|); then the rephased H' is static (see the module
    docstring).
    """

    def __init__(self, params: SystemParams, n_max: int = 2) -> None:
        if not 1 <= n_max <= MAX_N_MAX:
            raise ValueError(f"n_max must be in [1, {MAX_N_MAX}], got {n_max}")
        self.params = params
        self.n_max = n_max
        self.dim = dim = 3 * (n_max + 1)
        delta_eg = params.delta_eg
        delta_he = params.delta_he_effective

        static = np.zeros((dim, dim), dtype=complex)
        cavity_block = np.zeros((dim, dim), dtype=complex)
        atom_block = np.zeros((dim, dim), dtype=complex)

        half_loss = 0.5j * params.kappa
        drive = math.sqrt(params.kappa_in) * params.b_in * cmath.exp(1j * params.phi_p)
        microwave = params.e_eg * cmath.exp(1j * params.phi_eg)
        pump = params.e_he * cmath.exp(1j * params.phi_he)

        for n in range(n_max + 1):
            for level in LEVELS:
                k = state_index(n, level)
                static[k, k] = params.delta_c * n - half_loss * n
                if level == "e":
                    static[k, k] += delta_eg
            # microwave E_eg |e><g| + h.c., photon-number diagonal
            static[state_index(n, "e"), state_index(n, "g")] += microwave
            static[state_index(n, "g"), state_index(n, "e")] += microwave.conjugate()
            # |h><e| drive, rotating at delta_he + delta_eg
            atom_block[state_index(n, "h"), state_index(n, "e")] = pump
            if n < n_max:
                # cavity drive Omega a^dag + h.c.
                root = math.sqrt(n + 1)
                for level in LEVELS:
                    hi = state_index(n + 1, level)
                    lo = state_index(n, level)
                    static[hi, lo] += drive * root
                    static[lo, hi] += drive.conjugate() * root
                # g a^dag |g><h|, rotating at -delta_p
                cavity_block[state_index(n + 1, "g"), state_index(n, "h")] = (
                    params.g * root
                )

        self._static = static
        self._cavity = cavity_block
        self._atom = atom_block
        # P_h, the projector on every |h> state.
        self._p_h = np.diag(np.tile(np.array(LEVELS) == "h", n_max + 1).astype(float))
        self.delta2 = delta_he + delta_eg
        scale = max(1.0, abs(params.delta_p), abs(delta_he), abs(delta_eg))
        self.raman_resonant = abs(self.delta2 - params.delta_p) <= RAMAN_TOL * scale

    def hamiltonian(self, t: float, frame: bool = False) -> np.ndarray:
        """Non-Hermitian H(t) including the -i kappa/2 photon decay; with
        ``frame``, H'(t) of the |h>-rephased frame."""
        return self._hamiltonians(np.array([t], dtype=float), frame)[0]

    def _hamiltonians(self, times: np.ndarray, frame: bool = False) -> np.ndarray:
        """``hamiltonian`` for a vector of times, shape (T, dim, dim)."""
        shift = self.params.delta_p if frame else 0.0
        ph_c = np.exp(-1j * (self.params.delta_p - shift) * times)
        ph_a = np.exp(1j * (self.delta2 - shift) * times)
        return (
            (self._static + shift * self._p_h)[None, :, :]
            + ph_c[:, None, None] * self._cavity[None, :, :]
            + np.conj(ph_c)[:, None, None] * self._cavity.conj().T[None, :, :]
            + ph_a[:, None, None] * self._atom[None, :, :]
            + np.conj(ph_a)[:, None, None] * self._atom.conj().T[None, :, :]
        )

    def run(
        self,
        t_end: float,
        dt: float = 1e-3,
        *,
        initial: np.ndarray | None = None,
        collect_from: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fixed-step RK4 integration from |0, g>.

        Returns (final_state, collect_times, collected_states); collection
        starts at ``collect_from`` (None collects nothing) and never
        includes step 0.  Generator matrices are pre-assembled on the
        half-step grid in blocks and the steps run one by one.  Raises
        ArithmeticError once the state is no longer finite.
        """
        if dt <= 0.0 or t_end <= 0.0:
            raise ValueError("dt and t_end must be positive")
        dim = self.dim
        if initial is None:
            state = np.zeros(dim, dtype=complex)
            state[state_index(0, "g")] = 1.0
        else:
            state = np.asarray(initial, dtype=complex).copy()
            if state.shape != (dim,):
                raise ValueError(f"initial state must have shape ({dim},)")

        n_steps = int(round(t_end / dt))
        first_collect = n_steps + 1
        if collect_from is not None:
            first_collect = max(1, int(math.ceil(collect_from / dt)))
        final, collected = self._run_steps(state, n_steps, dt, first_collect)
        times = dt * np.arange(first_collect, n_steps + 1)
        states = (
            np.concatenate(collected)
            if collected
            else np.zeros((0, dim), dtype=complex)
        )
        return final, times, states

    def _run_steps(
        self,
        state: np.ndarray,
        n_steps: int,
        dt: float,
        first_collect: int,
        frame: bool = False,
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        collected = []
        half = dt / 2.0
        for start in range(0, n_steps, _BLOCK_STEPS):
            stop = min(start + _BLOCK_STEPS, n_steps)
            times = start * dt + half * np.arange(2 * (stop - start) + 1)
            gen = -1j * self._hamiltonians(times, frame)
            for k in range(stop - start):
                state = _rk4_step(gen[2 * k : 2 * k + 3], state, dt)
                if start + k + 1 >= first_collect:
                    collected.append(state[None])
            _check_finite(state, stop * dt)
        return state, collected

    def steady_mode(self) -> tuple[np.ndarray, float]:
        """The long-time state in the |h>-rephased frame, and the rate at
        which the runner-up mode falls behind it.

        Returns (states, gap).  When ``raman_resonant``, ``states`` holds
        the eigenvector of the static H' as its one row, and ``gap`` is the
        difference of the two largest imaginary parts of its eigenvalues.
        Otherwise the monodromy matrix over one beat period T is built by
        RK4 in n equal steps, ``states`` holds its dominant eigenvector at
        the steps of one period, and ``gap`` is ln(|mu_1|/|mu_2|)/T.  With
        B the largest row sum of the entrywise |.| of the static and both
        rotating blocks, a bound on ||H'(t)|| at every t, n = max(8,
        round(T/1e-3), ceil(T B/0.2)).  A beat period longer than 100/kappa
        raises ValueError.
        """
        if self.raman_resonant:
            lam, vec = np.linalg.eig(self.hamiltonian(0.0, frame=True))
            top, second = np.argsort(-lam.imag)[:2]
            return vec[:, top][None], float(lam[top].imag - lam[second].imag)

        period = TAU / abs(self.delta2 - self.params.delta_p)
        if period > 100.0 / self.params.kappa:
            raise ValueError(
                f"the drive beat period T = {period:.6g} exceeds 100/kappa; "
                "move delta_he onto Raman resonance or further from it"
            )
        cavity, atom = np.abs(self._cavity), np.abs(self._atom)
        bound = np.abs(self._static + self.params.delta_p * self._p_h)
        bound += cavity + cavity.T + atom + atom.T
        n_steps = max(
            8,
            round(period / _MONODROMY_STEP),
            math.ceil(period * bound.sum(axis=1).max() / _MONODROMY_STEP_NORM),
        )
        dt = period / n_steps
        identity = np.eye(self.dim, dtype=complex)
        monodromy, _ = self._run_steps(identity, n_steps, dt, n_steps + 1, frame=True)
        mu, vec = np.linalg.eig(monodromy)
        top, second = np.argsort(-np.abs(mu))[:2]
        _, states = self._run_steps(vec[:, top], n_steps, dt, 1, frame=True)
        gap = math.log(abs(mu[top]) / abs(mu[second])) / period
        return np.concatenate(states), gap


def _rk4_step(gen: np.ndarray, x: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of dx/dt = A(t) x from generators A at t,
    t + dt/2 and t + dt; ``x`` may be a vector or a matrix of columns."""
    a0, a1, a2 = gen
    half = dt / 2.0
    k1 = a0 @ x
    k2 = a1 @ (x + half * k1)
    k3 = a1 @ (x + half * k2)
    k4 = a2 @ (x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _check_finite(state: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(state)):
        raise ArithmeticError(
            f"full-model state became non-finite near t = {t:.3f}"
        )


def photon_occupations(states: np.ndarray, n_max: int) -> dict[int, np.ndarray]:
    """Normalized P_n(t) summed over atomic levels, keyed by photon number."""
    prob = np.abs(states) ** 2
    norm = prob.sum(axis=-1)
    out = {}
    for n in range(n_max + 1):
        out[n] = prob[..., 3 * n : 3 * n + 3].sum(axis=-1) / norm
    return out


@dataclass(frozen=True)
class ValidationReport:
    """Full-vs-effective comparison at one parameter point.

    ``passed`` avoids shadowing the keyword; the key=value serialization
    still emits it as ``pass``.  ``gap`` is the rate at which the full
    model's runner-up mode falls behind its steady state, and
    ``settle_time`` = ln(10/tolerance)/gap the time it takes to fall by a
    factor tolerance/10 (inf when the gap is 0).
    """

    g2_full: float
    g2_effective: float
    rel_diff: float
    passed: bool
    n_max: int
    gap: float
    settle_time: float

    def as_text(self) -> str:
        return _kv_text(
            [
                ("g2_full", self.g2_full),
                ("g2_effective", self.g2_effective),
                ("rel_diff", self.rel_diff),
                ("pass", "true" if self.passed else "false"),
                ("n_max", self.n_max),
                ("gap", self.gap),
                ("settle_time", self.settle_time),
            ]
        )


def validate_effective(
    params: SystemParams, tolerance: float = 0.2, *, n_max: int = 2
) -> ValidationReport:
    """Solve the full model's steady state and compare its g2 with the
    analytic one.

    P1 and P2 come from ``FullModel.steady_mode``, averaged over one beat
    period off Raman resonance.  ``n_max`` must be 2 to 4: g2 needs the
    two-photon states.
    """
    if tolerance <= 0.0:
        raise ValueError("tolerance must be positive")
    if n_max < 2:
        raise ValueError(f"n_max must be at least 2 to measure g2, got {n_max}")
    if params.g != 0.0 and abs(params.delta_p / params.g) <= VALIDATE_REGIME_MIN:
        warnings.warn(
            f"|delta_p/g| = {abs(params.delta_p / params.g):.3g} <= "
            f"{VALIDATE_REGIME_MIN:g}; adiabatic elimination is unreliable here",
            RegimeWarning,
            stacklevel=2,
        )

    model = FullModel(params, n_max)
    states, gap = model.steady_mode()
    occ = photon_occupations(states, n_max)
    p1 = float(np.mean(occ[1]))
    p2 = float(np.mean(occ[2]))
    occupation = p1 + 2.0 * p2
    g2_full = 2.0 * p2 / occupation**2 if occupation > 0.0 else math.nan

    g2_effective = steady_state.steady_stats(params).g2
    rel_diff = abs(g2_full - g2_effective) / abs(g2_effective)
    return ValidationReport(
        g2_full=g2_full,
        g2_effective=g2_effective,
        rel_diff=rel_diff,
        passed=bool(rel_diff < tolerance),
        n_max=n_max,
        gap=gap,
        settle_time=math.log(10.0 / tolerance) / gap if gap > 0.0 else math.inf,
    )


__all__ = [
    "LEVELS",
    "FullModel",
    "ValidationReport",
    "photon_occupations",
    "state_index",
    "validate_effective",
]
