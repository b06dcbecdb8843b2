"""The benchmark's four workloads.

Each workload builds its inputs from the seed, offers one cheap warm-up
operation and the list of operations that make one round, and checks every
output against ``oracles`` after the timed phase.  A round always holds the
same operations, so the share of failed operations does not depend on the
seed or on the number of rounds.  Operations named in ``known_faults`` fail
because of a fault of the package that the README lists.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import replace
from pathlib import Path

import numpy as np

import oracles
from cavityblockade import dynamics, full_model, optimizer, params, steady_state, sweeps

STAT_NAMES = ("p1", "p2", "g2", "n_paper", "n_full")


class Context:
    """Where a run may write, and how it starts the command-line program."""

    def __init__(self, tmp: Path, env: dict[str, str], jobs: int):
        self.tmp = tmp
        self.env = env
        self.jobs = jobs


class Workload:
    """Defaults for a workload: no expected failures, no whole-run checks."""

    known_faults: dict[str, str] = {}

    def final_problems(self) -> list[str]:
        return []

    def diagnostics(self, rounds: int) -> dict:
        return {}


# --------------------------------------------------------------------------
# comparisons


def agree(got, want, rel: float, floor: float = 0.0) -> bool:
    """|got - want| <= rel |want| + floor, with non-finite matching non-finite."""
    if want is None or not math.isfinite(want):
        return got is None or not math.isfinite(got)
    return got is not None and math.isfinite(got) and abs(got - want) <= rel * abs(want) + floor


def stats_problem(got: dict, want: dict | None, where: str) -> str | None:
    """Compare package statistics with the closed-form oracle."""
    if want is None:
        return None if not math.isfinite(got.get("g2", math.nan)) else f"{where}: singular point reported finite"
    tolerances = {
        "p1": (1e-9, 0.0),
        "p2": (1e-6, 1e-9 * want["p1"] ** 2),
        "g2": (1e-6, 1e-9),
        "n_paper": (1e-9, 0.0),
        "n_full": (1e-9, 0.0),
    }
    for key, value in got.items():
        rel, floor = tolerances[key]
        if not agree(value, want[key], rel, floor):
            return f"{where}: {key} = {value!r}, oracle {want[key]!r}"
    return None


def root_problem(base: oracles.Point, root, joint: bool, truth) -> str | None:
    """A reported root must cancel c2g, sit at its own optimal detuning for a
    joint solve, and be one of the oracle's roots."""
    j, theta, dc = root
    trial = replace(base, j=j, theta=theta, delta_c=dc)
    if abs(oracles.c2g_numerator(trial)) > 1e-8 * oracles.numerator_scale(trial):
        return f"root J={j!r}, theta={theta!r} does not cancel c2g"
    if joint and not agree(dc, base.shift + j * j / base.delta_e, 1e-9, 1e-12):
        return f"root J={j!r}: delta_c_opt {dc!r} is not G + J^2/delta_e"
    if not any(oracles.same_root((j, theta), t) for t in truth):
        return f"root J={j!r}, theta={theta!r} is not a cancellation root"
    return None


def missing_roots(reported, truth) -> list:
    return [
        t for t in truth
        if abs(t[0]) <= oracles.ROOT_WINDOW and not any(oracles.same_root(t, r) for r in reported)
    ]


def first_problem(*problems):
    return next((p for p in problems if p), None)


# --------------------------------------------------------------------------
# blockade-solve


class BlockadeSolve(Workload):
    """Scalar root solves on seeded parameter sets around the reference point."""

    name = "blockade-solve"
    nominal_round_s = 16.0
    min_rounds = 1
    # Each call is its own operation: 4 x 250 + 1 = 1001 a round, so
    # op_p95_ms has about 50 samples beyond it, and every parameter set is a
    # distinct draw, so a run averages over many inputs.
    draws = 250
    fault_label = "find_roots-fixed-delta_c-2.5"
    known_faults = {
        fault_label: "optimizer.find_roots with delta_c = 2.5 fixed misses the root "
        "J = -3.964, theta = 1.166"
    }

    def __init__(self, seed: int, ctx: Context):
        rng = np.random.default_rng(seed)
        ref = params.reference_params()
        self.cases = []
        for _ in range(self.draws):
            k1 = rng.uniform(0.1, 0.6)
            p = replace(
                ref,
                kappa1=k1,
                kappa2=2.0 - k1,
                g=rng.uniform(8.0, 12.0),
                delta_e=rng.uniform(-1.0, -0.2),
                e_eg=rng.uniform(0.005, 0.02),
                b_in=rng.uniform(0.01, 0.03),
            )
            self.cases.append((p, rng.uniform(-1.0, 3.0), rng.uniform(-1.0, 3.0)))
        self.fault_case = replace(ref, delta_c=2.5)
        self.roots: dict[tuple[int, str], list] = {}
        self.missing: dict[str, int] = {}

    def points(self, rounds: int) -> int:
        return (self.draws + 1) * rounds

    def _roots(self, i: int, kind: str):
        p, delta_c, _ = self.cases[i]
        if kind == "joint":
            found = optimizer.find_roots(p)
        else:
            found = optimizer.find_roots(replace(p, delta_c=delta_c), fix_delta_c=True)
        self.roots[i, kind] = found
        return found

    def _steady_stats(self, i: int):
        """Statistics at the selected root: the joint one, else the fixed one."""
        sel = (self.roots[i, "joint"] or self.roots[i, "fixed"] or [None])[0]
        if sel is None:
            return None, None
        at = replace(self.cases[i][0], delta_c=sel.delta_c_opt)
        return sel, steady_state.steady_stats(at, j=sel.J, theta=sel.theta)

    def warm_up(self) -> None:
        for _, fn in self.ops()[:4]:
            fn()

    def ops(self):
        out = []
        for i, (p, _, target) in enumerate(self.cases):
            out += [
                (f"draw-{i}-joint", lambda i=i: self._roots(i, "joint")),
                (f"draw-{i}-fixed", lambda i=i: self._roots(i, "fixed")),
                (f"draw-{i}-nonreciprocal",
                 lambda p=p, t=target: optimizer.nonreciprocal_point(p, t)),
                (f"draw-{i}-steady_stats", lambda i=i: self._steady_stats(i)),
            ]
        out.append(
            (self.fault_label, lambda: optimizer.find_roots(self.fault_case, fix_delta_c=True))
        )
        return out

    def check(self, label: str, out) -> str | None:
        if label == self.fault_label:
            base = oracles.point_of(self.fault_case)
            truth = oracles.cancellation_roots(base, joint=False)
            roots = [(r.J, r.theta, r.delta_c_opt) for r in out]
            lost = missing_roots(roots, truth)
            return first_problem(
                *(root_problem(base, r, False, truth) for r in roots),
                f"missing roots {lost}" if lost else None,
            )
        _, index, kind = label.split("-", 2)
        p, delta_c, target = self.cases[int(index)]
        if kind in ("joint", "fixed"):
            joint = kind == "joint"
            base = oracles.point_of(p) if joint else oracles.point_of(p, delta_c=delta_c)
            truth = oracles.cancellation_roots(base, joint=joint)
            roots = [(r.J, r.theta, r.delta_c_opt) for r in out]
            # Roots the multi-start search misses on seeded draws are counted
            # here and in the traced run, not as failed operations: how many
            # there are depends on the seed.
            self.missing[f"{kind}_expected"] = self.missing.get(f"{kind}_expected", 0) + sum(
                1 for t in truth if abs(t[0]) <= oracles.ROOT_WINDOW)
            self.missing[f"{kind}_missed"] = self.missing.get(f"{kind}_missed", 0) + len(
                missing_roots(roots, truth))
            return first_problem(*(root_problem(base, r, joint, truth) for r in roots))
        if kind == "nonreciprocal":
            j, theta, report = out
            problems = []
            for direction, value in (("forward", report.g2_forward), ("backward", report.g2_backward)):
                want = oracles.closed_form(
                    oracles.point_of(p, j=j, theta=theta, delta_c=target, direction=direction))
                if not agree(value, want["g2"] if want else math.inf, 1e-6, 1e-9):
                    problems.append(f"nonreciprocal {direction} g2 {value!r}, oracle {want}")
            if math.isfinite(report.contrast) and not agree(
                report.contrast, math.log10(report.g2_backward / report.g2_forward), 1e-12, 1e-12
            ):
                problems.append(f"contrast {report.contrast!r} disagrees with the reported g2")
            return first_problem(*problems)
        sel, stats = out
        if sel is None:
            return None
        want = oracles.closed_form(
            oracles.point_of(p, j=sel.J, theta=sel.theta, delta_c=sel.delta_c_opt))
        got = {
            "p1": stats.p1, "p2": stats.p2, "g2": stats.g2,
            "n_paper": stats.n_cavity_paper, "n_full": stats.n_cavity_full,
        }
        return stats_problem(got, want, "steady_stats at the selected root")

    def diagnostics(self, rounds: int) -> dict:
        return {k: v // rounds for k, v in self.missing.items()}


# --------------------------------------------------------------------------
# time-domain


class TimeDomain(Workload):
    """Sequential RK4: full-model validations, amplitude evolutions and one
    batched long-time solve."""

    name = "time-domain"
    nominal_round_s = 13.0
    min_rounds = 1
    batch = 32
    fault_label = "validate-e_he-2-delta_c-0"
    known_faults = {
        fault_label: "full_model.validate_effective at J = 0.2 returns g2_full = 1.1595; "
        "the full model's steady state is 0.94244"
    }

    def __init__(self, seed: int, ctx: Context):
        rng = np.random.default_rng(seed)
        ref = self.ref = params.reference_params()
        pt = optimizer.solve_optimal(ref)
        self.blockade = (replace(ref, delta_c=pt.delta_c_opt), pt.J, pt.theta)
        self.detuned = (replace(ref, delta_c=pt.delta_c_opt + 1.0), pt.J, pt.theta)
        self.validations = {
            "validate-reference-n2": (ref, 2),
            "validate-reference-n3": (ref, 3),
            self.fault_label: (replace(ref, e_he=2.0, delta_c=0.0), 2),
        }
        self.batch_points = [self.blockade]
        for _ in range(self.batch - 1):
            k1 = rng.uniform(0.1, 0.6)
            p = replace(ref, kappa1=k1, kappa2=2.0 - k1, delta_c=rng.uniform(-2.0, 3.0),
                        delta_e=rng.uniform(-1.0, -0.2))
            self.batch_points.append((p, rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi)))
        self.cfg = dynamics.IntegratorConfig()

    def points(self, rounds: int) -> int:
        return (len(self.validations) + 2 + len(self.batch_points)) * rounds

    def _evolve(self, point):
        p, j, theta = point
        eff = params.derive_effective(p, j=j, theta=theta)
        traj = dynamics.evolve(dynamics.vacuum_state(), eff, p.e_eg)
        return {"final": traj.amplitudes[-1].copy(), "t": float(traj.times[-1]), "steady": traj.steady}

    def _batch(self):
        effs = [params.derive_effective(p, j=j, theta=t) for p, j, t in self.batch_points]
        return dynamics.steady_rk4(effs, self.ref.e_eg)

    def warm_up(self) -> None:
        self._batch()

    def ops(self):
        out = [
            (label, lambda p=p, n=n: full_model.validate_effective(p, n_max=n))
            for label, (p, n) in self.validations.items()
        ]
        out.append(("evolve-blockade", lambda: self._evolve(self.blockade)))
        out.append(("evolve-detuned", lambda: self._evolve(self.detuned)))
        out.append(("steady_rk4-batch", self._batch))
        return out

    @staticmethod
    def _distance_problem(point, state, bound_of, where) -> str | None:
        p, j, theta = point
        ls = oracles.linear_steady_state(oracles.point_of(p, j=j, theta=theta))
        start = np.array([1.0, 0, 0, 0, 0], dtype=complex)
        dist = float(np.linalg.norm(state - ls.state))
        # RK4 decays at the exact rates to O((dt*rate)^4); allow twice the
        # bound plus rounding over the run.
        bound = 2.0 * bound_of(ls, start) + 1e-9 * float(np.linalg.norm(ls.state))
        if state[0] != 1.0 or dist > bound:
            return f"{where}: |C - C_ss| = {dist:.3e} > bound {bound:.3e}"
        return None

    def check(self, label: str, out) -> str | None:
        if label in self.validations:
            p, n_max = self.validations[label]
            truth = oracles.full_model_g2(p, n_max)
            eff = oracles.closed_form(oracles.point_of(p))["g2"]
            return first_problem(
                None if agree(out.g2_full, truth, 0.2 / 10.0)
                else f"g2_full = {out.g2_full!r}, full-model steady state {truth!r}",
                None if agree(out.g2_effective, eff, 1e-9)
                else f"g2_effective = {out.g2_effective!r}, closed form {eff!r}",
            )
        if label.startswith("evolve-"):
            point = self.blockade if label == "evolve-blockade" else self.detuned
            return self._distance_problem(
                point, out["final"], lambda ls, s: ls.distance_bound(out["t"], s), label)
        states, steady = out
        cfg = self.cfg
        if not bool(np.all(steady)):
            # Some set never met the window criterion, so all ran to t_max.
            bound_of = lambda ls, s: ls.distance_bound(cfg.t_max, s)
        else:
            # Every set met the window criterion; the remaining distance is
            # at most the last window's change over 1 - exp(-decay window).
            bound_of = lambda ls, s: ls.condition * cfg.ss_tol * float(
                np.linalg.norm(ls.state)) / (1.0 - math.exp(-ls.decay * cfg.ss_window))
        return first_problem(*(
            self._distance_problem(point, state, bound_of, label)
            for point, state in zip(self.batch_points, states)
        ))


# --------------------------------------------------------------------------
# large-sweep


class LargeSweep(Workload):
    """One 2-D (J, theta) grid per operation, both directions, written to CSV."""

    name = "large-sweep"
    nominal_round_s = 5.0
    min_rounds = 3
    size = 1001
    samples = 64

    def __init__(self, seed: int, ctx: Context):
        rng = np.random.default_rng(seed)
        k1 = rng.uniform(0.1, 0.6)
        self.base = replace(
            params.reference_params(),
            kappa1=k1,
            kappa2=2.0 - k1,
            delta_e=rng.uniform(-1.0, -0.2),
            e_eg=rng.uniform(0.005, 0.02),
            b_in=rng.uniform(0.01, 0.03),
        )
        self.spec = self._spec(self.size)
        self.cells = [tuple(int(x) for x in rng.integers(0, self.size, 2)) for _ in range(self.samples)]
        self.path = ctx.tmp / "large.csv"
        self.warm_path = ctx.tmp / "warm.csv"
        self.jobs = ctx.jobs
        self.last = None

    @staticmethod
    def _spec(n: int):
        return sweeps.SweepSpec(
            axis1=sweeps.SweepAxis("J", -3.0, 3.0, n),
            axis2=sweeps.SweepAxis("theta", -math.pi, math.pi, n),
            overrides={"delta_c": 0.0},
        )

    def points(self, rounds: int) -> int:
        return self.size * self.size * len(self.spec.directions) * rounds

    def warm_up(self) -> None:
        res = sweeps.run_sweep(self._spec(101), self.base, jobs=self.jobs)
        sweeps.write_sweep_csv(res, self.warm_path)

    def _sweep(self):
        res = sweeps.run_sweep(self.spec, self.base, jobs=self.jobs)
        files = sweeps.write_sweep_csv(res, self.path)
        sample = {
            d.value: [(float(res.stats[d]["g2"][i, k]), bool(res.valid[d][i, k])) for i, k in self.cells]
            for d in self.spec.directions
        }
        return {"files": files, "sample": sample}

    def ops(self):
        return [("sweep-1001x1001", self._sweep)]

    def check(self, label: str, out) -> str | None:
        j = self.spec.axis1.values()
        theta = self.spec.axis2.values()
        self.last = out
        for direction, values in out["sample"].items():
            for (i, k), (g2, ok) in zip(self.cells, values):
                want = oracles.closed_form(oracles.point_of(
                    self.base, j=j[i], theta=theta[k], delta_c=0.0, direction=direction))
                if ok != (want is not None) or (ok and not agree(g2, want["g2"], 1e-6, 1e-9)):
                    return f"{direction} cell ({i}, {k}): g2 {g2!r} valid {ok}, oracle {want}"
        return None

    def final_problems(self) -> list[str]:
        """The CSV of the last round against the values it was written from."""
        if self.last is None:
            return ["no sweep completed"]
        problems = []
        names = sorted(self.last["files"])
        expected = sorted(f"large_{d.value}.csv" for d in self.spec.directions)
        if names != expected:
            return [f"wrote {names}, expected {expected}"]
        for direction, values in self.last["sample"].items():
            with open(self.path.with_name(f"large_{direction}.csv")) as fh:
                rows = [line.rstrip("\n") for line in fh if not line.startswith("#")]
            if len(rows) != self.size:
                problems.append(f"{direction} CSV has {len(rows)} rows")
                continue
            for (i, k), (g2, ok) in zip(self.cells, values):
                cells = rows[i].split(",")
                want = repr(g2) if ok and math.isfinite(g2) else ""
                if len(cells) != self.size or cells[k] != want:
                    problems.append(f"{direction} CSV cell ({i}, {k}) is not {want!r}")
                    break
        return problems



# --------------------------------------------------------------------------
# cli-session


def parse_kv(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def read_csv(path: Path, header: bool):
    """(preamble, header row or None, data rows) of a CSV the package wrote."""
    pre, rows = {}, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, _, value = line[2:].partition(" = ")
                pre[key] = value
            else:
                rows.append(line.split(","))
    head = rows.pop(0) if header else None
    return pre, head, rows


def axis_values(pre: dict, key: str) -> np.ndarray:
    name, lo, hi, n = (s.strip() for s in pre[key].split(","))
    return np.linspace(float(lo), float(hi), int(n))


def num(cell: str) -> float:
    return float(cell) if cell else math.nan


class CliSession(Workload):
    """Every verb of the command-line program, each in a fresh process."""

    name = "cli-session"
    nominal_round_s = 24.0
    min_rounds = 1
    figures = (
        "fig2a", "fig2b", "fig3a", "fig3b", "fig3c", "fig3d", "fig5a",
        "fig5b", "fig5c", "fig6a", "fig6b", "fig6c", "fig6d",
    )
    repeat = "fig6b"
    samples = 8

    def __init__(self, seed: int, ctx: Context):
        rng = np.random.default_rng(seed)
        self.ctx = ctx
        self.rng_seed = seed
        self.ref = params.reference_params()
        self.g2_point = (rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi))
        self.delta_e = rng.uniform(-0.8, -0.3)
        self.fixed_delta_c = rng.uniform(-1.0, 2.0)
        self.target = rng.uniform(-1.0, 3.0)
        self.sweep_point = (rng.uniform(-1.0, 1.0), rng.uniform(-math.pi, math.pi))
        self.figs = ctx.tmp / "figures"
        self.spans_dir: Path | None = None
        self._spans_count = 0
        jobs = ["--jobs", str(ctx.jobs)]
        d, j, t = self.g2_point
        sj, st = self.sweep_point
        self.commands = [
            ("g2", ["g2", "--delta-c", repr(d), "--J", repr(j), "--theta", repr(t)]),
            ("optimize", ["optimize", "--delta-e", repr(self.delta_e)]),
            ("optimize-fix-delta-c",
             ["optimize", "--fix-delta-c", "--delta-c", repr(self.fixed_delta_c)]),
            ("nonreciprocal", ["nonreciprocal", "--target-delta-c", repr(self.target)]),
            ("sweep", ["sweep", "--axis1", "delta_c,-4,4,401", "--J", repr(sj), "--theta",
                       repr(st), "--out", str(ctx.tmp / "sweep"), "--name", "scan", *jobs]),
            ("validate-full", ["validate-full"]),
        ]
        self.commands += [
            (f"figure-{f}", ["figure", f, "--out", str(self.figs), *jobs]) for f in self.figures
        ]
        self.commands.append(
            (f"figure-{self.repeat}-repeat",
             ["figure", self.repeat, "--out", str(ctx.tmp / "repeat"), *jobs]))
        self.counted = 0

    def points(self, rounds: int) -> int:
        # Counted from the files while checking, once per operation checked.
        return self.counted

    def _run(self, argv: list[str]):
        if self.spans_dir is None:
            cmd = [sys.executable, "-m", "cavityblockade", *argv]
        else:
            self._spans_count += 1
            spans = self.spans_dir / f"cli-{self._spans_count}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(spans), *argv]
        proc = subprocess.run(
            cmd, env=self.ctx.env, capture_output=True, text=True, timeout=120, cwd=self.ctx.tmp
        )
        return {"code": proc.returncode, "out": proc.stdout, "err": proc.stderr}

    def warm_up(self) -> None:
        self._run(["g2"])

    def ops(self):
        return [(label, lambda a=argv: self._run(a)) for label, argv in self.commands]

    # -- checks ---------------------------------------------------------

    def check(self, label: str, out) -> str | None:
        if out["code"] != 0:
            return f"exit code {out['code']}: {out['err'].strip()[-300:]}"
        kv = parse_kv(out["out"])
        if label == "g2":
            d, j, t = self.g2_point
            want = oracles.closed_form(oracles.point_of(self.ref, j=j, theta=t, delta_c=d))
            got = {k: float(kv[k]) for k in STAT_NAMES}
            return stats_problem(got, want, "g2")
        if label.startswith("optimize"):
            joint = label == "optimize"
            p = replace(self.ref, delta_e=self.delta_e) if joint else replace(
                self.ref, delta_c=self.fixed_delta_c)
            base = oracles.point_of(p)
            root = (float(kv["J"]), float(kv["theta"]), float(kv["delta_c_opt"]))
            want = oracles.closed_form(replace(base, j=root[0], theta=root[1], delta_c=root[2]))
            return first_problem(
                root_problem(base, root, joint, oracles.cancellation_roots(base, joint)),
                None if agree(float(kv["g2"]), want["g2"], 1e-6, 1e-9) else f"g2 {kv['g2']}",
            )
        if label == "nonreciprocal":
            return self._point_problem(kv, self.ref, "nonreciprocal")
        if label == "sweep":
            sj, st = self.sweep_point
            return self._line_problem(self.ctx.tmp / "sweep" / "scan.csv", self.ref,
                                      lambda direction: [(sj, st)])
        if label == "validate-full":
            truth = oracles.full_model_g2(self.ref, 2)
            eff = oracles.closed_form(oracles.point_of(self.ref))["g2"]
            return first_problem(
                None if agree(float(kv["g2_full"]), truth, 0.2 / 10.0)
                else f"g2_full {kv['g2_full']}, full-model steady state {truth!r}",
                None if agree(float(kv["g2_effective"]), eff, 1e-9) else "g2_effective",
            )
        name = label.split("-")[1]
        folder = self.ctx.tmp / "repeat" if label.endswith("-repeat") else self.figs
        return self._figure_problem(name, folder)

    def _rng(self, name: str) -> np.random.Generator:
        return np.random.default_rng([self.rng_seed, sum(map(ord, name))])

    def _count(self, rows, grid: bool) -> None:
        self.counted += sum(len(r) for r in rows) if grid else len(rows)

    def _point_problem(self, kv: dict, base, where: str) -> str | None:
        j, theta, dc = float(kv["J"]), float(kv["theta"]), float(kv["delta_c"])
        problems = []
        for direction in ("forward", "backward"):
            want = oracles.closed_form(oracles.point_of(base, j=j, theta=theta, delta_c=dc,
                                                        direction=direction))
            got = float(kv[f"g2_{direction}"])
            if not agree(got, want["g2"] if want else math.inf, 1e-6, 1e-9):
                problems.append(f"{where}: g2_{direction} {got!r}, oracle {want}")
        gf, gb, contrast = float(kv["g2_forward"]), float(kv["g2_backward"]), float(kv["contrast"])
        if math.isfinite(contrast) and not agree(contrast, math.log10(gb / gf), 1e-12, 1e-12):
            problems.append(f"{where}: contrast {contrast!r} disagrees with its g2 values")
        return first_problem(*problems)

    def _line_problem(self, path: Path, base, candidates) -> str | None:
        """A 1-D sweep CSV: sampled rows must match the closed form at one of
        the candidate (J, theta) pairs of their direction."""
        pre, head, rows = read_csv(path, header=True)
        self._count(rows, grid=False)
        axis = head[0]
        rng = self._rng(path.name)
        for direction in ("forward", "backward"):
            mine = [r for r in rows if r[1] == direction]
            picks = [mine[i] for i in rng.integers(0, len(mine), self.samples)]
            for j, theta in candidates(direction):
                if all(self._row_ok(r, head, base, axis, j, theta, direction) for r in picks):
                    break
            else:
                return f"{path.name}: {direction} rows match no candidate (J, theta)"
        return None

    @staticmethod
    def _row_ok(row, head, base, axis, j, theta, direction) -> bool:
        value = float(row[0])
        p = replace(base, **{axis: value})
        want = oracles.closed_form(oracles.point_of(p, j=j, theta=theta, direction=direction))
        if row[-1] != ("true" if want is not None else "false"):
            return False
        if want is None:
            return True
        got = {k: num(row[head.index(k)]) for k in STAT_NAMES}
        return stats_problem(got, want, "") is None

    def _joint_roots(self, p, direction="forward"):
        return [r[:2] for r in oracles.cancellation_roots(
            oracles.point_of(p, direction=direction), joint=True)]

    def _figure_problem(self, name: str, folder: Path) -> str | None:
        base = self.ref
        files = sorted(folder.glob(f"{name}*"))
        for svg in (f for f in files if f.suffix == ".svg"):
            if not ET.parse(svg).getroot().tag.endswith("svg"):
                return f"{svg.name} is not an SVG document"
        if name in ("fig2a", "fig2b", "fig5b"):
            p = replace(base, g=6.7) if name == "fig5b" else base
            return self._line_problem(folder / f"{name}.csv", p,
                                      lambda d: self._joint_roots(p, d))
        if name in ("fig6c", "fig6d"):
            kv = parse_kv((folder / f"{name}_point.txt").read_text())
            j, theta = float(kv["J"]), float(kv["theta"])
            return first_problem(
                self._point_problem(kv, base, name),
                self._line_problem(folder / f"{name}.csv", base, lambda d: [(j, theta)]),
            )
        if name in ("fig6a", "fig6b"):
            direction = "forward" if name == "fig6a" else "backward"
            return self._grid_problem(
                folder / f"{name}_{direction}.csv", base, direction, lambda i, values: [{}])
        if name in ("fig3a", "fig5a"):
            axis = "delta_e" if name == "fig3a" else "g"
            _, _, table = read_csv(folder / f"{name}_optimum.csv", header=True)
            self._count(table, grid=False)
            problem = self._optimum_problem(name, table, axis, base)
            return problem or self._grid_problem(
                folder / f"{name}_forward.csv", base, "forward",
                lambda i, values: [{"J": num(table[i][1]), "theta": num(table[i][2])}])
        if name == "fig5c":
            p = replace(base, g=6.7)

            def candidates(i, values):
                k1 = values["kappa1"][i]
                row = replace(p, kappa1=k1, kappa2=2.0 - k1)
                return [{"J": j, "theta": t} for j, t in self._joint_roots(row)]

            return self._grid_problem(folder / "fig5c_forward.csv", p, "forward", candidates)
        if name == "fig3b":
            _, _, table = read_csv(folder / "fig3b.csv", header=True)
            self._count(table, grid=False)
            for i in self._rng(name).integers(0, len(table), self.samples):
                de, e_he, j, theta, dc = (num(c) for c in table[i])
                if math.isnan(j):
                    continue
                if not agree(e_he, abs(j) * base.delta_p / base.g, 1e-12):
                    return f"fig3b row {i}: e_he {e_he!r} is not |J| delta_p / g"
                pt = oracles.point_of(replace(base, delta_e=de))
                problem = root_problem(pt, (j, theta, dc), True, oracles.cancellation_roots(pt, True))
                if problem:
                    return f"fig3b row {i}: {problem}"
            return None
        if name in ("fig3c", "fig3d"):
            key = "g2" if name == "fig3c" else "n_paper"
            _, _, table = read_csv(folder / f"{name}.csv", header=True)
            self._count(table, grid=False)
            picks = [table[i] for i in self._rng(name).integers(0, len(table), self.samples)]
            for j, theta in self._joint_roots(base):
                if all(
                    agree(num(row[1 + off]), (oracles.closed_form(oracles.point_of(
                        replace(base, e_eg=e), j=j, theta=theta, delta_c=float(row[0]))) or {}).get(key),
                        1e-6, 1e-9 if key == "g2" else 0.0)
                    for row in picks
                    for off, e in ((0, base.e_eg), (1, 0.0))
                ):
                    return None
            return f"{name}: rows match no cancellation root"
        return f"no check for figure {name}"

    def _optimum_problem(self, name, table, axis, base) -> str | None:
        for i in self._rng(name + "-optimum").integers(0, len(table), self.samples):
            value, j, theta, dc = (num(c) for c in table[i])
            if math.isnan(j):
                continue
            pt = oracles.point_of(replace(base, **{axis: value}))
            problem = root_problem(pt, (j, theta, dc), True, oracles.cancellation_roots(pt, True))
            if problem:
                return f"{name}_optimum row {i}: {problem}"
        return None

    def _grid_problem(self, path, base, direction, candidates) -> str | None:
        """A 2-D g2 grid: each sampled row must match the closed form at one
        of its candidate parameter sets, at every sampled cell of the row."""
        pre, _, rows = read_csv(path, header=False)
        self._count(rows, grid=True)
        names = [pre[k].split(",")[0] for k in ("axis1", "axis2")]
        values = {n: axis_values(pre, k) for n, k in zip(names, ("axis1", "axis2"))}
        rng = self._rng(path.name)
        for i in rng.integers(0, len(rows), 3):
            cols = rng.integers(0, len(rows[i]), 4)
            for cand in candidates(i, values):
                if any(math.isnan(v) for v in cand.values()):
                    ok = all(rows[i][k] == "" for k in cols)
                else:
                    ok = all(self._cell_ok(rows[i][k], base, direction, names, values, i, k, cand)
                             for k in cols)
                if ok:
                    break
            else:
                return f"{path.name} row {i}: cells match no candidate"
        return None

    @staticmethod
    def _cell_ok(cell, base, direction, names, values, i, k, cand) -> bool:
        fields = {}
        direct = dict(cand)
        for name, idx in zip(names, (i, k)):
            v = float(values[name][idx])
            if name in ("J", "theta"):
                direct[name] = v
            else:
                fields[name] = v
        if "kappa1" in fields:
            fields["kappa2"] = 2.0 - fields["kappa1"]
        p = replace(base, **fields)
        want = oracles.closed_form(oracles.point_of(
            p, j=direct.get("J"), theta=direct.get("theta"), direction=direction))
        if want is None or not math.isfinite(want["g2"]):
            return cell == ""
        return agree(num(cell), want["g2"], 1e-6, 1e-9)

    def final_problems(self) -> list[str]:
        """Figure files must be byte-identical across repeats."""
        problems = []
        first = {f.name: f.read_bytes() for f in self.figs.glob(f"{self.repeat}*")}
        again = {f.name: f.read_bytes() for f in (self.ctx.tmp / "repeat").glob(f"{self.repeat}*")}
        if not first or first.keys() != again.keys():
            problems.append(f"{self.repeat} repeat wrote {sorted(again)}, first run {sorted(first)}")
        else:
            problems += [f"{n} differs on repeat" for n in first if first[n] != again[n]]
        return problems



WORKLOADS = {w.name: w for w in (CliSession, BlockadeSolve, TimeDomain, LargeSweep)}


def default_jobs() -> int:
    return max(1, min(2, len(os.sched_getaffinity(0))))
