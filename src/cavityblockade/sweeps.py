"""Parameter sweeps over the analytic steady state.

A sweep evaluates the closed-form photon statistics on a 1-D or 2-D grid
of parameter values, optionally re-solving the optimal-blockade (J, theta)
at every grid point.  Mirror asymmetry is preserved under a kappa1 axis by
sliding kappa2 = 2 kappa - kappa1, so the total linewidth stays the unit
of every other quantity.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from . import __version__
from . import steady_state
from .params import (
    OVERRIDE_NAMES,
    ConfigError,
    Direction,
    SystemParams,
    _FLOAT_FIELDS,
    _check_overrides,
    _denominators,
    _derive,
    _require_finite,
    _warn_regime,
)
from .steady_state import OBSERVABLES

STAT_COLUMNS = ("p1", "p2", "g2", "n_paper", "n_full")

#: Grid points per evaluation block: whole rows of the first axis, at
#: least one row, at most about this many points.  It bounds the
#: temporaries of any sweep to a few hundred kilobytes.
_CHUNK_POINTS = 1 << 12

#: Points per block when worker threads share a grid.  Each block makes
#: the same few dozen numpy calls whatever its size, and threads hand the
#: GIL back and forth between calls, so smaller blocks make threads slower
#: than one.
_POOL_CHUNK_POINTS = 1 << 14

#: Only a grid of more points than this, eight pool blocks, is spread over
#: worker threads; a smaller one (every figure preset) runs on the calling
#: thread.  On a 2-CPU host, a J x theta grid in both directions took
#: 36.5 ms on one thread and 47.2 ms on two at 331 x 331 (seven blocks),
#: and 42.6 against 39.7 ms at 361 x 361 (nine blocks).
_POOL_POINTS = 8 * _POOL_CHUNK_POINTS


@dataclass(frozen=True)
class SweepAxis:
    name: str
    minimum: float
    maximum: float
    count: int

    def __post_init__(self) -> None:
        if self.name not in OVERRIDE_NAMES:
            raise ConfigError(
                f"axis parameter {self.name!r} is not a system parameter, J, or theta"
            )
        if not (self.minimum < self.maximum):
            raise ConfigError(
                f"axis {self.name}: need minimum < maximum, got "
                f"[{self.minimum!r}, {self.maximum!r}]"
            )
        for bound in (self.minimum, self.maximum):
            _require_finite(f"axis {self.name}: bounds", bound)
        # Python floats: a span that overflows is inf, without a warning.
        span = float(self.maximum) - float(self.minimum)
        _require_finite(f"axis {self.name}: span maximum - minimum", span)
        if self.count < 2:
            raise ConfigError(f"axis {self.name}: need at least 2 points")

    def values(self) -> np.ndarray:
        return np.linspace(self.minimum, self.maximum, self.count)


@dataclass(frozen=True)
class SweepSpec:
    axis1: SweepAxis
    axis2: SweepAxis | None = None
    overrides: Mapping[str, float] = dataclasses.field(default_factory=dict)
    directions: tuple[Direction, ...] = (Direction.FORWARD, Direction.BACKWARD)
    observable: str = "g2"
    optimal_j_theta: bool = False

    def __post_init__(self) -> None:
        if self.observable not in OBSERVABLES:
            raise ConfigError(
                f"observable must be one of {OBSERVABLES}, got {self.observable!r}"
            )
        _check_overrides(self.overrides)
        if not self.directions:
            raise ConfigError("at least one direction is required")
        names = {self.axis1.name}
        if self.axis2 is not None:
            if self.axis2.name == self.axis1.name:
                raise ConfigError("axis1 and axis2 must differ")
            names.add(self.axis2.name)
        clash = names & set(self.overrides)
        if clash:
            raise ConfigError(f"override keys collide with axes: {sorted(clash)}")
        if self.optimal_j_theta and (names | set(self.overrides)) & {"J", "theta"}:
            raise ConfigError(
                "optimal_j_theta resolves J and theta; they cannot also be set"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        if self.axis2 is None:
            return (self.axis1.count,)
        return (self.axis1.count, self.axis2.count)


def parse_directions(text: str) -> tuple[Direction, ...]:
    key = text.strip().lower()
    if key == "both":
        return (Direction.FORWARD, Direction.BACKWARD)
    try:
        return (Direction(key),)
    except ValueError:
        raise ConfigError(
            f"directions must be forward, backward, or both; got {text!r}"
        ) from None


@dataclass(frozen=True)
class SweepResult:
    """The grids of one sweep, keyed by direction, each of ``spec.shape``.

    ``stats`` maps the five statistics of ``STAT_COLUMNS`` to arrays of
    their own, and ``valid`` is one too: a point is invalid where a
    steady-state denominator is singular, an occupation is not finite, or
    a joint solve has no root, and every statistic is NaN there.
    ``j_used``, ``theta_used`` and ``delta_c_opt`` are read-only views that
    broadcast the derived couplings, or the optimizer's reduced grid, to
    the sweep grid; copy one before writing to it.  ``delta_c_opt`` is None
    unless ``spec.optimal_j_theta``.
    """

    spec: SweepSpec
    base: SystemParams
    values1: np.ndarray
    values2: np.ndarray | None
    stats: Mapping[Direction, Mapping[str, np.ndarray]]
    valid: Mapping[Direction, np.ndarray]
    j_used: Mapping[Direction, np.ndarray]
    theta_used: Mapping[Direction, np.ndarray]
    delta_c_opt: Mapping[Direction, np.ndarray | None]
    provenance: Mapping[str, str]

    def observable_grid(self, direction: Direction) -> np.ndarray:
        return self.stats[direction][self.spec.observable]


def _config_text(spec: SweepSpec, base: SystemParams) -> bytes:
    """The text ``config_hash`` digests: the repr of ``(spec, base)`` with
    every real number a Python float and every count a Python int, so a
    grid hashes the same however its numbers were typed (``-1``, ``-1.0``
    or ``np.float64(-1.0)``), and with the base's direction forward, since
    ``spec.directions`` alone names the directions a sweep runs."""

    def axis(a: SweepAxis | None) -> SweepAxis | None:
        if a is None:
            return None
        return dataclasses.replace(
            a,
            minimum=float(a.minimum),
            maximum=float(a.maximum),
            count=operator.index(a.count),
        )

    spec = dataclasses.replace(
        spec,
        axis1=axis(spec.axis1),
        axis2=axis(spec.axis2),
        overrides={name: float(v) for name, v in spec.overrides.items()},
    )
    base = dataclasses.replace(
        base,
        direction=Direction.FORWARD,
        **{
            name: float(v)
            for name in _FLOAT_FIELDS
            if (v := getattr(base, name)) is not None
        },
    )
    return repr((spec, base)).encode()


def _provenance(spec: SweepSpec, base: SystemParams) -> dict[str, str]:
    # hashlib loads OpenSSL's libcrypto, a few megabytes of resident memory,
    # for this one short digest; CPython's built-in SHA-256 gives the same.
    try:
        from _sha2 import sha256  # CPython 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10-3.11
        except ImportError:
            from hashlib import sha256
    return {
        "version": __version__,
        "config_hash": sha256(_config_text(spec, base)).hexdigest()[:16],
    }


def _axis_overrides(spec: SweepSpec) -> dict[str, np.ndarray]:
    v1 = spec.axis1.values()
    if spec.axis2 is None:
        return {spec.axis1.name: v1}
    v2 = spec.axis2.values()
    return {spec.axis1.name: v1[:, None], spec.axis2.name: v2[None, :]}


def _evaluate_direction(
    params: SystemParams, spec: SweepSpec, jobs: int | None
) -> tuple[
    dict[str, np.ndarray], np.ndarray, np.ndarray, np.ndarray, np.ndarray | None, list
]:
    grid = dict(_axis_overrides(spec))
    for key, value in spec.overrides.items():
        grid[key] = np.asarray(float(value))
    # delta_c enters only the denominators M and N, not the joint solve nor
    # a regime check.  Over a detuning axis M and N vary over the whole
    # grid, so each block forms them from its own rows instead.
    delta_c = grid.pop("delta_c", None)

    dc_opt = None
    if spec.optimal_j_theta:
        from . import optimizer

        # The joint solve runs on the grid without delta_c, which drops out
        # of it; its arrays broadcast against the sweep grid.  A column with
        # no root has J = NaN, a point the evaluator marks invalid.  The
        # regime conditions of this grid, whose e_he is the configured one
        # that no cell uses, are dropped; the cells' grid below checks them.
        consts, _ = _derive(params, grid)
        grid["J"], grid["theta"], dc_opt = optimizer.solve_optimal_arrays(
            *(consts[key] for key in ("e_eg", "omega", "g_shift", "delta_e", "kappa"))
        )
        if delta_c is None:
            # Without a detuning axis the natural operating point is the
            # per-point optimal detuning itself.
            delta_c = dc_opt
    if delta_c is None:
        delta_c = params.delta_c

    consts, violated = _derive(params, grid)
    full_shape = spec.shape
    # Read-only views: J and theta vary along fewer axes than the grid, as
    # does delta_c_opt, and nothing writes to them.
    j_used = np.broadcast_to(consts["j"], full_shape)
    theta_used = np.broadcast_to(consts["theta"], full_shape)
    if dc_opt is not None:
        dc_opt = np.broadcast_to(dc_opt, full_shape)
    names = ("kappa", "g_shift", "omega", "delta_e", "j", "theta", "e_eg")
    inputs = [np.asarray(a) for a in (delta_c, *(consts[key] for key in names))]
    # M and N at the base detuning go with the rest.
    del consts
    # The blocks below cover every row, so every cell is written.
    stat_out = {name: np.empty(full_shape) for name in STAT_COLUMNS}
    valid = np.empty(full_shape, dtype=bool)

    def evaluate(rows: slice) -> None:
        # Only an array that varies along the first axis is cut; the others
        # broadcast against the block as they are.
        delta_c, kappa, g_shift, omega, delta_e, j, theta, e_eg = (
            a[rows] if a.ndim == len(full_shape) and a.shape[0] > 1 else a
            for a in inputs
        )
        m, n = _denominators(delta_c, kappa, g_shift, delta_e)
        # Blocks cover disjoint rows, so threads never write the same cell.
        _, valid[rows] = steady_state._stats_from_parameters(
            omega, m, n, delta_e, j, theta, e_eg,
            out={name: whole[rows] for name, whole in stat_out.items()},
        )

    n_rows = spec.axis1.count
    points = math.prod(full_shape)
    pooled = points > _POOL_POINTS and (jobs or 1) > 1
    per = max(1, (_POOL_CHUNK_POINTS if pooled else _CHUNK_POINTS) // (points // n_rows))
    chunks = [slice(i, min(i + per, n_rows)) for i in range(0, n_rows, per)]
    workers = min(jobs, len(chunks)) if pooled else 1
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            # Reading every result re-raises an exception from a worker.
            list(pool.map(evaluate, chunks))
    else:
        for rows in chunks:
            evaluate(rows)
    return stat_out, valid, j_used, theta_used, dc_opt, violated


def run_sweep(
    spec: SweepSpec, base: SystemParams, *, jobs: int | None = None
) -> SweepResult:
    """Evaluate the analytic steady state over the requested grid.

    The grid is evaluated in blocks of whole rows, about 2**12 points each,
    written straight into the result arrays, so the memory a sweep needs
    beyond its result is bounded by the block, not the grid.  The result
    holds the five statistics of ``STAT_COLUMNS`` and ``valid`` per
    direction at full grid size; ``j_used``, ``theta_used`` and
    ``delta_c_opt`` are read-only views, as large only as the axes they
    vary along.  ``jobs`` is an upper bound on worker threads: a grid of
    at most 2**17 points runs on the calling thread, a larger one with
    ``jobs > 1`` on ``min(jobs, blocks)`` threads in blocks of about 2**14
    points.  Every point is computed independently, so the arrays are identical
    whatever the blocking and the thread count.  Each regime condition
    some point violates is warned once per sweep, whatever the directions
    and the grids it is checked on.
    """
    results = [
        _evaluate_direction(dataclasses.replace(base, direction=direction), spec, jobs)
        for direction in spec.directions
    ]
    stats, valid, j_used, theta_used, dc_opt, violated = (
        dict(zip(spec.directions, column)) for column in zip(*results)
    )
    _warn_regime([v for found in violated.values() for v in found], 2, grid=True)
    return SweepResult(
        spec=spec,
        base=base,
        values1=spec.axis1.values(),
        values2=None if spec.axis2 is None else spec.axis2.values(),
        stats=stats,
        valid=valid,
        j_used=j_used,
        theta_used=theta_used,
        delta_c_opt=dc_opt,
        provenance=_provenance(spec, base),
    )


def _fmt(x: float) -> str:
    """One CSV cell: the shortest round-trip repr of a finite value, else empty."""
    if not math.isfinite(x):
        return ""
    return repr(float(x))


def _csv_rows(table: np.ndarray, ok) -> Iterator[str]:
    """One CSV line per row of a 2-D float table, by the ``_fmt`` cell rule.

    ``ok`` broadcasts against the table; cells where it is False are empty.
    A row whose cells are all valid and finite is formatted by one C-level
    list repr: each float's repr is the one ``_fmt`` writes, and none
    contains ", ".  Any other row goes cell by cell.  Rows are formatted one
    at a time, so a large grid is never held as Python objects all at once.
    """
    ok = np.broadcast_to(ok, table.shape)
    clean = (ok & np.isfinite(table)).all(axis=1)
    for row, good, fast in zip(table, ok, clean.tolist()):
        # tolist hands repr and _fmt Python floats, not numpy scalars.
        cells = row.tolist()
        if fast:
            yield repr(cells)[1:-1].replace(", ", ",")
        else:
            yield ",".join([_fmt(v) if g else "" for v, g in zip(cells, good.tolist())])


def _preamble(result: SweepResult) -> list[str]:
    spec = result.spec
    lines = [
        f"# version = {result.provenance['version']}",
        f"# config_hash = {result.provenance['config_hash']}",
    ]
    for key, axis in (("axis1", spec.axis1), ("axis2", spec.axis2)):
        if axis is not None:
            lines.append(
                f"# {key} = {axis.name}, {_fmt(axis.minimum)}, "
                f"{_fmt(axis.maximum)}, {axis.count}"
            )
    return lines


def write_sweep_csv(result: SweepResult, path) -> list[str]:
    """Serialize a sweep; 1-D grids go to one file, 2-D to one per direction.

    Returns the written file names.  Invalid or non-finite values are
    left as empty cells; the ``valid`` column makes the mask explicit.
    """
    import pathlib

    path = pathlib.Path(path)
    if result.spec.axis2 is None:
        lines = _preamble(result)
        header = [result.spec.axis1.name, "direction"] + list(STAT_COLUMNS) + ["valid"]
        lines.append(",".join(header))
        axis = [_fmt(x) for x in result.values1.tolist()]
        for direction in result.spec.directions:
            ok = result.valid[direction]
            table = np.column_stack([result.stats[direction][name] for name in STAT_COLUMNS])
            stats = _csv_rows(table, ok[:, None])
            flags = ["true" if good else "false" for good in ok.tolist()]
            for x, row, flag in zip(axis, stats, flags):
                lines.append(f"{x},{direction.value},{row},{flag}")
        path.write_text("\n".join(lines) + "\n")
        return [path.name]

    written = []
    for direction in result.spec.directions:
        target = path.with_name(f"{path.stem}_{direction.value}{path.suffix}")
        lines = _preamble(result)
        lines.append(f"# observable = {result.spec.observable}")
        with target.open("w") as fh:
            fh.write("\n".join(lines) + "\n")
            for line in _csv_rows(result.observable_grid(direction), result.valid[direction]):
                fh.write(line + "\n")
        written.append(target.name)
    return written


__all__ = [
    "STAT_COLUMNS",
    "SweepAxis",
    "SweepResult",
    "SweepSpec",
    "parse_directions",
    "run_sweep",
    "write_sweep_csv",
]
