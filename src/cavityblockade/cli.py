"""Command-line interface.

Verbs: ``g2`` (single-point statistics), ``sweep`` (1-D/2-D grids to CSV),
``optimize`` (blockade-condition roots), ``nonreciprocal`` (working-point
search), ``validate-full`` (effective-vs-full-model check), ``figure``
(named presets).  Parameter flags mirror the config-file keys; ``--config``
is applied first and flags override it.

Exit codes: 0 success, 1 configuration error, 2 numerical failure, 141
when the reader of standard output has gone away.  ``validate-full`` is a
report, not a gate: it exits 0 also when it prints ``pass = false``.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import os
import sys
import warnings
from pathlib import Path

from .params import (
    FIGURE_NAMES,
    ConfigError,
    Direction,
    NumericalFailure,
    SystemParams,
    _FLOAT_FIELDS,
    _kv_text,
    load_config,
    params_from_mapping,
    reference_params,
)
from .steady_state import OBSERVABLES


class _Parser(argparse.ArgumentParser):
    """argparse's default error path calls sys.exit(2); route it through
    the config-error channel instead so exit codes follow the contract."""

    def error(self, message: str) -> None:
        raise ConfigError(message)


def _add_param_flags(
    parser: argparse.ArgumentParser, *, direction: bool = True
) -> None:
    """``--config`` and a flag per config-file key; ``--direction`` only
    with ``direction``, for the verbs that evaluate one direction."""
    parser.add_argument(
        "--config",
        type=Path,
        help="key = value parameter file, applied before any flags",
    )
    group = parser.add_argument_group(
        "system parameters (defaults: the reference working point)"
    )
    for name in _FLOAT_FIELDS:
        group.add_argument(f"--{name.replace('_', '-')}", dest=name, type=float)
    if direction:
        group.add_argument("--direction", choices=[d.value for d in Direction])


def _params_from_args(args: argparse.Namespace) -> SystemParams:
    base = reference_params()
    if args.config is not None:
        try:
            base = load_config(args.config, base=base)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
    overrides: dict[str, object] = {}
    for name in _FLOAT_FIELDS:
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    direction = getattr(args, "direction", None)
    if direction is not None:
        overrides["direction"] = Direction(direction)
    return params_from_mapping(overrides, base=base)


def _parse_axis(text: str):
    from .sweeps import SweepAxis

    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ConfigError(
            f"axis must be 'name,min,max,n', got {text!r}"
        )
    name, lo, hi, n = parts
    try:
        return SweepAxis(name, float(lo), float(hi), int(n))
    except ValueError as exc:
        raise ConfigError(f"bad axis {text!r}: {exc}") from exc


def _jobs(text: str) -> int:
    """The ``--jobs`` count of sweep and figure, checked but unused: an
    integer of at least 1."""
    if not text.strip().isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _cmd_g2(args: argparse.Namespace) -> int:
    from . import steady_state

    params = _params_from_args(args)
    stats = steady_state.steady_stats(params, j=args.J, theta=args.theta)
    sys.stdout.write(
        _kv_text(
            [
                ("direction", params.direction.value),
                ("delta_c", params.delta_c),
                ("g2", stats.g2),
                ("p1", stats.p1),
                ("p2", stats.p2),
                ("n_paper", stats.n_cavity_paper),
                ("n_full", stats.n_cavity_full),
            ]
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from . import sweeps

    params = _params_from_args(args)
    overrides: dict[str, float] = {}
    if args.J is not None:
        overrides["J"] = args.J
    if args.theta is not None:
        overrides["theta"] = args.theta
    spec = sweeps.SweepSpec(
        axis1=_parse_axis(args.axis1),
        axis2=None if args.axis2 is None else _parse_axis(args.axis2),
        overrides=overrides,
        directions=sweeps.parse_directions(args.directions),
        observable=args.observable,
        optimal_j_theta=args.optimal_j_theta,
    )
    result = sweeps.run_sweep(spec, params)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        files = sweeps.write_sweep_csv(result, out / f"{args.name}.csv")
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    for name in files:
        print(out / name)
    return 0


def _cmd_optimize(args: argparse.Namespace) -> int:
    from . import optimizer, steady_state

    params = _params_from_args(args)
    point = optimizer.solve_optimal(params, fix_delta_c=args.fix_delta_c)
    at_optimum = dataclasses.replace(params, delta_c=point.delta_c_opt)
    stats = steady_state.steady_stats(at_optimum, j=point.J, theta=point.theta)
    sys.stdout.write(
        _kv_text(
            [
                ("direction", point.direction.value),
                ("J", point.J),
                ("theta", point.theta),
                ("delta_c_opt", point.delta_c_opt),
                ("residual", point.residual),
                ("g2", stats.g2),
            ]
        )
    )
    return 0


def _cmd_nonreciprocal(args: argparse.Namespace) -> int:
    from . import optimizer

    params = _params_from_args(args)
    _, _, report = optimizer.nonreciprocal_point(params, args.target_delta_c)
    sys.stdout.write(report.as_text())
    return 0


def _cmd_validate_full(args: argparse.Namespace) -> int:
    from .full_model import validate_effective

    params = _params_from_args(args)
    report = validate_effective(params, n_max=args.n_max)
    sys.stdout.write(report.as_text())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from . import figures

    try:
        files = figures.figure(args.name, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc
    for name in files:
        print(Path(args.out) / name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavityblockade",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("g2", help="steady-state photon statistics at one point")
    _add_param_flags(p)
    p.add_argument("--J", type=float, help="override the Raman coupling directly")
    p.add_argument("--theta", type=float, help="override the drive phase directly")
    p.set_defaults(func=_cmd_g2)

    # Without abbreviations, so that --direction is no prefix of --directions.
    p = sub.add_parser(
        "sweep", help="evaluate statistics over a parameter grid", allow_abbrev=False
    )
    _add_param_flags(p, direction=False)
    p.add_argument("--axis1", required=True, help="axis as 'name,min,max,n'")
    p.add_argument("--axis2", help="optional second axis as 'name,min,max,n'")
    p.add_argument(
        "--directions", default="both", help="forward, backward, or both"
    )
    p.add_argument("--observable", default="g2", choices=OBSERVABLES)
    p.add_argument(
        "--optimal-j-theta",
        action="store_true",
        help="re-solve the blockade-optimal J and theta at every grid point",
    )
    p.add_argument("--J", type=float, help="fixed Raman coupling override")
    p.add_argument("--theta", type=float, help="fixed drive-phase override")
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument("--name", default="sweep", help="output file stem")
    p.add_argument(
        "--jobs",
        type=_jobs,
        help="accepted for compatibility only: every grid runs on the calling thread",
    )
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", help="solve the two-photon cancellation condition")
    _add_param_flags(p)
    p.add_argument(
        "--fix-delta-c",
        action="store_true",
        help="hold delta_c at its configured value instead of solving for it",
    )
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser(
        "nonreciprocal", help="find a working point with one-way blockade"
    )
    _add_param_flags(p, direction=False)
    p.add_argument(
        "--target-delta-c",
        type=float,
        default=0.0,
        help="cavity detuning at which to place the nonreciprocal point",
    )
    p.set_defaults(func=_cmd_nonreciprocal)

    p = sub.add_parser(
        "validate-full",
        help="compare the effective model against the three-level steady state",
        description="Compare the effective model's g2 with the steady state of "
        "the three-level model.  This is a report, not a gate: it exits 0 also "
        "when it prints pass = false.",
    )
    _add_param_flags(p)
    p.add_argument("--n-max", dest="n_max", type=int, default=2)
    p.set_defaults(func=_cmd_validate_full)

    p = sub.add_parser("figure", help="regenerate a named figure preset")
    p.add_argument("name", help="figure name, e.g. one of: " + ", ".join(FIGURE_NAMES))
    p.add_argument("--out", default=".", help="output directory")
    p.add_argument(
        "--jobs",
        type=_jobs,
        help="accepted for compatibility only: every grid runs on the calling thread",
    )
    p.set_defaults(func=_cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ArithmeticError, NumericalFailure) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # Every other ValueError means the request was malformed; a
        # NumericalFailure is a ValueError too, but the clause above claims it.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1


_standard_format = warnings.formatwarning


def _format_warning(message, category, filename, lineno, line=None) -> str:
    """A warning of this package as one ``<Category>: <message>`` line.

    Such a warning (a RegimeWarning, NotNonreciprocal) reports on the
    request, not on a line of the library, so a program's stderr does not
    move with edits to the package.  Other warnings keep the standard
    format.
    """
    if category.__module__.partition(".")[0] == __package__:
        return f"{category.__name__}: {message}\n"
    return _standard_format(message, category, filename, lineno, line)


def run() -> int:
    """Entry point of the program: ``python -m cavityblockade`` and the
    installed ``cavityblockade`` script.

    Runs :func:`main` on the command line with the package's warnings
    printed by :func:`_format_warning`.  When :func:`main` returns, the
    process ends at once: the exit handlers run, standard output and
    standard error are flushed, and ``os._exit`` skips the interpreter's
    teardown, a full garbage collection and the freeing of every object
    numpy and the package made, which writes nothing.

    When the reader of standard output has gone away (``| head -c0``), so
    that a write or the flush of standard output raises BrokenPipeError,
    standard output is pointed at the null device and this function
    returns 141, the status of a process killed by SIGPIPE, without a
    traceback.  Should another flush fail (a closed file) or a stream be
    missing, this function returns the verb's code and the interpreter
    exits and reports it as usual.  Any other exception that leaves
    :func:`main`, the ``SystemExit`` of ``-h`` among them, exits the usual
    way too.

    Embedders and profilers call :func:`main`, which returns its exit code
    and leaves the warnings machinery as it finds it; both emit the same
    warnings.  ``python -m cProfile -m cavityblockade ...`` ends with the
    verb and prints no profile; ``bench/cli_child.py`` shows the in-process
    pattern.
    """
    warnings.formatwarning = _format_warning
    try:
        code = main()
    except BrokenPipeError:
        return _reader_gone()
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        return _reader_gone()
    except (AttributeError, OSError, ValueError):
        # No stream (started with it closed) or a closed file.
        return code
    try:
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):
        return code
    os._exit(code)


def _reader_gone() -> int:
    """The exit status once the reader of standard output has gone away:
    141, that of a process killed by SIGPIPE (128 + 13).  Standard output is
    pointed at the null device first, so the interpreter's own flush at exit
    does not report the broken pipe a second time."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 141


if __name__ == "__main__":
    sys.exit(run())
