"""Photon blockade in an asymmetric cavity with a driven three-level atom.

Steady-state photon statistics, optimal-blockade parameter search, and
nonreciprocity analysis for a two-mirror cavity whose mirrors leak at
different rates.  All rates and detunings are in units of the total cavity
linewidth kappa unless stated otherwise.
"""

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.  ``import cavityblockade``
#: loads none of the submodules: each is imported the first time one of its
#: names, or the submodule itself, is looked up on the package (PEP 562), so
#: a CLI verb loads only the code it runs.
_EXPORTS = {
    "AmplitudeState": "steady_state",
    "ConfigError": "params",
    "DegenerateDetuning": "optimizer",
    "Direction": "params",
    "EffectiveParams": "params",
    "EnergyPair": "spectrum",
    "FIGURE_NAMES": "params",
    "FullModel": "full_model",
    "IntegratorConfig": "dynamics",
    "NonFiniteState": "dynamics",
    "NumericalFailure": "params",
    "NonreciprocityReport": "optimizer",
    "NoRealSolution": "optimizer",
    "NotNonreciprocal": "optimizer",
    "OptimalPoint": "optimizer",
    "PhotonStats": "steady_state",
    "RegimeWarning": "params",
    "SingularDenominator": "steady_state",
    "SweepAxis": "sweeps",
    "SweepResult": "sweeps",
    "SweepSpec": "sweeps",
    "SystemParams": "params",
    "Trajectory": "dynamics",
    "UnknownFigure": "figures",
    "ValidationReport": "full_model",
    "analytic_amplitudes": "steady_state",
    "anharmonicity": "spectrum",
    "derive_effective": "params",
    "eigenenergies": "spectrum",
    "evolve": "dynamics",
    "figure": "figures",
    "find_roots": "optimizer",
    "implied_e_he": "params",
    "load_config": "params",
    "mirror_swap": "params",
    "nonreciprocal_point": "optimizer",
    "parse_config": "params",
    "photon_stats": "steady_state",
    "reference_params": "params",
    "run_sweep": "sweeps",
    "solve_optimal": "optimizer",
    "steady_rk4": "dynamics",
    "steady_stats": "steady_state",
    "vacuum_state": "dynamics",
    "validate_effective": "full_model",
    "write_sweep_csv": "sweeps",
}

__all__ = list(_EXPORTS)

_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "svgplot"}


def __getattr__(name: str):
    if name in _SUBMODULES:
        # __import__ binds the submodule on the package and, unlike
        # importlib.import_module, is timed by ``python -X importtime``.
        __import__(f"{__name__}.{name}")
        return globals()[name]
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(__getattr__(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)
