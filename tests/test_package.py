"""The package namespace: lazy exports and what each CLI verb imports."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import CHILD_WARNINGS

import cavityblockade

SRC = str(Path(cavityblockade.__file__).resolve().parents[1])

SUBMODULES = (
    "cli",
    "dynamics",
    "figures",
    "full_model",
    "optimizer",
    "params",
    "spectrum",
    "steady_state",
    "svgplot",
    "sweeps",
)


def run_python(code: str, *args: str, cwd=None) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONWARNINGS": CHILD_WARNINGS},
        cwd=cwd,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# Runs one verb as ``python -m cavityblockade`` does, then prints the loaded
# package submodules and whether numpy.ma, concurrent.futures and hashlib's
# OpenSSL binding were imported.
VERB_CHILD = """
import json, sys
from cavityblockade.cli import main
code = main(sys.argv[1:])
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("cavityblockade."))
print(json.dumps([
    code,
    loaded,
    "numpy.ma" in sys.modules,
    "concurrent.futures" in sys.modules,
    "_hashlib" in sys.modules,
]))
"""

BASE = ["cli", "params", "steady_state"]


VERBS = {
    "g2": (["g2"], BASE),
    "optimize": (["optimize"], BASE + ["optimizer"]),
    "optimize-fixed": (["optimize", "--fix-delta-c", "--delta-c", "2.5"], BASE + ["optimizer"]),
    "nonreciprocal": (["nonreciprocal"], BASE + ["optimizer"]),
    # No forward root lies in |J| <= 5 at this target, so the point comes
    # from (J, theta) maps, which the sweep engine draws.
    "nonreciprocal-no-root": (
        [
            "nonreciprocal", "--kappa1", "0.5919", "--kappa2", "1.4081", "--g", "8.011",
            "--delta-e", "-0.7073", "--e-eg", "0.0059", "--b-in", "0.0228",
            "--target-delta-c", "-0.7264",
        ],
        BASE + ["optimizer", "sweeps"],
    ),
    "validate-full": (["validate-full"], BASE + ["full_model"]),
    "sweep": (
        ["sweep", "--axis1", "delta_c,-4,4,41", "--optimal-j-theta", "--jobs", "2"],
        BASE + ["optimizer", "sweeps"],
    ),
    "figure": (
        ["figure", "fig2a", "--jobs", "2"],
        BASE + ["figures", "optimizer", "svgplot", "sweeps"],
    ),
    # Only the presets and sweeps that solve for (J, theta) load the optimizer.
    "figure-fig6a": (
        ["figure", "fig6a", "--jobs", "2"],
        BASE + ["figures", "svgplot", "sweeps"],
    ),
    "sweep-fixed-j": (
        ["sweep", "--axis1", "delta_c,-4,4,41", "--J", "0.5", "--jobs", "2"],
        BASE + ["sweeps"],
    ),
}


@pytest.mark.parametrize("verb", VERBS)
def test_each_verb_loads_only_its_own_modules(verb, tmp_path):
    argv, modules = VERBS[verb]
    out = run_python(VERB_CHILD, *argv, cwd=tmp_path).strip().splitlines()[-1]
    code, loaded, numpy_ma, futures, openssl = json.loads(out)
    assert code == 0
    # No verb integrates the amplitude equations, so none loads dynamics.
    assert loaded == sorted(modules)
    # np.unique imports numpy.ma on first use in numpy 2.4.
    assert not numpy_ma
    # Every grid runs on the calling thread, whatever --jobs says, so no
    # verb imports a thread pool.
    assert not futures
    # The sweep config hash uses CPython's built-in SHA-256: OpenSSL's
    # libcrypto costs a few megabytes of resident memory.
    assert not openssl


def test_large_sweep_ignores_jobs(tmp_path):
    # Above 2**17 points too, --jobs 2 starts no thread pool and writes the
    # bytes of --jobs 1.
    assert 363 * 363 > 1 << 17
    axes = ["--axis1", "J,-2,2,363", "--axis2", "theta,-3,3,363", "--delta-c", "0"]
    written = {}
    for jobs in ("1", "2"):
        out = tmp_path / jobs
        argv = ["sweep", *axes, "--jobs", jobs, "--out", str(out)]
        code, _, _, futures, _ = json.loads(
            run_python(VERB_CHILD, *argv).strip().splitlines()[-1]
        )
        assert code == 0
        assert not futures
        written[jobs] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert len(written["1"]) == 2
    assert written["2"] == written["1"]


def test_bare_import_loads_no_submodule():
    out = run_python(
        "import sys, cavityblockade; "
        "print(sorted(m for m in sys.modules if m.startswith('cavityblockade.')))"
    )
    assert out.strip() == "[]"


def test_dynamics_import_loads_no_sweeps():
    # The integrator needs the effective model and the closed-form state,
    # not the sweep and CSV code.
    out = run_python(
        "import sys, cavityblockade.dynamics; "
        "print(sorted(m for m in sys.modules if m.startswith('cavityblockade.')))"
    )
    assert out.strip() == (
        "['cavityblockade.dynamics', 'cavityblockade.params', 'cavityblockade.steady_state']"
    )


def test_submodules_and_star_import_after_bare_import():
    out = run_python(
        "import json, cavityblockade as cb\n"
        f"mods = [getattr(cb, name).__name__ for name in {SUBMODULES!r}]\n"
        "ns = {}\n"
        "exec('from cavityblockade import *', ns)\n"
        "print(json.dumps([mods, sorted(k for k in ns if k != '__builtins__')]))\n"
    )
    mods, star = json.loads(out)
    assert mods == [f"cavityblockade.{name}" for name in SUBMODULES]
    assert star == sorted(cavityblockade.__all__)


def test_figure_names_lookup_loads_only_params():
    # The CLI parser names the presets without loading the figure code.
    out = run_python(
        "import sys, cavityblockade; cavityblockade.FIGURE_NAMES; "
        "print(sorted(m for m in sys.modules if m.startswith('cavityblockade.')))"
    )
    assert out.strip() == "['cavityblockade.params']"


def defined_names(module) -> set[str]:
    """Names ``module`` binds at top level by a def, a class or an
    assignment, not by an import."""
    names = set()
    for node in ast.parse(Path(module.__file__).read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_exports_are_the_defining_modules_objects():
    # Each lazy export names the module that defines it, not one that
    # re-exports it, so looking it up loads no more than that module.
    for name, short in cavityblockade._EXPORTS.items():
        module = importlib.import_module(f"cavityblockade.{short}")
        assert name in defined_names(module), f"{name} is not defined in {short}"
        owner = getattr(getattr(module, name), "__module__", module.__name__)
        assert owner == module.__name__, f"{name} is defined in {owner}, not {short}"
    owners = {name: [] for name in cavityblockade.__all__}
    for short in SUBMODULES:
        module = importlib.import_module(f"cavityblockade.{short}")
        for name in getattr(module, "__all__", ()):
            if name in owners:
                owners[name].append(module)
    for name, modules in owners.items():
        assert modules, f"{name} is exported by no submodule"
        for module in modules:
            assert getattr(cavityblockade, name) is getattr(module, name), name
    from cavityblockade.full_model import validate_effective

    assert cavityblockade.validate_effective is validate_effective
    assert "validate_effective" in cavityblockade.__all__
    from cavityblockade.dynamics import AmplitudeState

    assert cavityblockade.AmplitudeState is AmplitudeState


def test_dir_lists_every_export():
    listed = dir(cavityblockade)
    assert set(cavityblockade.__all__) <= set(listed)
    assert set(SUBMODULES) <= set(listed)


def own_docstring(obj) -> str | None:
    """The docstring ``obj`` defines itself: not one a class inherits, nor
    the ``Name(field: type, ...)`` text ``dataclasses`` makes up without one."""
    if not inspect.isclass(obj):
        return obj.__doc__
    doc = vars(obj).get("__doc__")
    if dataclasses.is_dataclass(obj):
        made_up = obj.__name__ + str(inspect.signature(obj)).replace(" -> None", "")
        if doc == made_up:
            return None
    return doc


@pytest.mark.parametrize("short", SUBMODULES)
def test_every_exported_class_and_function_has_its_own_docstring(short):
    # The package's exports are its submodules' objects (tested above).
    module = importlib.import_module(f"cavityblockade.{short}")
    missing = [
        name
        for name in getattr(module, "__all__", ())
        if inspect.isclass(obj := getattr(module, name)) or inspect.isfunction(obj)
        if not (own_docstring(obj) or "").strip()
    ]
    assert not missing, f"{short}: no docstring for {missing}"


def test_made_up_dataclass_text_is_no_docstring():
    @dataclasses.dataclass
    class Bare:
        x: int

    @dataclasses.dataclass
    class Documented:
        """A point."""

        x: int

    assert Bare.__doc__ and own_docstring(Bare) is None
    assert own_docstring(Documented) == "A point."


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cavityblockade.no_such_name
