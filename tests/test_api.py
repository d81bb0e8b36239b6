"""Tests for the package's public names."""
import dataclasses
import importlib
import inspect

import pytest

import oneshot
import oneshot.cli

# one solver function for all four kinds and one closed-form function for
# both chi/psi families: no named per-kind or per-family wrappers beside them
PUBLIC_FUNCTIONS = {
    "oneshot.solvers": {"run_method"},
    "oneshot.bounds": {"closed_form", "default_params", "gd_bound",
                       "matrix_bound"},
}


def _functions_from(namespace, module):
    return {name for name, obj in vars(namespace).items()
            if inspect.isfunction(obj) and obj.__module__ == module
            and not name.startswith("_")}


@pytest.mark.parametrize("name", oneshot.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(oneshot, name) is not None


@pytest.mark.parametrize("module", sorted(PUBLIC_FUNCTIONS))
def test_public_functions_are_the_entry_points(module):
    mod = importlib.import_module(module)
    assert _functions_from(mod, module) == PUBLIC_FUNCTIONS[module]
    # the package re-exports none beyond them
    assert _functions_from(oneshot, module) <= PUBLIC_FUNCTIONS[module]


def test_one_matrix_problem_container():
    # a complex-state problem is held as its realification: there is no
    # complex container beside the real one, nor a shared base class
    assert not hasattr(oneshot, "ComplexInverseProblem")
    lm = oneshot.linear_model
    containers = {name for name, obj in vars(lm).items()
                  if inspect.isclass(obj) and obj.__module__ == lm.__name__
                  and dataclasses.is_dataclass(obj)
                  and {"B", "M", "H", "F"} <= {f.name for f in dataclasses.fields(obj)}}
    assert containers == {"RealInverseProblem"}


def test_sweep_operators_live_in_linear_model():
    # spectral and the package re-bind them; solvers imports them from there
    assert oneshot.tux is oneshot.spectral.tux is oneshot.linear_model.tux
    assert (oneshot.TUXTriple is oneshot.spectral.TUXTriple
            is oneshot.linear_model.TUXTriple)
    assert oneshot.solvers.tux is oneshot.linear_model.tux


def test_solver_kind_is_the_method_table():
    # the method names, and which kinds are one-shot or shifted, are read
    # from SolverKind: no module keeps a copy of them
    assert not hasattr(oneshot.cli, "METHOD_NAMES")
    assert not hasattr(oneshot.solvers, "ONE_SHOT_KINDS")
    assert not hasattr(oneshot.bounds, "GOLDEN_THRESHOLD")
    assert "shifted" not in dir(oneshot.solvers.MethodSpec)
    kinds = oneshot.solvers.SolverKind
    for kind in kinds:
        assert oneshot.cli._method_kind(kind.value) is kind
    flags = {kind.value: (kind.one_shot, kind.shifted) for kind in kinds}
    assert flags == {"gd": (False, False), "sgd": (False, True),
                     "kshot": (True, False), "skshot": (True, True)}
    with pytest.raises(ValueError) as exc:
        oneshot.cli._method_kind("foo")
    assert str(exc.value) == ("unknown method 'foo', choose from "
                              "gd, sgd, kshot, skshot")
