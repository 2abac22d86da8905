"""The package's public surface: its exports, its error classes and the
shared scalar argument checks."""

import dataclasses
import importlib.util
import inspect
import pkgutil
import types

import numpy as np
import pytest

import milac
import milac.errors
from milac.errors import DimensionError, check_count, check_positive

# every submodule but __main__, which runs the CLI when imported
SUBMODULES = [importlib.import_module(f"milac.{info.name}")
              for info in pkgutil.iter_modules(milac.__path__) if info.name != "__main__"]

ERRORS = {
    "MilacError": Exception,
    "DimensionError": ValueError,
    "RankDeficientError": ValueError,
    "NotRealizableError": ValueError,
    "InconsistentSolutionError": ValueError,
    "NumericalError": ArithmeticError,
}


def test_all_is_explicit_and_resolves():
    assert isinstance(milac.__all__, list)
    assert len(set(milac.__all__)) == len(milac.__all__)
    for name in milac.__all__:
        obj = getattr(milac, name)
        assert not isinstance(obj, types.ModuleType), name
    assert len(milac.__all__) == 42
    # names that repeated another public path, wrapped a constant, or read
    # and wrote text files no caller used, are gone
    for name in ("effective_beamformer", "sinr", "power_step", "AdmittanceMatrix",
                 "ReferenceImpedance", "SweepResult", "load_channel", "save_channel",
                 "load_solution", "save_solution", "load_matrix", "save_matrix",
                 "verify_phi_feasibility", "PhiFeasibilityReport"):
        for module in (milac, *SUBMODULES):
            assert not hasattr(module, name), (module.__name__, name)
    assert importlib.util.find_spec("milac.matio") is None


def test_constant_settings_have_no_parameter():
    # settings no caller changes are module constants, not parameters
    removed = {
        milac.scattering_from_susceptance: "zref",
        milac.susceptance_from_scattering: "zref",
        milac.map_digital_to_milac: "amp_budget",
        milac.snr_to_power: "sigma",
    }
    for fn, name in removed.items():
        assert name not in inspect.signature(fn).parameters, fn.__name__
    assert [f.name for f in dataclasses.fields(milac.OracleConfig)] == ["samples", "seed"]


def test_error_classes():
    defined = {name: obj for name, obj in vars(milac.errors).items()
               if inspect.isclass(obj) and obj.__module__ == "milac.errors"}
    assert set(defined) == set(ERRORS)
    for name, base in ERRORS.items():
        cls = defined[name]
        assert getattr(milac, name) is cls and name in milac.__all__
        assert issubclass(cls, milac.MilacError) and issubclass(cls, base)
        if name != "MilacError":
            # exactly one of the two families callers catch
            assert issubclass(cls, ValueError) != issubclass(cls, ArithmeticError)


def test_check_positive():
    assert check_positive("x", 2) == 2.0 and type(check_positive("x", 2)) is float
    assert check_positive("x", np.float32(0.5)) == 0.5
    assert check_positive("x", 1e-300) == 1e-300
    for bad in (0, 0.0, -1.0, np.nan, np.inf, -np.inf, "1", b"1", None, 1j, [1.0], 10**400,
                True, np.True_):
        with pytest.raises(DimensionError, match="^x must be finite and positive, got "):
            check_positive("x", bad)


def test_check_count():
    assert check_count("n", 3, 1) == 3
    assert check_count("n", np.int64(0), 0) == 0 and type(check_count("n", np.int64(0), 0)) is int
    with pytest.raises(DimensionError, match="^n must be >= 1, got 0$"):
        check_count("n", 0, 1)
    for bad in (2.5, 2.0, np.nan, np.inf, "3", None, np.array([1, 2]), True, False, np.True_):
        with pytest.raises(DimensionError, match="^n must be an integer, got "):
            check_count("n", bad, 0)
