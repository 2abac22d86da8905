"""The package's public surface: its exports, its error classes and the
shared argument checks."""

import dataclasses
import importlib.util
import inspect
import pkgutil
import re
import types

import numpy as np
import pytest

import milac
import milac.errors
from milac.baselines import solve_full_dim, zero_forcing
from milac.errors import DimensionError, check_array, check_count, check_positive

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


def test_check_array():
    z = np.ones((2, 3), dtype=complex)
    assert check_array("x", z) is z  # no copy of a complex128 array
    r = np.ones(3)
    assert check_array("x", r, real=True) is r
    assert check_array("x", [1, 2], 1).dtype == np.complex128
    assert check_array("x", np.float32(2.0), real=True).dtype == np.float64
    assert np.array_equal(check_array("x", [[1, 2]], 2), [[1 + 0j, 2 + 0j]])
    nan = np.array([1.0, np.nan])
    assert np.isnan(check_array("x", nan, finite=False)[1])
    for bad, ndim, match in (
            (nan, None, "^x has non-finite entries$"),
            ([1.0, np.inf], None, "^x has non-finite entries$"),
            ([[1, 2], [3]], None, "^x must be a rectangular array, got a ragged nesting$"),
            ("ab", None, "^x must hold numbers, got dtype <U2$"),
            ([True], None, "^x must hold numbers, got dtype bool$"),
            (np.array([1], dtype=object), None, "^x must hold numbers, got dtype object$"),
            (np.zeros(3), 2, r"^x must be 2-D, got shape \(3,\)$")):
        with pytest.raises(DimensionError, match=match):
            check_array("x", bad, ndim)
    with pytest.raises(DimensionError, match="^x must hold real numbers, got dtype complex128$"):
        check_array("x", np.ones(2, dtype=complex), real=True)


def _array_arguments():
    """(call, argument, good value, finite checked, real only, f) for every
    public entry point that takes an array; f(x) calls it with x in place
    of the argument's good value."""
    ch = milac.generate_rayleigh(4, 2, seed=3)
    red = milac.reduce_channel(ch)
    H, sigma, Q, Hbar = ch.H, ch.sigma, red.Q, red.Hbar
    P = zero_forcing(ch, 1.0)
    T = red.Q.conj().T @ P
    alpha, beta = milac.update_alpha_beta(Hbar, T, sigma)
    sol = milac.map_digital_to_milac(milac.DigitalBeamformer(Pd=P, Pt=1.0))
    Theta, Phi, Psqrt = sol.Theta.S, sol.Phi.S, sol.Psqrt
    factors = dict(V=sol.Phi.V, T=sol.Phi.T, Ur=sol.Phi.Ur)
    B = np.array([[0.01, 0.02], [0.02, -0.01]])
    S = milac.scattering_from_susceptance(B).S
    cfg = milac.SolverConfig()
    table = [
        ("ChannelSet", "H", H, True, False, lambda x: milac.ChannelSet(H=x, sigma=sigma)),
        ("ChannelSet", "sigma", sigma, True, True, lambda x: milac.ChannelSet(H=H, sigma=x)),
        ("ReducedChannel", "Q", Q, True, False,
         lambda x: milac.ReducedChannel(Q=x, Hbar=Hbar, sigma=sigma)),
        ("ReducedChannel", "Hbar", Hbar, True, False,
         lambda x: milac.ReducedChannel(Q=Q, Hbar=x, sigma=sigma)),
        ("ReducedChannel", "sigma", sigma, True, True,
         lambda x: milac.ReducedChannel(Q=Q, Hbar=Hbar, sigma=x)),
        ("DigitalBeamformer", "Pd", P, True, False,
         lambda x: milac.DigitalBeamformer(Pd=x, Pt=1.0)),
        ("TwoLayerSolution", "Theta", Theta, True, False,
         lambda x: milac.TwoLayerSolution(Theta=x, Phi=sol.Phi, Psqrt=Psqrt)),
        ("TwoLayerSolution", "Phi", Phi, True, False,
         lambda x: milac.TwoLayerSolution(Theta=Theta, Phi=x, Psqrt=Psqrt)),
        ("TwoLayerSolution", "Psqrt", Psqrt, True, False,
         lambda x: milac.TwoLayerSolution(Theta=Theta, Phi=sol.Phi, Psqrt=x)),
        ("ScatteringMatrix", "S", S, True, False, lambda x: milac.ScatteringMatrix(S=x)),
        ("SusceptanceMatrix", "B", B, True, False, lambda x: milac.SusceptanceMatrix(B=x)),
        ("check_lossless_reciprocal", "S", S, True, False, milac.check_lossless_reciprocal),
        ("beamformer_from_scattering", "S", S, True, False,
         lambda x: milac.beamformer_from_scattering(x, 1, 1)),
        ("scattering_from_susceptance", "B", B, True, False, milac.scattering_from_susceptance),
        ("susceptance_from_scattering", "S", S, True, False, milac.susceptance_from_scattering),
        ("sum_rate", "H", H, False, False, lambda x: milac.sum_rate(x, P, sigma)),
        ("sum_rate", "Pmat", P, False, False, lambda x: milac.sum_rate(H, x, sigma)),
        ("sum_rate", "sigma", sigma, True, True, lambda x: milac.sum_rate(H, P, x)),
        ("user_rates", "H", H, False, False, lambda x: milac.user_rates(x, P, sigma)),
        ("user_rates", "Pmat", P, False, False, lambda x: milac.user_rates(H, x, sigma)),
        ("user_rates", "sigma", sigma, True, True, lambda x: milac.user_rates(H, P, x)),
        ("update_alpha_beta", "Hbar", Hbar, False, False,
         lambda x: milac.update_alpha_beta(x, T, sigma)),
        ("update_alpha_beta", "T", T, False, False,
         lambda x: milac.update_alpha_beta(Hbar, x, sigma)),
        ("update_alpha_beta", "sigma", sigma, True, True,
         lambda x: milac.update_alpha_beta(Hbar, T, x)),
        ("surrogate_value", "Hbar", Hbar, False, False,
         lambda x: milac.surrogate_value(x, T, sigma, alpha, beta)),
        ("surrogate_value", "T", T, False, False,
         lambda x: milac.surrogate_value(Hbar, x, sigma, alpha, beta)),
        ("surrogate_value", "sigma", sigma, True, True,
         lambda x: milac.surrogate_value(Hbar, T, x, alpha, beta)),
        ("surrogate_value", "alpha", alpha, False, True,
         lambda x: milac.surrogate_value(Hbar, T, sigma, x, beta)),
        ("surrogate_value", "beta", beta, False, False,
         lambda x: milac.surrogate_value(Hbar, T, sigma, alpha, x)),
        ("update_T", "Hbar", Hbar, False, False, lambda x: milac.update_T(x, T, alpha, beta, 1.0)),
        ("update_T", "T", T, False, False, lambda x: milac.update_T(Hbar, x, alpha, beta, 1.0)),
        ("update_T", "alpha", alpha, False, True,
         lambda x: milac.update_T(Hbar, T, x, beta, 1.0)),
        ("update_T", "beta", beta, False, False, lambda x: milac.update_T(Hbar, T, alpha, x, 1.0)),
        ("matched_filter_init", "Heff", H, False, False,
         lambda x: milac.matched_filter_init(x, 1.0)),
        ("solve_psla", "init", T, True, False, lambda x: milac.solve_psla(red, cfg, init=x)),
        ("solve_full_dim", "init", P, True, False, lambda x: solve_full_dim(ch, cfg, init=x)),
    ]
    table += [("FactoredScattering", name, value, True, False,
               lambda x, name=name: milac.FactoredScattering(**{**factors, name: x}))
              for name, value in factors.items()]
    return table


ARRAY_ARGUMENTS = _array_arguments()


def _bad_values(good, finite, real):
    """The inputs every array argument must refuse, by name."""
    good = np.asarray(good)
    bad = {"ragged": [[1, 2], [3]], "string": "ab", "bool": np.ones(good.shape, dtype=bool),
           "object": good.astype(object), "ndim": good[None]}
    if real:
        bad["complex"] = good + 0j
    if finite:
        for name, value in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
            x = good.copy()
            x.flat[-1] = value
            bad[name] = x
    return bad


@pytest.mark.parametrize("call, arg, good, finite, real, f", ARRAY_ARGUMENTS,
                         ids=[f"{row[0]}-{row[1]}" for row in ARRAY_ARGUMENTS])
def test_every_array_argument_refuses_bad_input(call, arg, good, finite, real, f):
    f(good)  # the table's good values are accepted
    for kind, bad in _bad_values(good, finite, real).items():
        with pytest.raises(DimensionError, match=rf"\b{re.escape(arg)}\b") as err:
            f(bad)
        assert type(err.value) is DimensionError, (kind, err.value)


def test_known_bad_inputs_are_refused():
    # inputs that were accepted, or failed with numpy's own error, before
    # every array argument went through check_array
    H = np.eye(2)
    swap = np.array([[0, 1], [1, 0]], dtype=bool)
    theta = milac.map_digital_to_milac(milac.DigitalBeamformer(Pd=np.eye(2), Pt=2.0)).Theta
    cases = [
        (lambda: milac.ChannelSet(H=[[1, 2], [3]]), "^H must be a rectangular array"),
        (lambda: milac.DigitalBeamformer(Pd="ab", Pt=1.0), "^Pd must hold numbers"),
        (lambda: milac.DigitalBeamformer(Pd=np.eye(2, dtype=bool), Pt=2.0),
         "^Pd must hold numbers, got dtype bool$"),
        (lambda: milac.sum_rate(H, H, np.array([True, True])),
         "^sigma must hold real numbers, got dtype bool$"),
        (lambda: milac.sum_rate(H, H, np.array([1.0 + 0j, 1.0])),
         "^sigma must hold real numbers, got dtype complex128$"),
        (lambda: milac.ScatteringMatrix(S=swap), "^S must hold numbers, got dtype bool$"),
        (lambda: milac.check_lossless_reciprocal(swap), "^S must hold numbers"),
        (lambda: milac.TwoLayerSolution(Theta=theta, Phi=np.eye(4, dtype=bool),
                                        Psqrt=np.eye(2)), "^Phi must hold numbers"),
    ]
    for call, match in cases:
        with pytest.raises(DimensionError, match=match):
            call()
