"""Sum-rate maximization by fractional programming.

The ratio objective is decoupled with per-user auxiliaries alpha (SINR
surrogate) and beta (quadratic transform), both with closed-form optima.
The remaining concave quadratic in the precoder is maximized exactly over
the transmit power ball (Shen & Yu, IEEE TSP 2018, the fixed point of
WMMSE) and scaled onto the power sphere, so every outer iteration is
closed-form and the objective never decreases.

All rates are in bits (log base 2). The machinery is shape-generic: the
effective channel may be the reduced K x K matrix or the full L x K one,
and the precoder variable matches its shape.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .channel import ChannelSet, ReducedChannel, reduce_channel
from .errors import (
    DimensionError,
    InconsistentSolutionError,
    NumericalError,
    check_array,
    check_count,
    check_noise,
    check_positive,
    check_type,
)
from .mapping import DigitalBeamformer, TwoLayerSolution, map_digital_to_milac

LN2 = float(np.log(2.0))
# Newton steps of the power-multiplier root-find; it converges quadratically
# from below, so the cap only guards against rounding stalls
MAX_NEWTON = 60
EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SolverConfig:
    """Knobs of the fractional-programming solver.

    Pt is the transmit power (the harness derives it from SNR per sweep
    point). eps is the relative sum-rate change that stops the outer loop
    and max_outer caps it. Each outer round solves its precoder
    subproblem exactly, so there is no inner loop to tune.
    """

    Pt: float = 1.0
    eps: float = 1e-4
    max_outer: int = 500

    def __post_init__(self):
        object.__setattr__(self, "Pt", check_positive("Pt", self.Pt))
        object.__setattr__(self, "eps", check_positive("eps", self.eps))
        object.__setattr__(self, "max_outer", check_count("max_outer", self.max_outer, 1))


@dataclass(frozen=True, eq=False)
class SolveReport:
    """Outcome of one solve: final iterates, rates, and the objective path.

    T_final is the reduced K x K precoder (None for the full-dimension
    solver, whose iterate is the L x K matrix reported in Pd). The
    objective history includes the initial point and is non-decreasing up
    to rounding. stop_reason is "tol" when the relative sum-rate change
    fell below eps and "cap" when max_outer rounds ran out first.
    """

    T_final: np.ndarray
    Pd: np.ndarray
    rates: np.ndarray
    sum_rate: float
    iterations: int
    objective_history: np.ndarray
    wall_time: float
    stop_reason: str

    def __post_init__(self):
        hist = np.asarray(self.objective_history, dtype=float)
        if hist.size and np.any(np.diff(hist) < -1e-8):
            raise InconsistentSolutionError("objective history is not non-decreasing")
        object.__setattr__(self, "objective_history", hist)
        object.__setattr__(self, "rates", np.asarray(self.rates, dtype=float))


def _validate_link(H, Pmat, sigma, names=("H", "Pmat")):
    """H and Pmat as complex arrays of one 2-D shape and sigma as H's K
    noise levels. H and Pmat may hold NaN, which the rate then carries: an
    isfinite pass would cost more than a small rate evaluation."""
    H = check_array(names[0], H, 2, finite=False)
    sigma = check_noise(sigma, H.shape[1])
    return H, _same_shape(names[1], Pmat, H, names[0]), sigma


def _same_shape(name, value, H, hname, finite=False):
    """value as a complex array of H's shape."""
    value = check_array(name, value, finite=finite)
    if value.shape != H.shape:
        raise DimensionError(
            f"{name} shape {value.shape} does not match {hname} shape {H.shape}"
        )
    return value


def _user_vectors(alpha, beta, K):
    """alpha as K real and beta as K complex auxiliaries."""
    alpha = check_array("alpha", alpha, real=True, finite=False)
    beta = check_array("beta", beta, finite=False)
    for name, v in (("alpha", alpha), ("beta", beta)):
        if v.shape != (K,):
            raise DimensionError(f"{name} must have shape ({K},), got {v.shape}")
    return alpha, beta


def _sinr(C, noise):
    """SINR of each user and its total received signal power, read off
    C[k, i] = h_k^H p_i with per-user noise powers."""
    p = np.abs(C) ** 2
    desired = p.diagonal()
    total = p.sum(axis=1)
    return desired / (total - desired + noise), total


def _auxiliaries(C, noise):
    """SINRs alpha, sqrt(1 + alpha) and the optimal beta read off C."""
    alpha, total = _sinr(C, noise)
    root = np.sqrt(1.0 + alpha)
    return alpha, root, root * C.diagonal() / (total + noise)


def _rate(alpha) -> float:
    return float((np.log1p(alpha) / LN2).sum())


def user_rates(H, Pmat, sigma) -> np.ndarray:
    """Per-user rates log2(1 + SINR_k) in bits, SINR_k being
    |h_k^H p_k|^2 over the interference plus sigma_k^2."""
    H, Pmat, sigma = _validate_link(H, Pmat, sigma)
    return np.log1p(_sinr(H.conj().T @ Pmat, sigma**2)[0]) / LN2


def sum_rate(H, Pmat, sigma) -> float:
    """Sum of the per-user rates, in bits."""
    return float(user_rates(H, Pmat, sigma).sum())


def update_alpha_beta(Hbar, T, sigma):
    """Closed-form optimal auxiliaries (alpha, beta) at the precoder T.

    alpha_k is the SINR of user k; beta_k = sqrt(1+alpha_k) h_k^H t_k over
    the total received power plus noise.
    """
    Hbar, T, sigma = _validate_link(Hbar, T, sigma, ("Hbar", "T"))
    alpha, _, beta = _auxiliaries(Hbar.conj().T @ T, sigma**2)
    return alpha, beta


def surrogate_value(Hbar, T, sigma, alpha, beta) -> float:
    """Value of the decoupled objective at (alpha, beta, T), in bits.

    Evaluated two ways, as the per-user sum and as the compact quadratic
    form plus the T-independent terms; the two must agree, which pins down
    the conjugation convention of the linear term.
    """
    Hbar, T, sigma = _validate_link(Hbar, T, sigma, ("Hbar", "T"))
    alpha, beta = _user_vectors(alpha, beta, Hbar.shape[1])
    C = Hbar.conj().T @ T
    total = (np.abs(C) ** 2).sum(axis=1)
    noise = sigma**2
    dk = np.diagonal(C)
    root = np.sqrt(1.0 + alpha)
    lin = 2.0 * root * np.real(np.conj(beta) * dk)
    b2 = np.abs(beta) ** 2
    per_user = lin + np.log1p(alpha) - b2 * (total + noise) - alpha
    value = float(np.sum(per_user))
    # same quantity via the compact quadratic form
    quad = float(np.sum(lin) - np.sum(b2 * total))
    compact = quad + float(np.sum(np.log1p(alpha) - alpha - b2 * noise))
    if abs(value - compact) > 1e-9 * max(1.0, abs(value)):
        raise InconsistentSolutionError(
            f"surrogate forms disagree: {value!r} vs {compact!r}"
        )
    return value / LN2


def project_power(X, Pt: float) -> np.ndarray:
    """Scale X onto the sphere trace(X X^H) = Pt."""
    X = check_array("X", X, finite=False)
    nrm2 = float((np.abs(X) ** 2).sum())
    if nrm2 == 0.0:
        raise NumericalError("cannot project the zero matrix onto the power sphere")
    return X * math.sqrt(Pt / nrm2)


def _power_multiplier(e, w, Pt: float) -> float:
    """Smallest lam >= 0 with sum_i w_i / (e_i + lam)^2 <= Pt.

    The sum is the squared norm of T(lam). Newton runs on
    phi(lam) = 1/sqrt(sum) - 1/sqrt(Pt), which is concave and increasing
    (More & Sorensen, SIAM J. Sci. Stat. Comput. 1983), so its iterates
    rise monotonically from lam = 0 to the root, and a first step below 0
    means T(0) already fits. sqrt(sum(w) / Pt), where the sum is at most
    Pt, caps the iterates against rounding. The K terms are summed on
    Python floats: at the sizes the solver sees, numpy's per-call cost
    would dominate the arithmetic.
    """
    e, w = e.tolist(), w.tolist()
    hi = math.sqrt(sum(w) / Pt)
    lam = 0.0
    for _ in range(MAX_NEWTON):
        f = g = 0.0
        for ei, wi in zip(e, w):
            r = 1.0 / (ei + lam)
            wr2 = wi * r * r
            f += wr2
            g += wr2 * r
        new = min(lam + f * (math.sqrt(f / Pt) - 1.0) / g, hi)
        if new - lam <= 1e-13 * new:
            return max(new, lam)
        lam = new
    return lam


def _exact_step(H, T, root, beta, Pt: float) -> np.ndarray:
    # update_T on validated complex arrays, root = sqrt(1 + alpha). A zero
    # channel column has a zero beta_k, so M = 0, and with it e[-1] = 0,
    # exactly when every beta_k is zero
    M = H * beta
    e, V = np.linalg.eigh(M.conj().T @ M)
    if e[-1] == 0.0:
        return T
    tol = len(e) * EPS * e[-1]
    if e[0] <= tol:
        # eigh sorts e ascending, so the null directions lead
        n = int(np.count_nonzero(e <= tol))
        e, V = e[n:], V[:, n:]
    Z = V.conj().T * root
    lam = _power_multiplier(e, e * (np.abs(Z) ** 2).sum(axis=1), Pt)
    X = M @ (V @ (Z / (e + lam)[:, None]))
    # project_power without its conversion
    nrm2 = float((np.abs(X) ** 2).sum())
    if nrm2 == 0.0:
        raise NumericalError("cannot project the zero matrix onto the power sphere")
    return X * math.sqrt(Pt / nrm2)


def update_T(Hbar, T, alpha, beta, Pt: float) -> np.ndarray:
    """Exact maximizer of the round's surrogate, scaled onto the power sphere.

    With alpha and beta fixed the surrogate is the concave quadratic
    2 Re tr((Hbar Sigma1)^H T) - tr(T^H Hbar Sigma2 Hbar^H T) with
    Sigma1 = diag(sqrt(1+alpha) beta) and Sigma2 = diag(|beta|^2). Over the
    ball trace(T T^H) <= Pt it peaks at
    T(lam) = (Hbar Sigma2 Hbar^H + lam I)^(-1) Hbar Sigma1, with lam = 0 if
    T(0) fits in the ball and the root of ||T(lam)||^2 = Pt otherwise.
    With M = Hbar diag(beta), Hbar Sigma2 Hbar^H = M M^H and
    Hbar Sigma1 = M diag(sqrt(1+alpha)), so
    T(lam) = M (M^H M + lam I)^(-1) diag(sqrt(1+alpha)) and one K x K
    eigendecomposition serves every lam whatever the row count of Hbar;
    null directions of M^H M take the minimum-norm solution. Scaling the
    maximizer onto the sphere never lowers a user's SINR. If every beta_k
    is zero the surrogate has no linear term and T is returned unchanged.
    """
    Pt = check_positive("Pt", Pt)
    Hbar = check_array("Hbar", Hbar, 2, finite=False)
    T = _same_shape("T", T, Hbar, "Hbar")
    alpha, beta = _user_vectors(alpha, beta, Hbar.shape[1])
    return _exact_step(Hbar, T, np.sqrt(1.0 + alpha), beta, Pt)


def matched_filter_init(Heff, Pt: float) -> np.ndarray:
    """Columns proportional to the per-user channels, equal power split."""
    Pt = check_positive("Pt", Pt)
    return _matched_filter(check_array("Heff", Heff, 2, finite=False), Pt)


def _matched_filter(Heff, Pt: float) -> np.ndarray:
    # matched_filter_init on a validated 2-D complex Heff and power
    norms = np.linalg.norm(Heff, axis=0)
    if np.any(norms == 0):
        raise NumericalError("matched-filter init undefined for a zero channel column")
    K = Heff.shape[1]
    return np.sqrt(Pt / K) * (Heff / norms[None, :])


def random_init(shape, Pt: float, seed) -> np.ndarray:
    """Seeded complex Gaussian point on the power sphere (for multi-start);
    shape is a count or a tuple or list of counts >= 1, seed any numpy seed."""
    Pt = check_positive("Pt", Pt)
    dims = shape if isinstance(shape, (tuple, list)) else (shape,)
    shape = tuple(check_count("random_init dimension", n, 1) for n in dims)
    rng = np.random.default_rng(seed)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return project_power(X, Pt)


def run_fp(Heff, sigma, cfg: SolverConfig, init=None):
    """Run the alternating updates on an arbitrary effective channel.

    Returns (T, history, iterations, wall_time, stop_reason, rates), T
    being the final precoder, stop_reason "tol" or "cap" (see SolveReport)
    and rates the per-user rates of T in bits, equal to
    user_rates(Heff, T, sigma). T's shape matches Heff; init is projected
    onto the power sphere if given, else the start is the matched filter.
    Inputs are validated once on entry; a start with a NaN or infinite
    entry raises DimensionError before any round. Each round then forms
    one product C = Heff^H T and reads off it the rate of T and the
    auxiliaries of the next exact step, so it matches update_alpha_beta,
    update_T and sum_rate called in turn. cfg must be a SolverConfig.
    """
    t0 = time.perf_counter()
    check_type("cfg", cfg, SolverConfig)
    Heff = check_array("Heff", Heff, 2, finite=False)
    sigma = check_noise(sigma, Heff.shape[1])
    Hh, noise, Pt, eps = Heff.conj().T, sigma**2, cfg.Pt, cfg.eps
    if init is None:
        T = _matched_filter(Heff, Pt)
    else:
        T = project_power(_same_shape("init", init, Heff, "precoder", finite=True), Pt)
    alpha, root, beta = _auxiliaries(Hh @ T, noise)
    history = [_rate(alpha)]
    iterations = 0
    stop_reason = "cap"
    for it in range(1, cfg.max_outer + 1):
        T = _exact_step(Heff, T, root, beta, Pt)
        alpha, root, beta = _auxiliaries(Hh @ T, noise)
        rate = _rate(alpha)
        if not math.isfinite(rate):
            raise NumericalError(f"objective became {rate} at iteration {it}")
        prev = history[-1]
        history.append(rate)
        iterations = it
        if abs(rate - prev) / max(1.0, prev) < eps:
            stop_reason = "tol"
            break
    # alpha is T's: the rates user_rates would compute from the same C
    rates = np.log1p(alpha) / LN2
    return T, np.asarray(history), iterations, time.perf_counter() - t0, stop_reason, rates


def solve_psla(red: ReducedChannel, cfg: SolverConfig, init=None) -> SolveReport:
    """Maximize the sum-rate over the reduced K x K precoder.

    Alternates the closed-form auxiliary updates with the exact precoder
    step until the relative sum-rate change drops below cfg.eps or
    cfg.max_outer rounds elapse. The returned Pd = Q T lifts the solution
    back to the antenna domain.
    """
    check_type("reduced channel", red, ReducedChannel)
    T, history, iterations, wall, stop_reason, rates = run_fp(red.Hbar, red.sigma, cfg,
                                                              init=init)
    return SolveReport(
        T_final=T,
        Pd=red.Q @ T,
        rates=rates,
        sum_rate=float(history[-1]),
        iterations=iterations,
        objective_history=history,
        wall_time=wall,
        stop_reason=stop_reason,
    )


def solve_two_layer(ch: ChannelSet, cfg: SolverConfig):
    """Reduce, solve, and map onto the two-layer analog architecture.

    Returns (SolveReport, TwoLayerSolution). The effective analog
    beamformer reproduces the digital solution, so its sum-rate on H must
    match report.sum_rate, the lifted Pd's rate up to rounding; a mismatch
    beyond 1e-9 raises InconsistentSolutionError.
    """
    red = reduce_channel(ch)
    report = solve_psla(red, cfg)
    sol = map_digital_to_milac(DigitalBeamformer(Pd=report.Pd, Pt=cfg.Pt))
    analog = sum_rate(ch.H, sol.G, ch.sigma)
    if abs(analog - report.sum_rate) > 1e-9:
        raise InconsistentSolutionError(
            f"two-layer sum-rate {analog!r} deviates from digital {report.sum_rate!r}"
        )
    return report, sol


def report_record(report: SolveReport, cfg: SolverConfig, seed=None, label=None) -> dict:
    """JSON-ready record of one solve: config echo, outcome, and timings."""
    rec = {
        "label": label,
        "seed": seed,
        "config": {
            "Pt": cfg.Pt,
            "eps": cfg.eps,
            "max_outer": cfg.max_outer,
        },
        "iterations": report.iterations,
        "stop_reason": report.stop_reason,
        "sum_rate": report.sum_rate,
        "rates": report.rates.tolist(),
        "objective_history": report.objective_history.tolist(),
        "wall_time": report.wall_time,
    }
    return rec
