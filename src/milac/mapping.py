"""Closed-form realization of an arbitrary digital beamformer on two
cascaded lossless reciprocal multiports with per-stream amplifiers.

The construction takes the thin SVD Pd = U1 S V^H and places V^H blocks
in the first network, U1 blocks in the second, and 4S in the amplifier
gains; the two half factors of the matched-port transfer blocks cancel the
4, so the effective beamformer reproduces Pd exactly. The second network's
lower-right block is -U2 U2^T for an orthonormal complement U2 of U1,
taken from the K Householder reflectors of U1 in compact-WY form
(Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 1989). The second
network is kept as those factors (a FactoredScattering) and certified
lossless reciprocal from them, so the mapping and its checks cost
O(L K^2) and allocate no (L+K) x (L+K) array; the dense matrix is formed
only when it is read or saved.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import matio
from .errors import (
    DimensionError,
    InconsistentSolutionError,
    NegativeEntryError,
)
from .network import FactoredScattering, ScatteringMatrix, check_lossless_reciprocal

SCATTER_TOL = 1e-10


@dataclass(frozen=True)
class DigitalBeamformer:
    """Fully digital precoding matrix Pd (L x K) with its power budget."""

    Pd: np.ndarray
    Pt: float

    def __post_init__(self):
        Pd = np.asarray(self.Pd, dtype=np.complex128)
        if Pd.ndim != 2:
            raise DimensionError(f"Pd must be 2-D, got ndim={Pd.ndim}")
        if Pd.shape[0] < Pd.shape[1]:
            raise DimensionError(f"need L >= K, got shape {Pd.shape}")
        if not np.all(np.isfinite(Pd)):
            raise DimensionError("Pd has non-finite entries")
        if not (np.isfinite(self.Pt) and self.Pt > 0):
            raise DimensionError(f"Pt must be positive, got {self.Pt}")
        radiated = float(np.sum(np.abs(Pd) ** 2))
        if radiated > self.Pt * (1 + 1e-9):
            raise DimensionError(
                f"trace(Pd Pd^H) = {radiated:.6g} exceeds Pt = {self.Pt:.6g}"
            )
        Pd = Pd.copy()
        Pd.setflags(write=False)
        object.__setattr__(self, "Pd", Pd)

    @property
    def L(self) -> int:
        return self.Pd.shape[0]

    @property
    def K(self) -> int:
        return self.Pd.shape[1]


@dataclass(frozen=True)
class PhiFeasibilityReport:
    """Residuals of the second-layer feasibility conditions."""

    phi11_residual: float
    orthogonality_residual: float
    completeness_residual: float
    symmetry_residual: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class TwoLayerSolution:
    """Scattering matrices, amplifier gains, and the beamformers they induce.

    Theta is the 2K-port first layer, Phi the (L+K)-port second layer,
    Psqrt the K x K diagonal amplifier amplitude gains. Theta is a
    ScatteringMatrix (a raw array is wrapped). Phi is either dense, as a
    ScatteringMatrix or a raw array, or a FactoredScattering, as
    map_digital_to_milac builds it: then Phi.S forms the dense matrix on
    first read. Construction checks that Theta and Phi are lossless
    reciprocal (Phi from its factors when it has them) and Psqrt diagonal,
    finite and nonnegative, so deserialized solutions are validated. F and
    W, the half-scaled transfer blocks, and the effective beamformer
    G = W Psqrt F are derived from them on access; W reads U1 / 2 off a
    factored Phi without forming it.
    """

    Theta: ScatteringMatrix
    Phi: ScatteringMatrix | FactoredScattering
    Psqrt: np.ndarray

    def __post_init__(self):
        theta = self.Theta if isinstance(self.Theta, ScatteringMatrix) else ScatteringMatrix(S=self.Theta)
        phi = self.Phi if isinstance(self.Phi, (ScatteringMatrix, FactoredScattering)) else ScatteringMatrix(S=self.Phi)
        if theta.n % 2 != 0:
            raise DimensionError(f"Theta must be 2K x 2K, got n={theta.n}")
        K = theta.n // 2
        L = phi.n - K
        if L < K:
            raise DimensionError(f"Phi is {phi.n}-port, too small for K={K}")
        for name, mat in (("Theta", theta), ("Phi", phi)):
            rep = check_lossless_reciprocal(mat, tol=SCATTER_TOL)
            if not rep.passed:
                raise InconsistentSolutionError(
                    f"{name} is not lossless reciprocal: unitarity "
                    f"{rep.unitarity_residual:.3e}, symmetry {rep.symmetry_residual:.3e}"
                )
        Psqrt = _check_diag_nonneg(self.Psqrt, K)
        Psqrt.setflags(write=False)
        object.__setattr__(self, "Psqrt", Psqrt)
        object.__setattr__(self, "Theta", theta)
        object.__setattr__(self, "Phi", phi)

    @property
    def K(self) -> int:
        return self.Theta.n // 2

    @property
    def L(self) -> int:
        return self.Phi.n - self.K

    @property
    def F(self) -> np.ndarray:
        """Input-layer transfer block Theta21 / 2 (K x K)."""
        return self.Theta.S[self.K:, :self.K] / 2.0

    @property
    def W(self) -> np.ndarray:
        """Output-layer transfer block Phi21 / 2 (L x K)."""
        if isinstance(self.Phi, FactoredScattering):
            return self.Phi.U1 / 2.0
        return self.Phi.S[self.K:, :self.K] / 2.0

    @property
    def G(self) -> np.ndarray:
        """Effective beamformer W Psqrt F (L x K)."""
        return self.W @ self.Psqrt @ self.F


def _check_diag_nonneg(S, K: int = None) -> np.ndarray:
    S = np.asarray(S)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionError(f"gain matrix must be square, got shape {S.shape}")
    if K is not None and S.shape[0] != K:
        raise DimensionError(f"gain matrix must be {K} x {K}, got {S.shape}")
    if not np.isfinite(S).all():
        raise DimensionError("gain matrix has non-finite entries")
    if np.iscomplexobj(S):
        if np.max(np.abs(S.imag)) > 1e-12:
            raise NegativeEntryError("gain matrix must be real")
        S = S.real
    d = S.diagonal().astype(float)
    if np.count_nonzero(S) != np.count_nonzero(d):
        raise DimensionError("gain matrix must be diagonal")
    if (d < 0).any():
        raise NegativeEntryError(f"negative amplifier gain: min {d.min():.6g}")
    return np.diag(d)


def power_step(S, p_amp: float) -> np.ndarray:
    """Optimal diagonal amplifier amplitudes for target singular values S.

    Minimizes ||S - P^(1/2)/4||_F^2 over nonnegative diagonal P^(1/2) with
    trace(P) <= p_amp. The unconstrained optimum is 4S; when its power
    trace(16 S^2) exceeds the budget the whole diagonal is scaled down by
    sqrt(p_amp / trace(16 S^2)).
    """
    return np.diag(_amplitudes(np.diag(_check_diag_nonneg(S)), p_amp))


def _amplitudes(s: np.ndarray, p_amp: float) -> np.ndarray:
    # power_step on the diagonal s, already known to be real and nonnegative
    if not (np.isfinite(p_amp) and p_amp > 0):
        raise DimensionError(f"p_amp must be positive, got {p_amp}")
    gain = 4.0 * s
    used = float(np.sum(gain ** 2))
    if used > p_amp:
        gain = gain * np.sqrt(p_amp / used)
    return gain


def _second_layer(U1: np.ndarray) -> FactoredScattering:
    """(L+K)-port scattering matrix [[0, U1^T], [U1, -U2 U2^T]], factored.

    U2 is the orthonormal complement of U1 given by its K Householder
    reflectors: np.linalg.qr(U1, mode="raw") returns them as a unit
    lower-trapezoidal V and scalars tau, and in compact-WY form their
    product is Q = I - Y V^H with Y = V T, T upper triangular
    (Schreiber & Van Loan 1989), and U2 = Q[:, K:]. With
    E = diag(0_K, I_(L-K)), b = E conj(V) and C = V^H E conj(V),
    U2 U2^T = Q E Q^T = E - Y b^T - b Y^T + Y C Y^T,
    so -U2 U2^T = X + X^T - E for X = Y Z, Z = b^T - C Y^T / 2, and the
    layer is returned as its factors U1, Y and Z (O(LK) memory). T comes
    from the forward recurrence T[:i, i] = -tau_i T[:i, :i] (V^H V)[:i, i],
    which stays finite when LAPACK returns tau_i = 0 for a column that is
    already a unit vector.
    """
    L, K = U1.shape
    h, tau = np.linalg.qr(U1, mode="raw")
    V = np.tril(h.T, -1)
    np.fill_diagonal(V, 1.0)
    VhV = V.conj().T @ V
    T = np.diag(tau)
    for i in range(1, K):
        T[:i, i] = -tau[i] * (T[:i, :i] @ VhV[:i, i])
    Y = V @ T
    b = V[K:].conj()  # the nonzero rows of E conj(V)
    Z = (b.T @ b) @ Y.T * -0.5
    Z[:, K:] += b.T
    return FactoredScattering(U1=U1, Y=Y, Z=Z)


def map_digital_to_milac(d: DigitalBeamformer, amp_budget: float = None) -> TwoLayerSolution:
    """Realize a digital beamformer on the two-layer analog architecture.

    Takes the thin SVD Pd = U1 S V^H and builds the first-layer
    scattering matrix from V, the second-layer one from U1 with
    Phi22 = -U2 U2^T completing the lossless reciprocal structure, and
    amplifier gains 4S. The effective beamformer G then equals Pd exactly
    up to rounding. U2 is the orthonormal complement of U1 given by the
    Householder QR factor of U1 (see _second_layer). Any orthonormal
    complement gives an exact layer; this one is built from U1, not Pd, so
    it stays orthogonal to U1 when Pd is rank deficient. Phi is returned
    in factored form and certified from its factors, so the construction
    and the lossless-reciprocal checks of the resulting TwoLayerSolution
    cost O(L K^2) with no (L+K) x (L+K) array; sol.Phi.S forms the dense
    matrix on first read.

    amp_budget bounds trace(P) of the amplifier power; it defaults to
    16 * Pt, the exact power the construction needs, so radiated power
    equals trace(Pd Pd^H). A smaller budget uniformly shrinks G.
    """
    K = d.K
    U1, s, Vh = np.linalg.svd(d.Pd, full_matrices=False)
    Theta = np.zeros((2 * K, 2 * K), dtype=np.complex128)
    Theta[:K, K:] = Vh.T
    Theta[K:, :K] = Vh
    budget = 16.0 * d.Pt if amp_budget is None else amp_budget
    return TwoLayerSolution(Theta=ScatteringMatrix(S=Theta),
                            Phi=_second_layer(U1),
                            Psqrt=np.diag(_amplitudes(s, budget)))


def effective_beamformer(sol: TwoLayerSolution) -> np.ndarray:
    """End-to-end beamformer W Psqrt F of a two-layer solution (sol.G)."""
    return sol.G


def verify_phi_feasibility(Phi: ScatteringMatrix, U1: np.ndarray, tol: float = 1e-10) -> PhiFeasibilityReport:
    """Check the second-layer structural conditions against a given U1.

    Residuals (Frobenius): the upper-left K x K block Phi11, the range
    orthogonality U1^H Phi22, the completeness U1 U1^H + Phi22 Phi22^H - I
    (stated equivalently with conjugations swapped when Phi22 is
    symmetric), and the symmetry Phi22 - Phi22^T.
    """
    S = Phi.S if isinstance(Phi, (ScatteringMatrix, FactoredScattering)) else np.asarray(Phi)
    U1 = np.asarray(U1, dtype=np.complex128)
    L, K = U1.shape
    if S.shape != (L + K, L + K):
        raise DimensionError(
            f"Phi must be {(L + K)} x {(L + K)} for U1 of shape {U1.shape}, got {S.shape}"
        )
    Phi11 = S[:K, :K]
    Phi22 = S[K:, K:]
    r11 = float(np.linalg.norm(Phi11))
    orth = float(np.linalg.norm(U1.conj().T @ Phi22))
    comp = float(np.linalg.norm(U1 @ U1.conj().T + Phi22 @ Phi22.conj().T - np.eye(L)))
    sym = float(np.linalg.norm(Phi22 - Phi22.T))
    return PhiFeasibilityReport(
        phi11_residual=r11, orthogonality_residual=orth,
        completeness_residual=comp, symmetry_residual=sym, tol=tol,
        passed=bool(max(r11, orth, comp, sym) <= tol),
    )


def save_solution(dirpath, sol: TwoLayerSolution) -> None:
    """Write theta.txt, phi.txt, psqrt.txt into a directory."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    matio.save_matrix(d / "theta.txt", sol.Theta.S)
    matio.save_matrix(d / "phi.txt", sol.Phi.S)
    matio.save_matrix(d / "psqrt.txt", sol.Psqrt)


def load_solution(dirpath) -> TwoLayerSolution:
    """Read a solution directory back; construction validates it."""
    d = Path(dirpath)
    return TwoLayerSolution(Theta=ScatteringMatrix(S=matio.load_matrix(d / "theta.txt")),
                            Phi=ScatteringMatrix(S=matio.load_matrix(d / "phi.txt")),
                            Psqrt=matio.load_matrix(d / "psqrt.txt"))
