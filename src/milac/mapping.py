"""Closed-form realization of an arbitrary digital beamformer on two
cascaded lossless reciprocal multiports with per-stream amplifiers.

One Householder QR factors Pd = Q [R; 0], with Q kept in compact-WY
form (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 1989), and the
K x K SVD R = Ur S V^H completes the thin SVD Pd = U1 S V^H with
U1 = Q [Ur; 0]. The construction places V^H blocks in the first network,
U1 blocks in the second, and 4S in the amplifier gains; the two half
factors of the matched-port transfer blocks cancel the 4, so the
effective beamformer reproduces Pd exactly. The second network's
lower-right block is -U2 U2^T for the orthonormal complement U2 = Q[:, K:]
of U1, taken from the same reflectors. The second network is kept as
those reflectors and Ur (a FactoredScattering) and certified lossless
reciprocal from them with one real QR of an (L-K) x 2K matrix, so the
mapping and its checks cost O(L K^2) and allocate no (L+K) x (L+K)
array; U1 and the dense matrix are formed only when they are read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, InconsistentSolutionError, check_array, check_positive
from .network import FactoredScattering, ScatteringMatrix, _square, check_lossless_reciprocal

SCATTER_TOL = 1e-10
_ZERO = np.zeros(1, dtype=np.complex128)


@lru_cache(maxsize=16)
def _strictly_lower(K: int) -> np.ndarray:
    """Read-only K x K mask of the entries below the diagonal, the mask
    np.triu builds on every call; kept for the few stream counts in use."""
    mask = np.tri(K, K, -1, dtype=bool)
    mask.setflags(write=False)
    return mask


@dataclass(frozen=True, eq=False)
class DigitalBeamformer:
    """Fully digital precoding matrix Pd (L x K) with its power budget."""

    Pd: np.ndarray
    Pt: float

    def __post_init__(self):
        Pd = check_array("Pd", self.Pd, 2)
        L, K = Pd.shape
        if not (L >= K >= 1):
            raise DimensionError(f"need L >= K >= 1, got L={L}, K={K}")
        object.__setattr__(self, "Pt", check_positive("Pt", self.Pt))
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


@dataclass(frozen=True, eq=False)
class TwoLayerSolution:
    """Scattering matrices, amplifier gains, and the beamformers they induce.

    Theta is the 2K-port first layer, Phi the (L+K)-port second layer,
    Psqrt the K x K diagonal amplifier amplitude gains. Theta is a
    ScatteringMatrix (a raw array is wrapped). Phi is either dense, as a
    ScatteringMatrix or a raw array, or a FactoredScattering, as
    map_digital_to_milac builds it: then Phi.S forms the dense matrix on
    first read. Construction checks that Theta and Phi are lossless
    reciprocal (Phi from its factors when it has them) and Psqrt diagonal,
    finite and nonnegative; a factored Phi built for another stream count
    than Theta's raises DimensionError. F and W, the half-scaled transfer blocks, and the
    effective beamformer G = W Psqrt F are derived from them on access; W
    reads Phi.U1 / 2 off a factored Phi without forming the dense matrix.
    """

    Theta: ScatteringMatrix
    Phi: ScatteringMatrix | FactoredScattering
    Psqrt: np.ndarray

    def __post_init__(self):
        theta, phi = self.Theta, self.Phi
        if not isinstance(theta, ScatteringMatrix):
            theta = ScatteringMatrix(S=_square(theta, "Theta"))
        if not isinstance(phi, (ScatteringMatrix, FactoredScattering)):
            phi = ScatteringMatrix(S=_square(phi, "Phi"))
        if theta.n % 2 != 0:
            raise DimensionError(f"Theta must be 2K x 2K, got n={theta.n}")
        K = theta.n // 2
        L = phi.n - K
        if L < K:
            raise DimensionError(f"Phi is {phi.n}-port, too small for K={K}")
        if isinstance(phi, FactoredScattering) and phi.K != K:
            raise DimensionError(f"Phi is factored for {phi.K} streams, Theta has K={K}")
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
        return self.Theta.S[self.K:, :self.K] * 0.5

    @property
    def W(self) -> np.ndarray:
        """Output-layer transfer block Phi21 / 2 (L x K)."""
        if isinstance(self.Phi, FactoredScattering):
            return self.Phi.U1 * 0.5
        return self.Phi.S[self.K:, :self.K] * 0.5

    @property
    def G(self) -> np.ndarray:
        """Effective beamformer W Psqrt F (L x K)."""
        return self.W @ (self.Psqrt @ self.F)


def _check_diag_nonneg(S, K: int) -> np.ndarray:
    S = check_array("Psqrt", S, 2)
    if S.shape != (K, K):
        raise DimensionError(f"Psqrt must be {K} x {K}, got shape {S.shape}")
    if np.max(np.abs(S.imag)) > 1e-12:
        raise DimensionError("Psqrt must be real")
    S = S.real
    d = S.diagonal()
    if np.count_nonzero(S) != np.count_nonzero(d):
        raise DimensionError("Psqrt must be diagonal")
    if (d < 0).any():
        raise DimensionError(f"negative amplifier gain: min {d.min():.6g}")
    return np.diag(d)


def _amplitudes(s: np.ndarray, Pt: float) -> np.ndarray:
    """Amplifier amplitudes 4s for the singular values s of a beamformer
    with power budget Pt.

    Their power sum(16 s^2) is 16 trace(Pd Pd^H), which DigitalBeamformer
    lets exceed 16 Pt by a relative 1e-9 of rounding; the diagonal is then
    scaled down by sqrt(16 Pt / sum(16 s^2)), so the amplifiers never draw
    more than 16 Pt.
    """
    budget = 16.0 * Pt
    gain = 4.0 * s
    used = float(np.sum(gain ** 2))
    if used > budget:
        gain = gain * np.sqrt(budget / used)
    return gain


def _second_layer(V: np.ndarray, tau: np.ndarray, Ur: np.ndarray) -> FactoredScattering:
    """(L+K)-port scattering matrix [[0, U1^T], [U1, -U2 U2^T]], factored.

    V (unit lower trapezoidal, L x K) and tau hold the K Householder
    reflectors of np.linalg.qr(Pd, mode="raw") for an L x K Pd. In
    compact-WY form their product is Q = I - V T V^H with T upper
    triangular (Schreiber & Van Loan 1989). Ur is the unitary left factor
    of the K x K triangle R, so U1 = Q [Ur; 0] and U2 = Q[:, K:] is an
    orthonormal complement of U1, even when Pd is rank deficient. The layer
    is returned as V, T and Ur (O(LK) memory); FactoredScattering forms U1,
    the lower-right block and the dense matrix from them only when read.
    T comes from the forward recurrence
    T[:i, i] = -tau_i T[:i, :i] (V^H V)[:i, i], which stays finite when
    LAPACK returns tau_i = 0 for a column that is already a unit vector.
    """
    K = Ur.shape[0]
    VhV = V.conj().T @ V
    T = np.diag(tau)
    for i in range(1, K):
        T[:i, i] = -tau[i] * (T[:i, :i] @ VhV[:i, i])
    return FactoredScattering(V=V, T=T, Ur=Ur)


def map_digital_to_milac(d: DigitalBeamformer) -> TwoLayerSolution:
    """Realize a digital beamformer on the two-layer analog architecture.

    Takes the thin SVD Pd = U1 S V^H, as one Householder QR Pd = Q [R; 0]
    and the K x K SVD R = Ur S V^H with U1 = Q [Ur; 0], and builds the
    first-layer scattering matrix from V, the second-layer one from U1
    with Phi22 = -U2 U2^T completing the lossless reciprocal structure,
    and amplifier gains 4S. The effective beamformer G then equals Pd
    exactly up to rounding. U2 = Q[:, K:] comes from the same reflectors
    (see _second_layer). Any orthonormal complement gives an exact layer;
    this one is orthogonal to U1 whatever the rank of Pd. Phi is returned
    in factored form and certified from its factors, so the construction
    and the lossless-reciprocal checks of the resulting TwoLayerSolution
    cost O(L K^2) with no (L+K) x (L+K) array; sol.Phi.S forms the dense
    matrix on first read. The amplifier power trace(P) is
    16 trace(Pd Pd^H), capped at 16 Pt (see _amplitudes).
    """
    K = d.K
    h, tau = np.linalg.qr(d.Pd, mode="raw")
    # h.T (L x K) holds R on and above the diagonal of its K x K head and
    # the reflectors below it; they become V in place: subtracting R from
    # the head leaves exact zeros above its diagonal
    V = h.T
    R = np.where(_strictly_lower(K), _ZERO, V[:K])  # np.triu(V[:K])
    V[:K] -= R
    np.fill_diagonal(V, 1.0)
    Ur, s, Vh = np.linalg.svd(R)
    Theta = np.zeros((2 * K, 2 * K), dtype=np.complex128)
    Theta[:K, K:] = Vh.T
    Theta[K:, :K] = Vh
    return TwoLayerSolution(Theta=ScatteringMatrix(S=Theta),
                            Phi=_second_layer(V, tau, Ur),
                            Psqrt=np.diag(_amplitudes(s, d.Pt)))
