"""Multiport network models: admittance assembly from components, the
susceptance/scattering bilinear maps, and lossless-reciprocity checks.

All networks here are purely susceptive (Y = jB with B real symmetric), so
their scattering matrices are unitary and symmetric by construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    AsymmetricComponentError,
    DimensionError,
    NotRealizableError,
    ResidueTooLargeError,
    SingularNetworkError,
)

COND_LIMIT = 1e12
RESIDUE_TOL = 1e-8


@dataclass(frozen=True)
class ReferenceImpedance:
    """Port reference impedance in ohms (treated as real and identical at
    every port)."""

    z0: float = 50.0

    def __post_init__(self):
        if not (np.isfinite(self.z0) and self.z0 > 0):
            raise DimensionError(f"z0 must be positive and finite, got {self.z0}")

    @property
    def y0(self) -> float:
        return 1.0 / self.z0


def _square(M, name: str) -> np.ndarray:
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise DimensionError(f"{name} has non-finite entries")
    return M


@dataclass(frozen=True)
class SusceptanceMatrix:
    """Real symmetric susceptance matrix B of a purely susceptive network.

    Construction checks symmetry to RESIDUE_TOL and then stores the exactly
    symmetrized (B + B^T)/2, so the stored matrix always satisfies B = B^T.
    """

    B: np.ndarray

    def __post_init__(self):
        B = _square(self.B, "B")
        if np.iscomplexobj(B):
            if np.max(np.abs(B.imag)) > RESIDUE_TOL * max(1.0, np.max(np.abs(B.real))):
                raise ResidueTooLargeError("susceptance matrix must be real")
            B = B.real
        B = B.astype(float, copy=True)
        scale = max(1.0, np.max(np.abs(B)))
        if np.max(np.abs(B - B.T)) > RESIDUE_TOL * scale:
            raise AsymmetricComponentError("susceptance matrix must be symmetric")
        B = (B + B.T) / 2.0
        B.setflags(write=False)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.B.shape[0]


@dataclass(frozen=True)
class AdmittanceMatrix:
    """Admittance matrix of an N-port network (complex, siemens)."""

    Y: np.ndarray

    def __post_init__(self):
        Y = _square(self.Y, "Y").astype(np.complex128, copy=True)
        Y.setflags(write=False)
        object.__setattr__(self, "Y", Y)

    @property
    def n(self) -> int:
        return self.Y.shape[0]


@dataclass(frozen=True)
class ScatteringMatrix:
    """Scattering matrix of an N-port network at a common reference
    impedance. Not restricted to lossless or reciprocal networks; use
    check_lossless_reciprocal for that predicate."""

    S: np.ndarray

    def __post_init__(self):
        S = _square(self.S, "S").astype(np.complex128, copy=True)
        S.setflags(write=False)
        object.__setattr__(self, "S", S)

    @property
    def n(self) -> int:
        return self.S.shape[0]


@dataclass(frozen=True, eq=False)
class FactoredScattering:
    """(L+K)-port scattering matrix [[0, U1^T], [U1, X + X^T - E]] kept in
    factored form, with X = Y Z for Y (L x K) and Z (K x L) and
    E = diag(0_K, I_(L-K)).

    This is the shape of the second MiLAC layer (see
    milac.mapping._second_layer), whose factors take O(LK) memory against
    the (L+K)^2 of the dense matrix. The represented matrix is symmetric
    by construction; check_lossless_reciprocal certifies its unitarity from
    the factors in O(LK^2). S forms the dense matrix on first read and
    caches it read-only. Instances compare by identity.
    """

    U1: np.ndarray
    Y: np.ndarray
    Z: np.ndarray

    def __post_init__(self):
        for name in ("U1", "Y", "Z"):
            # a read-only view: the caller's array stays writable
            M = np.asarray(getattr(self, name), dtype=np.complex128).view()
            if not np.isfinite(M).all():
                raise DimensionError(f"{name} has non-finite entries")
            M.setflags(write=False)
            object.__setattr__(self, name, M)
        L, K = self.U1.shape if self.U1.ndim == 2 else (0, 0)
        if not 1 <= K <= L or self.Y.shape != (L, K) or self.Z.shape != (K, L):
            raise DimensionError(
                f"factors of shapes {self.U1.shape}, {self.Y.shape}, {self.Z.shape} are "
                "not U1 (L x K, L >= K >= 1), Y (L x K) and Z (K x L)"
            )

    @property
    def n(self) -> int:
        return sum(self.U1.shape)

    @cached_property
    def S(self) -> np.ndarray:
        L, K = self.U1.shape
        X = self.Y @ self.Z
        X.flat[K * (L + 1)::L + 1] -= 0.5  # X - E/2, so the sum below carries -E
        S = np.zeros((L + K, L + K), dtype=np.complex128)
        S[:K, K:] = self.U1.T
        S[K:, :K] = self.U1
        np.add(X, X.T, out=S[K:, K:])
        S.setflags(write=False)
        return S


@dataclass(frozen=True)
class LosslessReciprocalReport:
    unitarity_residual: float
    symmetry_residual: float
    tol: float
    passed: bool


def admittance_from_components(offdiag, ground, n: int) -> AdmittanceMatrix:
    """Assemble an N-port admittance matrix from component admittances.

    offdiag maps port pairs (i, v), 0-based with i != v, to the admittance
    of the component connected between those ports; giving both (i, v) and
    (v, i) is allowed when the values agree. ground maps a port to the
    admittance of its component to ground. Missing entries mean no
    component. The assembled matrix has [Y]_iv = -Y_iv off the diagonal and
    column sums (ground included) on the diagonal.
    """
    if n < 1:
        raise DimensionError(f"need n >= 1, got {n}")
    comp = np.zeros((n, n), dtype=np.complex128)
    filled = np.zeros((n, n), dtype=bool)
    for key, y in offdiag.items():
        i, v = key
        if not (0 <= i < n and 0 <= v < n):
            raise DimensionError(f"port pair {key} out of range for n={n}")
        if i == v:
            raise DimensionError(
                f"offdiag key {key} is diagonal; ground components go in `ground`"
            )
        y = complex(y)
        if filled[i, v] and not np.isclose(comp[i, v], y, rtol=1e-12, atol=0.0):
            raise AsymmetricComponentError(
                f"components ({i},{v}) and ({v},{i}) disagree: {comp[i, v]} vs {y}"
            )
        comp[i, v] = comp[v, i] = y
        filled[i, v] = filled[v, i] = True
    gnd = np.zeros(n, dtype=np.complex128)
    for v, y in ground.items():
        if not (0 <= v < n):
            raise DimensionError(f"ground port {v} out of range for n={n}")
        gnd[v] = complex(y)
    Y = -comp
    # diagonal: total admittance incident on the port, ground included
    Y[np.diag_indices(n)] = comp.sum(axis=0) + gnd
    return AdmittanceMatrix(Y=Y)


def scattering_from_susceptance(B, zref: ReferenceImpedance = ReferenceImpedance()) -> ScatteringMatrix:
    """Scattering matrix of the susceptive network Y = jB.

    Computes S = (I + j z0 B)^(-1) (I - j z0 B). The result is unitary and
    symmetric up to rounding. Raises SingularNetworkError when I + j z0 B is
    ill-conditioned (condition number at or above COND_LIMIT).
    """
    if not isinstance(B, SusceptanceMatrix):
        B = SusceptanceMatrix(B=np.asarray(B))
    M = 1j * zref.z0 * B.B
    A = np.eye(B.n) + M
    if np.linalg.cond(A) >= COND_LIMIT:
        raise SingularNetworkError("I + j z0 B is numerically singular")
    S = np.linalg.solve(A, np.eye(B.n) - M)
    return ScatteringMatrix(S=S)


def susceptance_from_scattering(S: ScatteringMatrix, zref: ReferenceImpedance = ReferenceImpedance()) -> SusceptanceMatrix:
    """Recover the real symmetric B with S = (I + j z0 B)^(-1)(I - j z0 B).

    The input must be lossless and reciprocal to within RESIDUE_TOL; a
    scattering matrix with an eigenvalue at -1 (I + S singular) has no
    susceptance realization and raises NotRealizableError. The computed
    matrix is returned real and exactly symmetric after discarding rounding
    residue, which must stay below RESIDUE_TOL.
    """
    if not isinstance(S, (ScatteringMatrix, FactoredScattering)):
        S = ScatteringMatrix(S=np.asarray(S))
    rep = check_lossless_reciprocal(S, tol=RESIDUE_TOL)
    if not rep.passed:
        raise NotRealizableError(
            "scattering matrix is not lossless reciprocal: "
            f"unitarity residual {rep.unitarity_residual:.3e}, "
            f"symmetry residual {rep.symmetry_residual:.3e}"
        )
    A = np.eye(S.n) + S.S
    if np.linalg.cond(A) >= COND_LIMIT:
        raise NotRealizableError("I + S is numerically singular (eigenvalue at -1)")
    Braw = np.linalg.solve(A, np.eye(S.n) - S.S) / (1j * zref.z0)
    scale = max(1.0, np.max(np.abs(Braw)))
    if np.max(np.abs(Braw.imag)) > RESIDUE_TOL * scale:
        raise ResidueTooLargeError("recovered susceptance has a large imaginary part")
    Breal = Braw.real
    if np.max(np.abs(Breal - Breal.T)) > RESIDUE_TOL * scale:
        raise ResidueTooLargeError("recovered susceptance has a large asymmetric part")
    return SusceptanceMatrix(B=(Breal + Breal.T) / 2.0)


def beamformer_from_scattering(S: ScatteringMatrix | FactoredScattering | np.ndarray, n_in: int, n_out: int) -> np.ndarray:
    """Transfer matrix of a multiport used as a beamformer.

    Ports 0..n_in-1 are inputs and the remaining n_out are outputs; with
    matched sources and loads the output waves are half the corresponding
    scattering block, so this returns S[n_in:, :n_in] / 2 (an n_out x n_in
    matrix). Raw arrays are validated as ScatteringMatrix does and raise
    DimensionError unless square and finite.
    """
    M = S.S if isinstance(S, (ScatteringMatrix, FactoredScattering)) else _square(S, "S")
    n = M.shape[0]
    if n_in < 1 or n_out < 1 or n_in + n_out != n:
        raise DimensionError(
            f"port split {n_in}+{n_out} does not match an {n}-port network"
        )
    return M[n_in:, :n_in] / 2.0


def check_lossless_reciprocal(S: ScatteringMatrix | FactoredScattering | np.ndarray,
                              tol: float = 1e-10) -> LosslessReciprocalReport:
    """Frobenius residuals of unitarity (S^H S = I) and symmetry (S = S^T).

    S is a ScatteringMatrix, a raw array or a FactoredScattering. Dense
    input: with S = A + jB, the Gram S^H S has real part A^T A + B^T B and
    imaginary part X - X^T with X = A^T B. Both are read off one float64
    buffer R = [A; B] of shape (2n, n): R^T R is a single real rank-2n
    update (dsyrk) over the n(n+1)/2 entries of a symmetric result, and X
    is one real product (dgemm), about 2n^3 real multiply-adds in all
    against the 4n^3 of a complex product. The unitarity residual
    hypot(||A^T A + B^T B - I||_F, ||X - X^T||_F) equals ||S^H S - I||_F up
    to rounding and is evaluated in float64 whatever the input precision;
    the symmetry residual is ||S - S^T||_F. Raw arrays are validated as
    ScatteringMatrix does and raise DimensionError unless square and
    finite.

    Factored input: the residuals of the matrix it represents, from its
    factors in O(LK^2), without forming any (L+K)^2 array (see
    _factored_unitarity). The represented matrix is symmetric by
    construction, so its symmetry residual is exactly 0.

    tol must be positive and finite; passed is both residuals <= tol.
    """
    if not (np.isfinite(tol) and tol > 0):
        raise DimensionError(f"tol must be positive and finite, got {tol}")
    if isinstance(S, FactoredScattering):
        uni = _factored_unitarity(S.U1, S.Y, S.Z)
        return LosslessReciprocalReport(
            unitarity_residual=uni, symmetry_residual=0.0, tol=tol,
            passed=bool(uni <= tol),
        )
    M = S.S if isinstance(S, ScatteringMatrix) else _square(S, "S")
    n = M.shape[0]
    sym = float(np.linalg.norm(M - M.T))
    R = np.empty((2 * n, n))
    R[:n] = M.real
    R[n:] = M.imag
    A, B = R[:n], R[n:]
    # each n x n temporary is freed before the next one is allocated
    G = R.T @ R
    G.flat[::n + 1] -= 1.0
    uni_re = np.linalg.norm(G)
    del G
    X = A.T @ B
    uni = float(np.hypot(uni_re, np.linalg.norm(X - X.T)))
    return LosslessReciprocalReport(
        unitarity_residual=uni, symmetry_residual=sym, tol=tol,
        passed=bool(uni <= tol and sym <= tol),
    )


def _factored_unitarity(U1: np.ndarray, Y: np.ndarray, Z: np.ndarray) -> float:
    """||Phi^H Phi - I||_F of Phi = [[0, U1^T], [U1, P]], P = A B - E,
    with A = [Y, Z^T] (L x 2K) and B = [Z; Y^T] (2K x L).

    P is symmetric, so P^H = conj(P) and Phi^H Phi - I has the blocks
    U1^H U1 - I (K x K), U1^H P (K x L, and its adjoint) and
    D = conj(U1) U1^T + conj(P) P - I (L x L). Expanding conj(P) P and
    writing I - E = J J^T with J = [I_K; 0],
    D = -J J^T + Cl Cr, Cl = [-E A, conj(U1), conj(A)] (L x 5K),
    Cr = [B; U1^T; conj(B) P] (5K x L),
    where conj(B) P = (conj(B) A) B - conj(B) E needs no L x L product.
    The first K rows of D are formed directly. E A is zero there, so the
    other L - K rows are (Cl Cr)[K:], and their norm is ||R Cr||_F for the
    triangular factor R of Cl[K:] = Q R, since Q has orthonormal columns.
    The residual is never squared before the cancellation, as in the Gram
    form trace(Cl^H Cl Cr Cr^H): there terms of size 1 would have to
    cancel to a squared residual near 1e-28, far below their rounding.
    Every identity holds for any U1, Y and Z, so the result is the
    residual of the represented matrix up to rounding.
    """
    L, K = U1.shape
    # rows 0:5K hold Cr; rows 5K:6K receive U1^H P
    buf = np.empty((6 * K, L), dtype=np.complex128)
    buf[:K] = Z
    buf[K:2 * K] = Y.T
    buf[2 * K:3 * K] = U1.T
    C = np.conjugate(buf[:3 * K])  # [conj(B); U1^H]
    Cl = np.zeros((L, 5 * K), dtype=np.complex128)
    np.negative(Y[K:], out=Cl[K:, :K])
    np.negative(Z.T[K:], out=Cl[K:, K:2 * K])
    Cl[:, 2 * K:3 * K] = C[2 * K:].T
    Cl[:, 3 * K:4 * K] = C[K:2 * K].T
    Cl[:, 4 * K:] = C[:K].T
    # [conj(B); U1^H] [U1, A] = [[conj(B) U1, conj(B) A], [U1^H U1, U1^H A]]
    N = C @ np.conjugate(Cl[:, 2 * K:])
    # [conj(B) A B; U1^H A B], then minus [conj(B) E; U1^H E]
    np.matmul(N[:, K:], buf[:2 * K], out=buf[3 * K:])
    buf[3 * K:, K:] -= C[:, K:]
    gram = N[2 * K:, :K]
    gram.flat[::K + 1] -= 1.0  # U1^H U1 - I
    Cr, off = buf[:5 * K], buf[5 * K:]
    top = Cl[:K] @ Cr
    top.flat[:K * (L + 1):L + 1] -= 1.0  # -J^T
    # R from the raw factorization, skipping np.triu's per-call mask
    h = np.linalg.qr(Cl[K:], mode="raw")[0].T
    m = min(h.shape)
    low = (h[:m] * _upper_triangle(m, 5 * K)) @ Cr
    return float(np.sqrt(np.vdot(gram, gram).real + 2.0 * np.vdot(off, off).real
                         + np.vdot(top, top).real + np.vdot(low, low).real))


@lru_cache(maxsize=8)
def _upper_triangle(m: int, n: int) -> np.ndarray:
    """Read-only (m, n) float mask of the upper triangle."""
    mask = np.triu(np.ones((m, n)))
    mask.setflags(write=False)
    return mask
