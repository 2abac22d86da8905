"""Multiport network models: admittance assembly from components, the
susceptance/scattering bilinear maps, and lossless-reciprocity checks.

All networks here are purely susceptive (Y = jB with B real symmetric), so
their scattering matrices are unitary and symmetric by construction.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (BOOLS, DimensionError, NotRealizableError, check_array, check_count,
                     check_positive)

COND_LIMIT = 1e12
RESIDUE_TOL = 1e-8
Z0 = 50.0  # reference impedance in ohms, real and the same at every port


def _square(M, name: str) -> np.ndarray:
    """M as a finite complex128 n x n array, n >= 1; DimensionError
    naming name otherwise."""
    M = check_array(name, M)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] == 0:
        raise DimensionError(
            f"{name} must be square with at least one port, got shape {M.shape}")
    return M


@dataclass(frozen=True, eq=False)
class SusceptanceMatrix:
    """Real symmetric susceptance matrix B of a purely susceptive network.

    Construction checks symmetry to RESIDUE_TOL and then stores the exactly
    symmetrized (B + B^T)/2, so the stored matrix always satisfies B = B^T.
    """

    B: np.ndarray

    def __post_init__(self):
        B = _square(self.B, "B")
        if np.max(np.abs(B.imag)) > RESIDUE_TOL * max(1.0, np.max(np.abs(B.real))):
            raise DimensionError("susceptance matrix must be real")
        B = B.real.copy()
        scale = max(1.0, np.max(np.abs(B)))
        if np.max(np.abs(B - B.T)) > RESIDUE_TOL * scale:
            raise DimensionError("susceptance matrix must be symmetric")
        B = (B + B.T) / 2.0
        B.setflags(write=False)
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.B.shape[0]


@dataclass(frozen=True, eq=False)
class ScatteringMatrix:
    """Scattering matrix of an N-port network at a common reference
    impedance. Not restricted to lossless or reciprocal networks; use
    check_lossless_reciprocal for that predicate."""

    S: np.ndarray

    def __post_init__(self):
        S = _square(self.S, "S").copy()
        S.setflags(write=False)
        object.__setattr__(self, "S", S)

    @property
    def n(self) -> int:
        return self.S.shape[0]


@dataclass(frozen=True, eq=False)
class FactoredScattering:
    """(L+K)-port scattering matrix [[0, U1^T], [U1, -U2 U2^T]] kept as the
    K Householder reflectors it is built from.

    V (L x K) and T (K x K) give Q = I - V T V^H, the compact-WY form of a
    product of K reflectors (Schreiber & Van Loan, SIAM J. Sci. Stat.
    Comput. 1989), and [U1, U2] = Q diag(Ur, I_(L-K)) for Ur (K x K). With
    E = diag(0_K, I_(L-K)), Y = V T and b = E conj(V),
    U2 U2^T = Q E Q^T = E - Y b^T - b Y^T + Y (b^T b) Y^T, so for any V, T
    and Ur, -U2 U2^T = X + X^T - E with X = Y Z, Z = b^T - (b^T b) Y^T / 2;
    the matrix is unitary when Q and Ur are. The factors take O(LK) memory
    against the (L+K)^2 of the dense matrix. The represented matrix is
    symmetric by construction; check_lossless_reciprocal certifies its
    unitarity from the factors in O(LK^2). U1 and S are formed on first
    read and cached read-only. Instances compare by identity.
    """

    V: np.ndarray
    T: np.ndarray
    Ur: np.ndarray

    def __post_init__(self):
        for name in ("V", "T", "Ur"):
            # a read-only view: the caller's array stays writable
            M = np.ascontiguousarray(check_array(name, getattr(self, name))).view()
            M.setflags(write=False)
            object.__setattr__(self, name, M)
        L, K = self.V.shape if self.V.ndim == 2 else (0, 0)
        if not 1 <= K <= L or self.T.shape != (K, K) or self.Ur.shape != (K, K):
            raise DimensionError(
                f"factors of shapes {self.V.shape}, {self.T.shape}, {self.Ur.shape} are "
                "not V (L x K, L >= K >= 1), T (K x K) and Ur (K x K)"
            )

    @property
    def K(self) -> int:
        return self.V.shape[1]

    @property
    def n(self) -> int:
        return sum(self.V.shape)

    @cached_property
    def U1(self) -> np.ndarray:
        """Q [Ur; 0] (L x K), the block Phi21."""
        K = self.K
        U1 = -((self.V @ self.T) @ (self.V[:K].conj().T @ self.Ur))
        U1[:K] += self.Ur
        U1.setflags(write=False)
        return U1

    @cached_property
    def S(self) -> np.ndarray:
        L, K = self.V.shape
        Y = self.V @ self.T
        b = self.V[K:].conj()  # the nonzero rows of E conj(V)
        Z = (b.T @ b) @ Y.T * -0.5
        Z[:, K:] += b.T
        X = Y @ Z
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


def admittance_from_components(offdiag, ground, n: int) -> np.ndarray:
    """Assemble an N-port admittance matrix (complex, siemens) from
    component admittances, returned read-only.

    offdiag maps port pairs (i, v), 0-based with i != v, to the admittance
    of the component connected between those ports; giving both (i, v) and
    (v, i) is allowed when the values agree. ground maps a port to the
    admittance of its component to ground. Missing entries mean no
    component. The assembled matrix has [Y]_iv = -Y_iv off the diagonal and
    column sums (ground included) on the diagonal. offdiag and ground must
    be mappings whose values are numbers, not bools or strings; such a
    value, a non-finite one, or a key that is not a port (or pair of ports)
    of the n-port raises DimensionError.
    """
    n = check_count("n", n, 1)
    for name, components in (("offdiag", offdiag), ("ground", ground)):
        if not isinstance(components, Mapping):
            raise DimensionError(f"{name} must be a mapping, got {components!r}")
    comp = np.zeros((n, n), dtype=np.complex128)
    filled = np.zeros((n, n), dtype=bool)
    for key, y in offdiag.items():
        try:
            i, v = key
        except (TypeError, ValueError):  # not an iterable of two
            raise DimensionError(f"offdiag key {key!r} is not a port pair") from None
        i, v = _port("offdiag port", i, n), _port("offdiag port", v, n)
        if i == v:
            raise DimensionError(
                f"offdiag key {key} is diagonal; ground components go in `ground`"
            )
        y = _admittance("offdiag", key, y)
        if filled[i, v] and not np.isclose(comp[i, v], y, rtol=1e-12, atol=0.0):
            raise DimensionError(
                f"components ({i},{v}) and ({v},{i}) disagree: {comp[i, v]} vs {y}"
            )
        comp[i, v] = comp[v, i] = y
        filled[i, v] = filled[v, i] = True
    gnd = np.zeros(n, dtype=np.complex128)
    for v, y in ground.items():
        gnd[_port("ground port", v, n)] = _admittance("ground", v, y)
    Y = -comp
    # diagonal: total admittance incident on the port, ground included
    Y[np.diag_indices(n)] = comp.sum(axis=0) + gnd
    if not np.isfinite(Y).all():
        raise DimensionError("Y has non-finite entries")
    Y.setflags(write=False)
    return Y


def _admittance(name: str, key, y) -> complex:
    """y as a complex; DimensionError naming the key unless y is a number
    and not a bool."""
    if not isinstance(y, numbers.Number) or isinstance(y, BOOLS):
        raise DimensionError(f"{name} value at {key!r} must be a number, got {y!r}")
    return complex(y)


def _port(name: str, index, n: int) -> int:
    """index as an int; DimensionError unless it is an integer in [0, n)
    and not a bool."""
    p = check_count(name, index, 0)
    if p >= n:
        raise DimensionError(f"{name} {p} out of range for n={n}")
    return p


def scattering_from_susceptance(B) -> ScatteringMatrix:
    """Scattering matrix of the susceptive network Y = jB.

    Computes S = (I + j z0 B)^(-1) (I - j z0 B) at z0 = Z0. The result is
    unitary and symmetric up to rounding. Raises NotRealizableError when
    I + j z0 B is ill-conditioned (condition number at or above
    COND_LIMIT).
    """
    if not isinstance(B, SusceptanceMatrix):
        B = SusceptanceMatrix(B=B)
    M = 1j * Z0 * B.B
    A = np.eye(B.n) + M
    if np.linalg.cond(A) >= COND_LIMIT:
        raise NotRealizableError("I + j z0 B is numerically singular")
    S = np.linalg.solve(A, np.eye(B.n) - M)
    return ScatteringMatrix(S=S)


def susceptance_from_scattering(S: ScatteringMatrix) -> SusceptanceMatrix:
    """Recover the real symmetric B with S = (I + j z0 B)^(-1)(I - j z0 B),
    z0 = Z0.

    The input must be lossless and reciprocal to within RESIDUE_TOL, and a
    scattering matrix with an eigenvalue at -1 (I + S singular) has no
    susceptance realization. The computed matrix is returned real and
    exactly symmetric after discarding rounding residue, which must stay
    below RESIDUE_TOL. Each of these failures raises NotRealizableError.
    """
    if not isinstance(S, (ScatteringMatrix, FactoredScattering)):
        S = ScatteringMatrix(S=S)
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
    Braw = np.linalg.solve(A, np.eye(S.n) - S.S) / (1j * Z0)
    scale = max(1.0, np.max(np.abs(Braw)))
    if np.max(np.abs(Braw.imag)) > RESIDUE_TOL * scale:
        raise NotRealizableError("recovered susceptance has a large imaginary part")
    Breal = Braw.real
    if np.max(np.abs(Breal - Breal.T)) > RESIDUE_TOL * scale:
        raise NotRealizableError("recovered susceptance has a large asymmetric part")
    return SusceptanceMatrix(B=(Breal + Breal.T) / 2.0)


def beamformer_from_scattering(S: ScatteringMatrix | FactoredScattering | np.ndarray, n_in: int, n_out: int) -> np.ndarray:
    """Transfer matrix of a multiport used as a beamformer.

    Ports 0..n_in-1 are inputs and the remaining n_out are outputs; with
    matched sources and loads the output waves are half the corresponding
    scattering block, so this returns S[n_in:, :n_in] / 2 (an n_out x n_in
    matrix). Raw arrays are validated as ScatteringMatrix does and raise
    DimensionError unless square and finite; so does a split that is not
    two integers >= 1 summing to the port count.
    """
    M = S.S if isinstance(S, (ScatteringMatrix, FactoredScattering)) else _square(S, "S")
    n = M.shape[0]
    n_in, n_out = check_count("n_in", n_in, 1), check_count("n_out", n_out, 1)
    if n_in + n_out != n:
        raise DimensionError(
            f"port split {n_in}+{n_out} does not match an {n}-port network"
        )
    return M[n_in:, :n_in] * 0.5


def check_lossless_reciprocal(S: ScatteringMatrix | FactoredScattering | np.ndarray,
                              tol: float = 1e-10) -> LosslessReciprocalReport:
    """Frobenius residuals of unitarity (S^H S = I) and symmetry (S = S^T).

    S is a ScatteringMatrix, a raw array or a FactoredScattering. Dense
    input: the unitarity residual is ||S^H S - I||_F from one complex
    product and the symmetry residual is ||S - S^T||_F, both evaluated in
    complex128 whatever the input precision. Raw arrays are validated as
    ScatteringMatrix does and raise DimensionError unless square and
    finite.

    Factored input: the residuals of the matrix it represents, from its
    reflector factors V, T and Ur in O(LK^2) with one real QR of V[K:]
    viewed as an (L-K) x 2K real matrix, without forming U1 or any
    (L+K)^2 array (see _factored_unitarity). The represented matrix is
    symmetric by construction, so its symmetry residual is exactly 0.

    tol must be positive and finite; passed is both residuals <= tol.
    """
    check_positive("tol", tol)
    if isinstance(S, FactoredScattering):
        uni = _factored_unitarity(S.V, S.T, S.Ur)
        return LosslessReciprocalReport(
            unitarity_residual=uni, symmetry_residual=0.0, tol=tol,
            passed=bool(uni <= tol),
        )
    M = S.S if isinstance(S, ScatteringMatrix) else _square(S, "S")
    sym = float(np.linalg.norm(M - M.T))
    G = M.conj().T @ M
    G.flat[::M.shape[0] + 1] -= 1.0
    uni = float(np.linalg.norm(G))
    return LosslessReciprocalReport(
        unitarity_residual=uni, symmetry_residual=sym, tol=tol,
        passed=bool(uni <= tol and sym <= tol),
    )


def _factored_unitarity(V: np.ndarray, T: np.ndarray, Ur: np.ndarray) -> float:
    """||Phi^H Phi - I||_F of Phi = [[0, U1^T], [U1, P]], P = A Pi A^T - E,
    the FactoredScattering(V, T, Ur), with A = [Z^T, Y] (L x 2K), Pi the
    swap of A's two column blocks and E = diag(0_K, I_(L-K)).

    With W = [[I_K, 0], [0, [U1, A]]] ((L+K) x 4K),
    M = [[0, I, 0], [I, 0, 0], [0, 0, Pi]] and Ehat = diag(0_K, E),
    Phi = W M W^T - Ehat. Phi is symmetric, so Phi^H = conj(Phi), and with
    I - Ehat = J J^T (J the first 2K columns of I_(L+K)) and Gw = W^H W,
    Phi^H Phi - I = F Gw F^H - F (Ehat W)^H - (Ehat W) F^H - J J^T
                  = F H^H + H F^H - J J^T,
    F = conj(W) M, H = F Gw / 2 - Ehat W.
    The factors give [U1, A] = [[Ur, 0, 0]; 0] + Y [N, I_K] + b [0, I_K, 0]
    with N = [-V[:K]^H Ur, -(b^T b) / 2] and b = E conj(V), so below row K
    every column of [U1, A] is a combination of the columns of V[K:] and
    conj(V[K:]), whose real span has dimension at most 2K. One real QR of
    V[K:] viewed as an (L-K) x 2K real matrix (the real and imaginary
    parts of each column side by side) gives an orthonormal real basis Qb
    and, in its triangle viewed as complex, the coefficients Cv of
    V[K:] = Qb Cv. Qb is real, so conj(V[K:]) = Qb conj(Cv), b^T b =
    conj(Cv)^T conj(Cv) needs no product of length L, and
    [U1, A][K:] = Qb (Cv T [N, I_K] + [0, conj(Cv), 0]). Every term above
    is then B (.) B^T for B = diag(I_2K, Qb): the residual is the
    Frobenius norm of an n x n matrix, n = 2K + min(L-K, 2K), built from
    products with at most 4K inner terms. The residual is never squared
    before the cancellation, unlike in a trace form of
    ||Phi^H Phi - I||_F^2, where terms of size 1 would have to cancel to a
    squared residual near 1e-28, far below their rounding.
    Every identity holds for any V, T and Ur, so the result is the
    residual of the represented matrix up to rounding.
    """
    L, K = V.shape
    h = np.linalg.qr(V[K:].view(np.float64), mode="raw")[0]
    m = min(h.shape)
    n = 2 * K + m
    # Vc = [V[:K]; Cv], Cv read off the triangle of the raw factorization
    Vc = np.empty((K + m, K), dtype=np.complex128)
    Vc[:K] = V[:K]
    np.multiply(h[:, :m].T, _upper_triangle(m, 2 * K), out=Vc[K:].view(np.float64))
    Cc = Vc[K:].conj()
    N = np.empty((K, 2 * K), dtype=np.complex128)
    np.matmul(V[:K].conj().T, -Ur, out=N[:, :K])
    np.matmul(Cc.T, Cc * -0.5, out=N[:, K:])
    # W = [[I_K, 0], [0, [U1, Z^T, Y]]] in the basis B
    W = np.zeros((n, 4 * K), dtype=np.complex128)
    W.flat[:K * (4 * K + 1):4 * K + 1] = 1.0
    np.matmul(np.matmul(Vc, T, out=W[K:, 3 * K:]), N, out=W[K:, K:3 * K])
    W[K:2 * K, K:2 * K] += Ur
    W[2 * K:, 2 * K:3 * K] += Cc
    # M swaps the column blocks of W pairwise: (I, U1) and (Z^T, Y)
    F = np.conjugate(W.reshape(n, 2, 2, K)[:, :, ::-1]).reshape(n, 4 * K)
    H = F @ (W.conj().T @ W * 0.5)
    H[2 * K:] -= W[2 * K:]
    X = F @ H.conj().T
    X += X.conj().T
    X.flat[:2 * K * (n + 1):n + 1] -= 1.0
    return float(np.sqrt(np.vdot(X, X).real))


@lru_cache(maxsize=8)
def _upper_triangle(m: int, n: int) -> np.ndarray:
    """Read-only (m, n) float mask of the upper triangle."""
    mask = np.triu(np.ones((m, n)))
    mask.setflags(write=False)
    return mask
