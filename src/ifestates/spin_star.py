"""Analytic IFE states of the non-homogeneous spin star.

One central spin-1/2 exchanges excitations with N mutually non-interacting
bath spins through flip-flop couplings of strength ``gamma_i``:

    h_a = omega0 * sigma_z                     (central spin)
    h_b = omega  * sum_i sigma_z^(i)           (bath)
    h_i = sum_i gamma_i * (sigma_+ sigma_-^(i) + sigma_- sigma_+^(i))

Off resonance (omega0 != omega) the commutator kernel coincides with
Ker h_i, every IFE state sits in the single sector alpha = 0, and that
sector is spanned in closed form by dressed highest/lowest-weight states
of the bath: non-unitary diagonal dressing operators map the
non-homogeneous couplings onto the total-spin raising/lowering problem,
whose solutions are the |r, +-r, nu> multiplets.  This module constructs
those multiplets, rather than searching for them numerically, by coupling
the bath spins one at a time (``nu`` is the coupling path), dresses them,
and verifies each structural claim against the numerical pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, isfinite
from numbers import Integral

import numpy as np

from .core import (
    BipartiteSystem,
    IfeDecomposition,
    IfeSector,
    _alpha_tol,
    _coupling_eig,
    _coupling_norm,
    _eigvalsh_on,
    _partition,
    _per_system,
    build_h0,
    commutator_kernel,
    ife_sectors,
)
from .linalg import (
    DEFAULT_REL_TOL,
    SUBSPACE_ANGLE_TOL,
    kron,
    orthonormal_columns,
    spectral_norm,
    subspace_residual,
)

__all__ = [
    "PAULI_Z",
    "ResonanceError",
    "SpinStarParams",
    "DressedBasis",
    "ClaimResult",
    "gamma_norm",
    "build_spin_star",
    "dressing_operator",
    "admissible_r",
    "multiplicity",
    "weight_basis",
    "dressed_blocks",
    "spin_star_ife_basis",
    "verify_spin_star_claims",
]

PAULI_Z = np.diag([1.0, -1.0])


class ResonanceError(ValueError):
    """Raised when omega0 == omega, where the analytic construction degenerates.

    At resonance the commutator [H_0, H_I] vanishes identically, the
    commutator kernel is the whole space, and the closed-form basis no
    longer describes all IFE states; use the generic sector computation
    instead.
    """


@dataclass(frozen=True)
class SpinStarParams:
    """Model parameters: bath size, level splittings, couplings; the analytic basis is cached on them."""

    n_spins: int
    omega0: float
    omega: float
    gammas: tuple[float, ...]
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        # bool is an Integral, but True is no bath size
        if isinstance(self.n_spins, bool) or not isinstance(self.n_spins, Integral):
            raise ValueError(f"n_spins must be an integer, got {self.n_spins!r}")
        if self.n_spins < 1:
            raise ValueError("n_spins must be >= 1")
        object.__setattr__(self, "n_spins", int(self.n_spins))
        gammas = tuple(float(g) for g in self.gammas)
        if len(gammas) != self.n_spins:
            raise ValueError(
                f"expected {self.n_spins} couplings, got {len(gammas)}"
            )
        for name, values in (("omega0", (self.omega0,)), ("omega", (self.omega,)), ("gammas", gammas)):
            if not all(isfinite(v) for v in values):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if any(g == 0.0 for g in gammas):
            raise ValueError(
                "zero couplings are not supported: drop the decoupled spin instead"
            )
        object.__setattr__(self, "gammas", gammas)

    @property
    def bath_dim(self) -> int:
        return 2 ** self.n_spins


@dataclass(frozen=True)
class DressedBasis:
    """Orthonormalized dressed multiplet images on the bath space.

    ``vectors`` spans the image of one (branch, r) block of
    highest/lowest-weight states under the dressing operator; every column
    is a total-S_z eigenvector with eigenvalue ``+r`` (plus branch) or
    ``-r`` (minus branch).
    """

    branch: str
    r: float
    vectors: np.ndarray

    @property
    def count(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of one verified structural claim: it passes when ``residual <= tolerance``."""

    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _site_sz_signs(n: int) -> np.ndarray:
    """(2^n, n) array of sigma_z values (+1 up / -1 down) per product state."""
    idx = np.arange(2 ** n)
    bits = (idx[:, None] >> np.arange(n - 1, -1, -1)[None, :]) & 1
    return 1.0 - 2.0 * bits


def gamma_norm(gammas) -> float:
    """Euclidean norm of the coupling vector."""
    g = np.asarray(gammas, dtype=float)
    if g.size == 0 or np.all(g == 0.0):
        raise ValueError("at least one coupling must be nonzero")
    return float(np.linalg.norm(g))


def build_spin_star(p: SpinStarParams) -> BipartiteSystem:
    """Assemble the spin-star Hamiltonian pieces as a bipartite system.

    Central-spin basis order |+>, |-> (sigma_z eigenvalues +1, -1); bath
    spins tensor-ordered 1..N, each with basis |up>, |down>.  Every entry
    is real, so the system is stored and factorized real.
    """
    n = p.n_spins
    signs = _site_sz_signs(n)
    h_a = p.omega0 * PAULI_Z
    # Scaled after np.diag: a negative omega gives its zeros the sign of omega * 0.0.
    h_b = p.omega * np.diag(signs.sum(axis=1))
    # Each coupling term flips bath spin i: |+, i down> <-> |-, i up>.
    h_i = np.zeros((2 * p.bath_dim, 2 * p.bath_dim))
    for i, g in enumerate(p.gammas):
        up = np.flatnonzero(signs[:, i] > 0)
        down = up + 2 ** (n - 1 - i)
        h_i[down, p.bath_dim + up] = h_i[p.bath_dim + up, down] = g
    return BipartiteSystem(2, p.bath_dim, h_a, h_b, h_i)


def dressing_operator(p: SpinStarParams, branch: str) -> np.ndarray:
    """Diagonal of the dressing operator exp(sum_i g_i sigma_z^(i)) on the bath.

    With ``g_i = +-(1/2) ln(gamma_i / gamma)`` (sign per branch) the
    similarity transform rescales each ``sigma_+-^(i)`` by
    ``gamma / gamma_i``, turning the weighted flip sums into the total-spin
    ladder operators.  The two branches are exact mutual inverses.  Requires
    strictly positive couplings; a negative coupling can be absorbed into a
    local z rotation of that bath spin beforehand.
    """
    if branch not in ("plus", "minus"):
        raise ValueError(f"branch must be 'plus' or 'minus', got {branch!r}")
    g = np.asarray(p.gammas, dtype=float)
    if np.any(g <= 0.0):
        raise ValueError(
            "dressing requires all couplings > 0 (real-logarithm convention)"
        )
    exponents = 0.5 * np.log(g / gamma_norm(g))
    if branch == "minus":
        exponents = -exponents
    return np.exp(_site_sz_signs(p.n_spins) @ exponents)


def admissible_r(n: int) -> list[float]:
    """Total-spin values r for n spin-1/2 particles, descending from n/2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [two_r / 2.0 for two_r in range(n, (n % 2) - 1, -2)]


def _check_r(n: int, r: float) -> int:
    two_r = round(2 * r)
    if abs(2 * r - two_r) > 1e-9 or two_r < 0 or two_r > n or (n - two_r) % 2 != 0:
        raise ValueError(f"r = {r} is not admissible for {n} spins")
    return two_r


def multiplicity(n: int, r: float) -> int:
    """Number of total-spin-r multiplets of n spin-1/2 particles.

    Catalan-triangle count C(n, n/2 - r) - C(n, n/2 - r - 1); satisfies
    sum_r (2r + 1) * multiplicity(n, r) = 2^n.
    """
    two_r = _check_r(n, r)
    k = (n - two_r) // 2
    return comb(n, k) - (comb(n, k - 1) if k >= 1 else 0)


def _lower_total_spin(x: np.ndarray) -> np.ndarray:
    """``S_- x`` for columns ``x`` on k spins: per bit, every up (0) adds to its flipped down (1) index."""
    y = np.zeros_like(x)
    for step in 2 ** np.arange(x.shape[0].bit_length() - 1):
        y.reshape(-1, 2, step, x.shape[1])[:, 1] += x.reshape(-1, 2, step, x.shape[1])[:, 0]
    return y


def _highest_weight_states(n: int) -> dict[int, np.ndarray]:
    """Real orthonormal highest-weight states ``|r, r, nu>`` of n spins, keyed by ``2r``.

    Spins are coupled one at a time with Condon & Shortley Clebsch-Gordan
    coefficients, each new spin as the least significant bit of the
    product-state index.  Starting from ``|1/2, 1/2> = |up>``, a state
    ``x = |S, S>`` of the first k spins gives

        |S + 1/2, S + 1/2> = x (x) |up>
        |S - 1/2, S - 1/2> = sqrt(2S / (2S + 1)) x (x) |down>
                             - sqrt(1 / (2S (2S + 1))) (S_- x) (x) |up>     (S > 0)

    so ``nu`` is the coupling path ``S_1 = 1/2, S_2, ..., S_n = r``.  For each
    r the columns are ordered by path compared from the last spin backwards,
    lower intermediate spin first: the paths through ``S_(n-1) = r - 1/2``,
    then those through ``r + 1/2``.
    """
    states = {1: np.array([[1.0], [0.0]])}
    for _ in range(n - 1):
        grown = {}
        for two_s in range(max(states) + 1, -1, -2):
            parts = []
            if two_s - 1 in states:
                x = states[two_s - 1]
                parts.append(np.stack([x, np.zeros_like(x)], axis=1))
            if two_s + 1 in states:
                x, k = states[two_s + 1], two_s + 1
                parts.append(np.stack([-np.sqrt(1 / (k * (k + 1))) * _lower_total_spin(x),
                                       np.sqrt(k / (k + 1)) * x], axis=1))
            grown[two_s] = np.hstack([part.reshape(-1, part.shape[2]) for part in parts])
        states = grown
    return states


def _weight_states(highest: np.ndarray, n: int, two_r: int, which: str) -> np.ndarray:
    """The real highest-weight columns, or their lowest-weight images ``exp(-i pi S_y) |r, r, nu>``.

    The rotation maps ``|up> -> |down>`` and ``|down> -> -|up>``: it reverses
    the product-state index and gives a sign per down spin, of which every
    ``S_z = r`` state has ``(n - 2r) / 2``.
    """
    if which == "highest":
        return highest
    return (-1) ** ((n - two_r) // 2) * highest[::-1]


def weight_basis(n: int, r: float, which: str = "highest") -> np.ndarray:
    """Real orthonormal basis of the highest- or lowest-weight states |r, +-r, nu>.

    The states are constructed, not searched for: ``nu`` is the coupling
    path of :func:`_highest_weight_states`, which spans ``Ker(S_+)`` within
    ``S_z = +r``.  The lowest-weight states are the standard-phase images
    ``exp(-i pi S_y) |r, r, nu>``, spanning ``Ker(S_-)`` within ``S_z = -r``.
    Column count equals :func:`multiplicity`.
    """
    two_r = _check_r(n, r)
    if which not in ("highest", "lowest"):
        raise ValueError(f"which must be 'highest' or 'lowest', got {which!r}")
    return _weight_states(_highest_weight_states(n)[two_r], n, two_r, which)


def dressed_blocks(p: SpinStarParams) -> list[DressedBasis]:
    """All (branch, r) blocks of orthonormalized dressed multiplet states.

    Blocks with different branch or different r are exactly orthogonal
    (distinct sigma_z or S_z eigenvalues); within a block the dressed
    vectors are re-orthonormalized because the dressing is not unitary.
    """
    n = p.n_spins
    highest = _highest_weight_states(n)
    blocks = []
    for branch, which in (("plus", "highest"), ("minus", "lowest")):
        dressing = dressing_operator(p, branch)
        for r in admissible_r(n):
            two_r = _check_r(n, r)
            undressed = _weight_states(highest[two_r], n, two_r, which)
            vectors = orthonormal_columns(dressing[:, None] * undressed)
            blocks.append(DressedBasis(branch, r, vectors))
    return blocks


def _embed_block(block: DressedBasis) -> np.ndarray:
    central = [[1.0], [0.0]] if block.branch == "plus" else [[0.0], [1.0]]
    return kron(central, block.vectors)


@_per_system
def _analytic_basis(p: SpinStarParams) -> np.ndarray:
    """The embedded :func:`dressed_blocks` side by side; resonance is refused before the dressing runs."""
    if p.omega0 == p.omega:
        raise ResonanceError(
            "omega0 == omega: commutator kernel is the whole space and the "
            "closed-form basis does not apply; use ife_sectors on the built system"
        )
    return np.hstack([_embed_block(b) for b in dressed_blocks(p)])


def spin_star_ife_basis(p: SpinStarParams) -> IfeDecomposition:
    """Closed-form IFE decomposition: one sector at alpha = 0.

    The basis is the union over branches and total-spin values r of the
    embedded dressed blocks; its dimension is 2 * sum_r multiplicity(r).
    Off resonance this also equals the commutator kernel.  The basis is
    built once per parameter set and cached read-only on ``p``, so every
    call returns the same array; at resonance it raises
    :class:`ResonanceError`.
    """
    basis = _analytic_basis(p)
    return IfeDecomposition((IfeSector(0.0, basis),), basis.shape[0])


def verify_spin_star_claims(p: SpinStarParams, rel_tol: float = DEFAULT_REL_TOL) -> list[ClaimResult]:
    """Check every structural claim of the closed-form solution numerically.

    1. Ker[H_0, H_I] coincides with Ker H_I.
    2. The sector computation finds exactly one sector, at alpha = 0.
    3. The analytic basis spans the numerical alpha = 0 sector.
    4. Every analytic vector is a simultaneous H_0 and H eigenvector with
       eigenvalue +-(omega0 + 2 r omega).

    Subspace claims are scored by :func:`~ifestates.linalg.subspace_residual`;
    eigenvector residuals are relative to the norm of H.  A claim passes
    exactly when its residual is within its tolerance.  The claims score
    the basis of :func:`spin_star_ife_basis`, read first, so resonance is
    refused before anything is built.
    """
    analytic = spin_star_ife_basis(p).sectors[0].basis

    sys = build_spin_star(p)
    ker_comm = commutator_kernel(sys, rel_tol)  # its commutator is shared with ife_sectors below
    h0 = build_h0(sys)
    h = h0 + sys.h_i

    claims = []

    # Ker H_I from the cached eigh(H_I): |w| are the singular values of H_I
    w, v = _coupling_eig(sys)
    ker_hi = v[:, np.abs(w) <= rel_tol * _coupling_norm(sys)]
    resid = subspace_residual(ker_comm, ker_hi)
    claims.append(ClaimResult("commutator_kernel_equals_interaction_kernel", resid, SUBSPACE_ANGLE_TOL))

    # a count other than one scores at least max(1, ||H_I||), 1e8 times the tolerance
    dec = ife_sectors(sys, rel_tol)
    if dec.n_sectors == 1:
        resid = abs(dec.sectors[0].alpha)
    else:
        resid = abs(dec.n_sectors - 1) * max(1.0, _coupling_norm(sys))
    claims.append(ClaimResult("single_sector_alpha_zero", resid, _alpha_tol(sys)))

    if dec.n_sectors == 1:
        resid = subspace_residual(analytic, dec.sectors[0].basis)
    else:
        resid = 1.0
    claims.append(ClaimResult("analytic_basis_matches_numerical", resid, SUBSPACE_ANGLE_TOL))

    h_norm = float(np.abs(_eigvalsh_on(h, _partition(sys))).max())  # H is block diagonal as H_I is
    eig_tol = 1e-9
    worst = 0.0
    start = 0
    for sign in (1.0, -1.0):
        for r in admissible_r(p.n_spins):
            energy = sign * (p.omega0 + 2.0 * r * p.omega)
            vecs = analytic[:, start:start + multiplicity(p.n_spins, r)]
            start += vecs.shape[1]
            for op in (h0, h):
                resid = spectral_norm(op @ vecs - energy * vecs)
                worst = max(worst, resid / max(h_norm, 1e-300))
    claims.append(ClaimResult("analytic_vectors_are_h0_and_h_eigenvectors", worst, eig_tol))
    return claims
