"""Group and subgroup descriptors, Haar and tangent sampling, and the
orthogonal projections onto a subalgebra and its complement.

A space is M = G/H, G = U(n) or SO(n); HomSpace(G) is the bare group.  Each
kind of H is one SubgroupSpec subclass holding every fact that depends on
the kind: trivial, special (determinant one), grassmann(k) (blocks [k, n-k],
also built by a two-block block_diagonal), block_diagonal for a partition
of n, and tensor_factor (m identical k-by-k diagonal blocks, mk = n).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .matcore import (
    OPERATOR,
    TOL_ALG,
    InvalidArgumentError,
    NormSpec,
    _adjoint,
    _phase_dists,
    is_skew,
    opnorm,
)


@dataclass(frozen=True)
class GroupSpec:
    """The ambient group: U(n) or SO(n)."""

    kind: str  # "U" or "SO"
    n: int

    def __post_init__(self):
        if self.kind not in ("U", "SO"):
            raise InvalidArgumentError(f"unknown group kind {self.kind!r}")
        if self.n < 1:
            raise InvalidArgumentError("n must be positive")
        if self.kind == "SO" and self.n < 2:
            raise InvalidArgumentError("SO(n) needs n >= 2")

    @property
    def is_complex(self) -> bool:
        return self.kind == "U"

    @property
    def dim(self) -> int:
        """Real dimension of the group manifold."""
        n = self.n
        return n * n if self.kind == "U" else n * (n - 1) // 2

    def identity(self) -> np.ndarray:
        dtype = complex if self.is_complex else float
        return np.eye(self.n, dtype=dtype)


@dataclass(frozen=True)
class SubgroupSpec:
    """A closed connected subgroup, identified structurally: one subclass
    per kind, built by the constructor of that name.  Every kind defines
    dim_in(group), project_H(x) (the orthogonal projection of a skew x, or
    of each matrix of a stack, onto the subalgebra) and its CSV label; the
    attributes and methods here are the defaults of a kind that lacks the
    fact in question: for the operator-norm bracket on s = sin^2(d / w)
    (w, bracket_rows, sin2_bounds and sin2, the map of d into s) the null
    bracket, which decides nothing (see HomSpace.bracket)."""

    k = None  # grassmann and tensor_factor only
    kappa = None  # complement-projection norm, where the structure pins it
    theta = None  # weaving threshold, where known, in theta_units:
    theta_units = None  # "intrinsic" or "extrinsic"
    traceless = False  # theta witnesses need a trace-zero logarithm
    w = None  # scale of the bracket, whose sin2_bounds bound sin^2(d / w)

    @staticmethod
    def trivial() -> "SubgroupSpec":
        return Trivial()

    @staticmethod
    def special() -> "SubgroupSpec":
        return Special()

    @staticmethod
    def grassmann(k: int) -> "SubgroupSpec":
        if not k:
            raise InvalidArgumentError("grassmann needs k")
        return Grassmann(k)

    @staticmethod
    def block_diagonal(partition: Sequence[int]) -> "SubgroupSpec":
        partition = tuple(partition)
        if not partition or any(b < 1 for b in partition):
            raise InvalidArgumentError("block sizes must be positive")
        if len(partition) == 2:
            # two blocks fix a subspace and its complement: a Grassmannian
            return Grassmann(partition[0], sum(partition))
        return BlockDiagonal(partition)

    @staticmethod
    def tensor_factor(m: int, k: int) -> "SubgroupSpec":
        if not m or not k:
            raise InvalidArgumentError("tensor_factor needs m and k")
        return TensorFactor(m, k)

    def validate_for(self, group: GroupSpec) -> None:
        """Raise unless the subgroup fits inside group."""

    def exact_dists(self, a: np.ndarray, b: np.ndarray, norm: NormSpec):
        """The batched closed form metrics._dists takes, or None."""
        return None

    def bracket_rows(self, x: np.ndarray) -> np.ndarray:
        """Float per-point rows for sin2_bounds(fa, fb, group), which gives
        lo <= sin^2(d / w) <= hi for each pair of rows of fa and fb in the
        operator norm, as two (len(fa), len(fb)) arrays."""
        return np.zeros((len(x), 0))

    def sin2_bounds(self, fa, fb, group: GroupSpec):
        shape = (len(fa), len(fb))
        return np.full(shape, -np.inf), np.full(shape, np.inf)

    def sin2(self, d):
        """The distances d in the coordinate of sin2_bounds: sin^2(d / w),
        d / w clipped to [0, pi/2], or d itself with no bracket."""
        if self.w is None:
            return d
        return np.sin(np.clip(np.divide(d, self.w), 0.0, np.pi / 2)) ** 2

    def diameter(self, group: GroupSpec, norm: NormSpec) -> Optional[float]:
        """The gauge of the phases between two farthest cosets, or None."""
        return None

    def witness_phases(self, group: GroupSpec, rng, search_budget: int):
        """Diagonal phases of subgroup elements to test as theta witnesses."""
        return ()


# Rounding bound delta on each product of feature rows that sin2_bounds
# takes (e1, e2 and the sums s) for representatives unitary to rounding:
# each is a sum of 2 n^2 products whose absolute values add to at most n,
# so it is off by at most about 2 n^3 ulps, 1.4e-14 at n = 4 and 2e-13 at
# n = 10.  It keeps lo <= d <= hi sound, and near 0 its square root, 1e-6,
# is far wider than the 5e-8 floor of the Grassmann closed form.
_BRACKET_SLACK = 1e-12
# The Pluecker root r = sqrt(e1^2 - 4 e2) has an argument off by at most
# 8 delta, and |sqrt(x) - sqrt(y)| <= |x - y| / sqrt(x) and <= sqrt(|x - y|),
# so r is off by at most 8 delta / max(r, sqrt(8 delta)) and the largest
# sin^2, 1 - (e1 - r) / 2, by half of delta plus that: at most about 1.4e-6
# at a double root, about 1e-11 where the two angles are apart.
_ROOT_FLOOR = np.sqrt(8 * _BRACKET_SLACK)

_NO_BRACKET = SubgroupSpec()


@dataclass(frozen=True)
class Trivial(SubgroupSpec):
    """H = {e}: the space is the bare group."""

    kind = "trivial"
    label = ""
    kappa = 1.0
    theta = np.pi
    theta_units = "intrinsic"
    w = 2.0

    def dim_in(self, group: GroupSpec) -> int:
        return 0

    def project_H(self, x: np.ndarray) -> np.ndarray:
        return np.zeros_like(x)

    exact_dists = staticmethod(_phase_dists)  # the eigenphases of a* b

    def bracket_rows(self, x):
        # the matrix itself, complex even when real (on SO(n), or a real
        # stack of U(n) elements), so that every stack's rows share a width
        n = x.shape[-1]
        return np.ascontiguousarray(x, dtype=complex).reshape(len(x), n * n).view(float)

    def sin2_bounds(self, fa, fb, group: GroupSpec):
        # ||a - b||_F^2 = 2n - 2 Re tr(a* b) is the sum of 4 sin^2(phi_j / 2)
        # over the n eigenphases of a* b, and d = max |phi_j|; on SO(n) the
        # phases come in pairs +-phi_j, so s sums m = floor(n / 2) terms
        pairs = 1 if group.is_complex else 2
        s = (group.n - fa @ fb.T) / (2 * pairs)
        return (s - _BRACKET_SLACK) / (group.n // pairs), s + _BRACKET_SLACK

    def diameter(self, group, norm):
        # -I on U(n); a rotation by pi in each 2-plane of SO(n)
        m = group.n if group.is_complex else 2 * (group.n // 2)
        return norm.of_singular_values(np.full(m, np.pi))


@dataclass(frozen=True)
class Special(SubgroupSpec):
    """H = SU(n) inside U(n): the space is the determinant circle."""

    kind = label = "special"
    traceless = True

    def validate_for(self, group):
        if group.kind == "SO":
            raise InvalidArgumentError("SO(n) already has determinant one")

    def dim_in(self, group: GroupSpec) -> int:
        return group.dim - 1

    def project_H(self, x: np.ndarray) -> np.ndarray:
        # su(n) inside u(n): remove the trace part
        n = x.shape[-1]
        tr = np.trace(x, axis1=-2, axis2=-1)[..., np.newaxis, np.newaxis]
        return x - (tr / n) * np.eye(n, dtype=x.dtype)

    def exact_dists(self, a, b, norm):
        # (phi / n)(1, ..., 1), phi the principal phase of det(a* b),
        # spread evenly by a scalar
        n = a.shape[-1]
        w = np.einsum("...ji,...jl->...il", a.conj(), b)
        phi = np.angle(np.linalg.det(w))
        return np.abs(phi) / n * norm.of_singular_values(np.ones(n))

    def diameter(self, group, norm):
        return np.pi / group.n * norm.of_singular_values(np.ones(group.n))

    def witness_phases(self, group, rng, search_budget):
        # scalar witnesses exp(2 pi i j / n) I and random integer patterns
        n = group.n
        for j in range(1, n):
            yield np.full(n, 2 * np.pi * j / n)
        for _ in range(search_budget):
            v = rng.integers(-2, 3, size=n)
            if np.any(v):
                yield 2 * np.pi * (v - np.mean(v))


class _Blocks(SubgroupSpec):
    """Kinds whose subgroup lies block-diagonally for self.blocks(n), by
    default with a full unitary (orthogonal) factor on each block."""

    def dim_in(self, group: GroupSpec) -> int:
        # an SO(1) block is the trivial group and contributes no dimension
        min_b = 2 if group.kind == "SO" else 1
        return sum(GroupSpec(group.kind, b).dim for b in self.blocks(group.n) if b >= min_b)

    def project_H(self, x: np.ndarray) -> np.ndarray:
        # zero the off-diagonal blocks
        out = np.zeros_like(x)
        offset = 0
        for b in self.blocks(x.shape[-1]):
            out[..., offset : offset + b, offset : offset + b] = x[..., offset : offset + b, offset : offset + b]
            offset += b
        return out

    def witness_phases(self, group, rng, search_budget):
        n = group.n
        if group.is_complex:
            # the subalgebra holds the imaginary diagonals of its torus, so
            # one with a phase pinned at pi is a witness, at distance pi:
            # no witness is nearer, so there is nothing to search for
            pinned = np.zeros(n)
            pinned[0] = np.pi
            yield pinned
            return
        # real case: the torus lives in 2x2 rotation blocks; a rotation by
        # pi inside one subgroup block is a witness when it fits
        sizes = self.blocks(n)
        for offset, b in zip(np.cumsum((0,) + sizes)[:-1], sizes):
            if b >= 2:
                phases = np.zeros(n)
                phases[offset] = np.pi
                phases[offset + 1] = -np.pi
                yield phases


@dataclass(frozen=True)
class Grassmann(_Blocks):
    """H = U(k) x U(n - k) (or SO(k) x SO(n - k)), the stabilizer of a
    k-dimensional subspace: the space is a Grassmannian."""

    kind = "grassmann"
    kappa = 1.0
    theta = np.pi
    theta_units = "intrinsic"
    w = 1.0
    k: int
    # n of the two-block partition it was built from, checked against G
    size: Optional[int] = field(default=None, compare=False, repr=False)

    def validate_for(self, group):
        if self.size not in (None, group.n):
            raise InvalidArgumentError("partition must sum to n")
        if not (0 < self.k < group.n):
            raise InvalidArgumentError("grassmann needs 0 < k < n")

    @property
    def label(self) -> str:
        return f"grassmann({self.k})"

    def blocks(self, n: int) -> Tuple[int, ...]:
        return (self.k, n - self.k)

    def _frame(self, x):
        # the smaller side's columns: the first k, or past k = n / 2 the
        # last n - k, since a subspace and its complement have the same
        # nonzero principal angles
        k, n = self.k, x.shape[-1]
        return x[..., :k] if 2 * k <= n else x[..., k:]

    def exact_dists(self, a, b, norm):
        # the principal angles between the frames, each taken twice (the
        # complement element rotating one subspace onto the other has these
        # singular values)
        gram = np.einsum("...ji,...jl->...il", self._frame(a).conj(), self._frame(b))
        s = np.linalg.svd(gram, compute_uv=False)
        angles = np.arccos(np.clip(s, 0.0, 1.0))
        return norm.of_singular_values(np.repeat(angles, 2, axis=-1))

    def bracket_rows(self, x):
        # the projector E E* onto the span of the frame E and, for a
        # 2-frame (e, f), the wedge e f^T - f e^T, whose entries above the
        # diagonal are the Pluecker coordinates of the span (its sign on
        # SO(n) carries the orientation)
        x = np.asarray(x, dtype=complex)
        e, n = self._frame(x), x.shape[-1]
        rows = [np.einsum("mik,mjk->mij", e, e.conj())]
        if e.shape[-1] == 2:
            outer = e[:, :, 0, np.newaxis] * e[:, np.newaxis, :, 1]
            rows.append(outer - outer.transpose(0, 2, 1))
        return np.concatenate(rows, axis=1).reshape(len(x), len(rows) * n * n).view(float)

    def sin2_bounds(self, fa, fb, group: GroupSpec):
        # For the m = min(k, n - k) columns of the frames, e1 = <P_a, P_b>
        # = ||E_a* E_b||_F^2 sums the squared cosines c_i of the principal
        # angles, s = m - e1 their sin^2 (the chordal distance of Conway,
        # Hardin and Sloane) and d is the largest angle, so sin^2 d lies in
        # [s/m, s].  For m = 2, <W_a, W_b> = 2 det(E_a* E_b) (Cauchy-Binet)
        # gives e2 = |det(E_a* E_b)|^2 = c_1 c_2 too, so sin^2 d =
        # 1 - (e1 - sqrt(e1^2 - 4 e2)) / 2 to rounding (see _ROOT_FLOOR;
        # up to about 1e-3 in angle where the two angles meet near d = 0 or
        # d = pi/2, where arcsin of the square root is steep).  exact_dists
        # reads the singular values of the same E_a* E_b, so the bracket
        # holds also for points unitary only to TOL_ALG.
        m = min(self.k, group.n - self.k)
        cols = 2 * group.n ** 2  # the floats of the projector
        e1 = fa[:, :cols] @ fb[:, :cols].T
        if m != 2:
            s = m - e1
            return (s - _BRACKET_SLACK) / m, s + _BRACKET_SLACK
        h = fa[:, cols:].view(complex).conj() @ fb[:, cols:].view(complex).T
        root = np.sqrt(np.maximum(e1 * e1 - (h.real ** 2 + h.imag ** 2), 0.0))
        x = 1.0 - (e1 - root) / 2
        slack = (_BRACKET_SLACK + 8 * _BRACKET_SLACK / np.maximum(root, _ROOT_FLOOR)) / 2
        return x - slack, x + slack

    def diameter(self, group, norm):
        # a frame carried onto its orthogonal complement: every angle pi/2
        m = min(self.k, group.n - self.k)
        return norm.of_singular_values(np.full(2 * m, np.pi / 2))


@dataclass(frozen=True)
class BlockDiagonal(_Blocks):
    """H = U(b_1) x ... x U(b_r) (or the SO blocks) for a partition of n
    into other than two blocks (two blocks are the Grassmann kind)."""

    kind = "block_diagonal"
    theta = 2.0
    theta_units = "extrinsic"
    partition: Tuple[int, ...]

    def validate_for(self, group):
        if sum(self.partition) != group.n:
            raise InvalidArgumentError("partition must sum to n")

    @property
    def label(self) -> str:
        return "block_diagonal(" + "+".join(map(str, self.partition)) + ")"

    def blocks(self, n: int) -> Tuple[int, ...]:
        return self.partition


@dataclass(frozen=True)
class TensorFactor(_Blocks):
    """H = {diag(h, ..., h)}: m identical k-by-k diagonal blocks, mk = n."""

    kind = "tensor_factor"
    theta = 2.0
    theta_units = "extrinsic"
    m: int
    k: int

    def validate_for(self, group):
        if self.m * self.k != group.n:
            raise InvalidArgumentError("tensor dims must multiply to n")

    @property
    def label(self) -> str:
        return f"tensor_factor({self.m}x{self.k})"

    def dim_in(self, group: GroupSpec) -> int:
        return GroupSpec(group.kind, self.k).dim

    def blocks(self, n: int) -> Tuple[int, ...]:
        return (self.k,) * self.m

    def project_H(self, x: np.ndarray) -> np.ndarray:
        k, m = self.k, self.m
        blocks = [x[..., i * k : (i + 1) * k, i * k : (i + 1) * k] for i in range(m)]
        avg = sum(blocks) / m
        out = np.zeros_like(x)
        for i in range(m):
            out[..., i * k : (i + 1) * k, i * k : (i + 1) * k] = avg
        return out

    def witness_phases(self, group, rng, search_budget):
        # the torus of the subgroup is the diagonals that repeat with period
        # k, so the first block's pattern is tiled across all m blocks (the
        # later SO(n) rotations lie outside the first block)
        phases = next(iter(super().witness_phases(group, rng, search_budget)), None)
        if phases is not None:
            yield np.tile(phases[: self.k], self.m)


@dataclass(frozen=True)
class HomSpace:
    """A homogeneous space M = G/H with a reference norm for its metric;
    HomSpace(G) is the bare group G = G/{e}."""

    group: GroupSpec
    subgroup: SubgroupSpec = Trivial()
    norm: NormSpec = OPERATOR

    def __post_init__(self):
        self.subgroup.validate_for(self.group)
        if self.dim <= 0:
            raise InvalidArgumentError("quotient must have positive dimension")

    @property
    def n(self) -> int:
        return self.group.n

    @property
    def dim_H(self) -> int:
        return self.subgroup.dim_in(self.group)

    @property
    def dim(self) -> int:
        """Real dimension of the quotient manifold."""
        return self.group.dim - self.dim_H

    @property
    def bracket(self) -> SubgroupSpec:
        """The kind whose bracket bounds its distances: the subgroup's in
        the operator norm, the null bracket in any other."""
        return self.subgroup if self.norm.is_operator else _NO_BRACKET


@dataclass(frozen=True)
class SkewElement:
    """A tangent vector: skew-Hermitian (complex) or skew-symmetric (real),
    optionally tagged with the component it lives in ("full", "H" or "X")."""

    matrix: np.ndarray = field(compare=False)
    component: str = "full"

    def __post_init__(self):
        a = np.asarray(self.matrix)
        if not is_skew(a):
            raise InvalidArgumentError("matrix is not skew within tolerance")
        object.__setattr__(self, "matrix", a)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def _elements(group: GroupSpec, x, stack: bool = True) -> np.ndarray:
    """x as a stack of elements of group, shape (m, n, n), or without stack
    one (n, n) matrix.  Raises InvalidArgumentError unless every matrix is
    finite and unitary within TOL_ALG in the operator norm and, on SO(n),
    real (a complex array gives its real part) with determinant one."""
    try:
        a = np.asarray(x)
    except ValueError as exc:  # a ragged sequence of matrices
        raise InvalidArgumentError(f"matrices of different shapes: {exc}") from exc
    n = group.n
    if stack and a.size == 0:
        a = a.reshape(0, n, n)
    if a.ndim != (3 if stack else 2) or a.shape[-2:] != (n, n):
        raise InvalidArgumentError(f"expected {'m ' if stack else ''}({n}, {n}) matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidArgumentError("matrix has non-finite entries")
    defect = _adjoint(a) @ a - np.eye(n)
    # the Frobenius norm bounds the operator norm, so only the matrices it
    # does not clear need an SVD
    loose = np.linalg.norm(defect, axis=(-2, -1)) > TOL_ALG
    if np.any(loose) and np.any(opnorm(defect[loose]) > TOL_ALG):
        raise InvalidArgumentError("matrix is not unitary within tolerance")
    if group.kind == "SO":
        if np.iscomplexobj(a) and np.any(opnorm(a.imag) > TOL_ALG):
            raise InvalidArgumentError("SO element must be real")
        a = a.real
        if np.any(np.abs(np.linalg.det(a) - 1.0) > 1e-8):
            raise InvalidArgumentError("SO element must have determinant one")
    return a


@dataclass(frozen=True)
class GroupElement:
    """An element of U(n) or SO(n); checked on construction (_elements)."""

    matrix: np.ndarray = field(compare=False)
    group: GroupSpec

    def __post_init__(self):
        object.__setattr__(self, "matrix", _elements(self.group, self.matrix, stack=False))


def _mat(x) -> np.ndarray:
    """Accept a wrapper or a bare array."""
    return x.matrix if hasattr(x, "matrix") else np.asarray(x)


def haar_samples(group: GroupSpec, rng, m: int) -> np.ndarray:
    """m Haar-distributed samples of U(n) or SO(n), shape (m, n, n).

    Gaussian QR with the R-diagonal phase (resp. sign) correction; for SO(n)
    a determinant of -1 is fixed by negating one column.  The normal
    variates are drawn in the order of m single draws (for U(n): the real
    then the imaginary part of each sample), so the samples and the
    generator's next state equal those of m calls of haar_sample.
    """
    rng = np.random.default_rng(rng)
    n = group.n
    if group.is_complex:
        g = rng.standard_normal((m, 2, n, n))
        z = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r, axis1=1, axis2=2)
        q = q * (d / np.abs(d))[:, np.newaxis, :]
    else:
        q, r = np.linalg.qr(rng.standard_normal((m, n, n)))
        q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, np.newaxis, :]
        q[np.linalg.det(q) < 0, :, 0] *= -1
    return _elements(group, q)


def haar_sample(group: GroupSpec, rng) -> GroupElement:
    """One Haar-distributed sample of U(n) or SO(n) (see haar_samples)."""
    return GroupElement(haar_samples(group, rng, 1)[0], group)


def _skew_gaussian(group: GroupSpec, rng) -> np.ndarray:
    n = group.n
    if group.is_complex:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        a = rng.standard_normal((n, n))
    return 0.5 * (a - a.conj().T)


def tangent_samples(space: HomSpace, component: str, radius, rng, m: int) -> np.ndarray:
    """m random skew elements of the component ("full", "H" or "X"), shape
    (m, n, n), each with operator norm uniform on (0, radius]; radius is a
    scalar or one value per element.

    Per element the generator gives the Gaussian matrix of _skew_gaussian
    (real, then imaginary part) and then the uniform norm fraction, in the
    order of m single draws; the projection and the scaling are batched.
    """
    if np.any(np.asarray(radius) <= 0):
        raise InvalidArgumentError("radius must be positive")
    if component not in ("full", "H", "X"):
        raise InvalidArgumentError(f"unknown component {component!r}")
    if component == "H" and space.dim_H == 0:
        raise InvalidArgumentError("component H has dimension 0")
    rng = np.random.default_rng(rng)
    n = space.n
    parts = 2 if space.group.is_complex else 1
    g = np.empty((m, parts, n, n))
    frac = np.empty(m)
    tiny = np.nextafter(0.0, 1.0)
    for i in range(m):
        rng.standard_normal(out=g[i])
        frac[i] = rng.uniform(tiny, 1.0)
    a = g[:, 0] + 1j * g[:, 1] if parts == 2 else g[:, 0]
    x = 0.5 * (a - _adjoint(a))
    if component != "full":
        h = space.subgroup.project_H(x)
        x = h if component == "H" else x - h
    return x * (radius * frac / opnorm(x))[:, np.newaxis, np.newaxis]


def tangent_sample(space: HomSpace, component: str, radius: float, rng) -> SkewElement:
    """One random skew element of the component (see tangent_samples)."""
    return SkewElement(tangent_samples(space, component, radius, rng, 1)[0], component)


def _project_H_mat(space: HomSpace, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection (trace inner product) of a skew x onto the
    subalgebra, via the closed form of the subgroup's kind."""
    n = space.n
    if x.shape[-2:] != (n, n):
        raise InvalidArgumentError(f"expected shape ({n}, {n}), got {x.shape}")
    return space.subgroup.project_H(x)


def project_H(space: HomSpace, x) -> SkewElement:
    """Orthogonal projection onto the subalgebra of the subgroup."""
    return SkewElement(_project_H_mat(space, _mat(x)), "H")


def project_X(space: HomSpace, x) -> SkewElement:
    """Orthogonal projection onto the complement of the subalgebra."""
    a = _mat(x)
    return SkewElement(a - _project_H_mat(space, a), "X")


def skew_basis(group: GroupSpec) -> list:
    """Orthonormal basis (trace inner product) of u(n) or so(n)."""
    n = group.n
    basis = []
    if group.is_complex:
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[j, j] = 1j
            basis.append(e)
    for j in range(n):
        for l in range(j + 1, n):
            e = np.zeros((n, n), dtype=complex if group.is_complex else float)
            e[j, l] = 1 / np.sqrt(2)
            e[l, j] = -1 / np.sqrt(2)
            basis.append(e)
            if group.is_complex:
                e2 = np.zeros((n, n), dtype=complex)
                e2[j, l] = 1j / np.sqrt(2)
                e2[l, j] = 1j / np.sqrt(2)
                basis.append(e2)
    assert len(basis) == group.dim
    return basis


def component_basis(space: HomSpace, component: str) -> list:
    """Orthonormal basis of the subalgebra ("H") or its complement ("X"),
    obtained by projecting and re-orthonormalizing the ambient basis."""
    full = skew_basis(space.group)
    dim = space.dim_H if component == "H" else space.dim
    mats = []
    for b in full:
        p = _project_H_mat(space, b)
        mats.append(p if component == "H" else b - p)
    vecs = np.array([m.ravel() for m in mats])
    # real-linear orthonormalization via SVD over the real representation
    rv = np.concatenate([vecs.real, vecs.imag], axis=1)
    u, s, vt = np.linalg.svd(rv, full_matrices=False)
    keep = s > 1e-9
    assert int(np.sum(keep)) == dim, (int(np.sum(keep)), dim)
    n = space.n
    out = []
    for row in vt[keep]:
        m = (row[: n * n] + 1j * row[n * n :]).reshape(n, n)
        if not space.group.is_complex:
            m = m.real
        out.append(m)
    return out
