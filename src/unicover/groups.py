"""Group and subgroup descriptors, Haar and tangent sampling, and the
orthogonal projections onto a subalgebra and its complement.

Supported subgroups of U(n) / SO(n): trivial, special (determinant one),
block-diagonal for a given partition of n, tensor-factor (m identical k-by-k
diagonal blocks, mk = n) and the Grassmann case (block-diagonal with two
blocks [k, n-k]); a space built on a two-block block-diagonal subgroup holds
it as the Grassmann case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .matcore import (
    OPERATOR,
    InvalidArgumentError,
    NormSpec,
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
    """A closed connected subgroup, identified structurally."""

    kind: str  # trivial | special | block_diagonal | tensor_factor | grassmann
    partition: Optional[Tuple[int, ...]] = None  # block_diagonal
    m: Optional[int] = None  # tensor_factor
    k: Optional[int] = None  # tensor_factor / grassmann

    def __post_init__(self):
        kinds = ("trivial", "special", "block_diagonal", "tensor_factor", "grassmann")
        if self.kind not in kinds:
            raise InvalidArgumentError(f"unknown subgroup kind {self.kind!r}")
        if self.kind == "block_diagonal":
            if not self.partition or any(b < 1 for b in self.partition):
                raise InvalidArgumentError("block sizes must be positive")
            object.__setattr__(self, "partition", tuple(self.partition))
        if self.kind == "tensor_factor" and (not self.m or not self.k):
            raise InvalidArgumentError("tensor_factor needs m and k")
        if self.kind == "grassmann" and not self.k:
            raise InvalidArgumentError("grassmann needs k")

    @classmethod
    def trivial(cls):
        return cls("trivial")

    @classmethod
    def special(cls):
        return cls("special")

    @classmethod
    def block_diagonal(cls, partition: Sequence[int]):
        return cls("block_diagonal", partition=tuple(partition))

    @classmethod
    def tensor_factor(cls, m: int, k: int):
        return cls("tensor_factor", m=m, k=k)

    @classmethod
    def grassmann(cls, k: int):
        return cls("grassmann", k=k)

    def blocks(self, n: int) -> Tuple[int, ...]:
        """Block partition of C^n (or R^n) fixed by the subgroup, when the
        subgroup is of block type."""
        if self.kind == "block_diagonal":
            return self.partition
        if self.kind == "grassmann":
            return (self.k, n - self.k)
        if self.kind == "tensor_factor":
            return (self.k,) * self.m
        raise InvalidArgumentError(f"{self.kind} subgroup has no block structure")

    def validate_for(self, group: GroupSpec) -> None:
        n = group.n
        if self.kind == "block_diagonal" and sum(self.partition) != n:
            raise InvalidArgumentError("partition must sum to n")
        if self.kind == "tensor_factor" and self.m * self.k != n:
            raise InvalidArgumentError("tensor dims must multiply to n")
        if self.kind == "grassmann" and not (0 < self.k < n):
            raise InvalidArgumentError("grassmann needs 0 < k < n")
        if self.kind == "special" and group.kind == "SO":
            raise InvalidArgumentError("SO(n) already has determinant one")

    def dim_in(self, group: GroupSpec) -> int:
        """Real dimension of the subgroup (closed-form table)."""
        self.validate_for(group)
        n = group.n
        if self.kind == "trivial":
            return 0
        if self.kind == "special":
            return group.dim - 1
        if self.kind == "tensor_factor":
            return GroupSpec(group.kind, self.k).dim
        sizes = self.blocks(n)
        # an SO(1) block is the trivial group and contributes no dimension
        min_b = 2 if group.kind == "SO" else 1
        return sum(GroupSpec(group.kind, b).dim for b in sizes if b >= min_b)


@dataclass(frozen=True)
class HomSpace:
    """A homogeneous space M = G/H with a reference norm for its metric."""

    group: GroupSpec
    subgroup: SubgroupSpec
    norm: NormSpec = OPERATOR

    def __post_init__(self):
        self.subgroup.validate_for(self.group)
        sub = self.subgroup
        if sub.kind == "block_diagonal" and len(sub.partition) == 2:
            # two blocks fix a subspace and its complement: a Grassmannian
            object.__setattr__(self, "subgroup", SubgroupSpec.grassmann(sub.partition[0]))
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


@dataclass(frozen=True)
class GroupElement:
    """An element of U(n) or SO(n); unitarity checked on construction."""

    matrix: np.ndarray = field(compare=False)
    group: GroupSpec

    def __post_init__(self):
        a = np.asarray(self.matrix)
        n = self.group.n
        if a.shape != (n, n):
            raise InvalidArgumentError(f"expected shape ({n}, {n}), got {a.shape}")
        if opnorm(a.conj().T @ a - np.eye(n)) > 1e-10:
            raise InvalidArgumentError("matrix is not unitary within tolerance")
        if self.group.kind == "SO":
            if np.iscomplexobj(a) and opnorm(a.imag) > 1e-10:
                raise InvalidArgumentError("SO element must be real")
            a = a.real if np.iscomplexobj(a) else a
            if abs(np.linalg.det(a) - 1.0) > 1e-8:
                raise InvalidArgumentError("SO element must have determinant one")
        object.__setattr__(self, "matrix", a)


def _mat(x) -> np.ndarray:
    """Accept a wrapper or a bare array."""
    return x.matrix if hasattr(x, "matrix") else np.asarray(x)


def haar_sample(group: GroupSpec, rng) -> GroupElement:
    """One Haar-distributed sample of U(n) or SO(n).

    Gaussian QR with the R-diagonal phase (resp. sign) correction; for SO(n)
    a determinant of -1 is fixed by negating one column.
    """
    rng = np.random.default_rng(rng)
    n = group.n
    if group.is_complex:
        z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diag(r)
        q = q * (d / np.abs(d))
    else:
        z = rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
    return GroupElement(q, group)


def _skew_gaussian(group: GroupSpec, rng) -> np.ndarray:
    n = group.n
    if group.is_complex:
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    else:
        a = rng.standard_normal((n, n))
    return 0.5 * (a - a.conj().T)


def tangent_sample(space: HomSpace, component: str, radius: float, rng) -> SkewElement:
    """Random skew element in the requested component ("full", "H" or "X"),
    with operator norm uniform on (0, radius]."""
    if radius <= 0:
        raise InvalidArgumentError("radius must be positive")
    rng = np.random.default_rng(rng)
    for _ in range(100):
        x = _skew_gaussian(space.group, rng)
        if component == "H":
            x = _project_H_mat(space, x)
        elif component == "X":
            x = x - _project_H_mat(space, x)
        elif component != "full":
            raise InvalidArgumentError(f"unknown component {component!r}")
        nrm = opnorm(x)
        if nrm > 1e-12:
            break
    else:
        raise InvalidArgumentError("component appears to be trivial")
    target = radius * rng.uniform(np.nextafter(0.0, 1.0), 1.0)
    return SkewElement(x * (target / nrm), component)


def _project_H_mat(space: HomSpace, x: np.ndarray) -> np.ndarray:
    """Orthogonal projection (trace inner product) of a skew x onto the
    subalgebra, via the closed forms of the supported subgroup kinds."""
    n = space.n
    if x.shape != (n, n):
        raise InvalidArgumentError(f"expected shape ({n}, {n}), got {x.shape}")
    sub = space.subgroup
    if sub.kind == "trivial":
        return np.zeros_like(x)
    if sub.kind == "special":
        # su(n) inside u(n): remove the trace part
        return x - (np.trace(x) / n) * np.eye(n, dtype=x.dtype)
    if sub.kind == "tensor_factor":
        k, m = sub.k, sub.m
        blocks = [x[i * k : (i + 1) * k, i * k : (i + 1) * k] for i in range(m)]
        avg = sum(blocks) / m
        out = np.zeros_like(x)
        for i in range(m):
            out[i * k : (i + 1) * k, i * k : (i + 1) * k] = avg
        return out
    # block_diagonal and grassmann: zero the off-diagonal blocks
    sizes = sub.blocks(n)
    out = np.zeros_like(x)
    offset = 0
    for b in sizes:
        out[offset : offset + b, offset : offset + b] = x[
            offset : offset + b, offset : offset + b
        ]
        offset += b
    return out


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
