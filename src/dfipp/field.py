"""Prime-field arithmetic, Lagrange interpolation, and low-degree extensions.

A tensor X in F^(k^m) has a unique extension P_X : F^m -> F of individual
degree <= k-1 agreeing with X on the embedded grid [k]^m.  [k] is embedded
into F as {0, ..., k-1} (zero-based, so Lagrange nodes are contiguous).

Two evaluators: lde_eval dots one tensor with a memoised basis row, the form
the PVAL enumeration also solves with; lde_eval_batch, which the protocol
sessions use, packs a batch of tensors into one int and contracts it once per
point, building no row.

Field elements are plain ints in [0, p).  Evaluation points are tuples of
ints.  Everything here is immutable after construction and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from operator import mul
from struct import Struct
from typing import Iterable, Sequence

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set covers all n < 3.3 * 10^24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def uniform_draws(rng, n: int, count: int) -> list[int]:
    """[rng.randrange(n) for _ in range(count)] without a randrange call per draw: on a
    random.Random, the same values and the same final getstate(), since randrange(n)
    also redraws getrandbits(n.bit_length()) until it is below n.  n <= 0 raises
    ValueError, as randrange does; count 0 gives []."""
    if n <= 0:
        raise ValueError(f"empty range for uniform_draws (n = {n})")
    getrandbits, k = rng.getrandbits, n.bit_length()
    out = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        out.append(r)
    return out


@dataclass(frozen=True, slots=True)
class PrimeField:
    """The field F_p for a prime modulus p (up to 64 bits); bits is the canonical
    fixed-width encoding of an element, for cost accounting."""

    modulus: int
    bits: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not prime")
        if self.modulus.bit_length() > 64:
            raise ValueError("modulus must fit in 64 bits")
        object.__setattr__(self, "bits", max(1, (self.modulus - 1).bit_length()))

    def rand_point(self, m: int, rng) -> tuple[int, ...]:
        return tuple(uniform_draws(rng, self.modulus, m))

    def rand_points(self, t: int, m: int, rng) -> tuple[tuple[int, ...], ...]:
        """t rand_point(m, rng) calls in one draw: the same points, then the same state."""
        flat = uniform_draws(rng, self.modulus, t * m)
        return tuple(tuple(flat[i * m:(i + 1) * m]) for i in range(t))


def cell_index(coords: Iterable[int], k: int) -> int:
    """Flat index of a cell of [k]^m; the first coordinate is the most significant."""
    idx = 0
    for c in coords:
        idx = idx * k + c
    return idx


def cell_coords(idx: int, k: int, m: int) -> tuple[int, ...]:
    """The m coordinates of flat cell index idx, the inverse of cell_index."""
    out = [0] * m
    for t in range(m - 1, -1, -1):
        idx, out[t] = divmod(idx, k)
    return tuple(out)


@lru_cache(maxsize=4096)
def _bary_weights(p: int, k: int) -> tuple[int, ...]:
    # w_i = prod_{j != i} (i - j)^{-1} mod p over nodes 0..k-1
    weights = []
    for i in range(k):
        acc = 1
        for j in range(k):
            if j != i:
                acc = acc * (i - j) % p
        weights.append(pow(acc, -1, p))
    return tuple(weights)


@lru_cache(maxsize=65536)
def lagrange_basis(p: int, k: int, t: int) -> tuple[int, ...]:
    """Evaluations (L_0(t), ..., L_{k-1}(t)) of the Lagrange basis over nodes 0..k-1,
    L_i(t) = w_i * prod_{j != i} (t - j) from prefix and suffix products: no inversion."""
    if not 1 <= k <= p:
        raise ValueError(f"k={k} exceeds field size {p}")
    t %= p
    prefix = [1]  # prefix[i] = prod_{j < i} (t - j)
    for j in range(k - 1):
        prefix.append(prefix[-1] * (t - j) % p)
    weights = _bary_weights(p, k)
    out, suffix = [0] * k, 1  # suffix = prod_{j > i} (t - j)
    for i in range(k - 1, -1, -1):
        out[i] = weights[i] * prefix[i] * suffix % p
        suffix = suffix * (t - i) % p
    return tuple(out)


def lagrange_eval_univariate(field: PrimeField, values: Sequence[int], t: int) -> int:
    """Evaluate the unique degree-(k-1) polynomial through {(i, values[i])} at t."""
    return sum(map(mul, lagrange_basis(field.modulus, len(values), t), values)) % field.modulus


@dataclass(frozen=True)
class InputTensor:
    """An element of F^(k^m), flat data in lexicographic cell order.

    The first coordinate is the most significant, so the row X[i,.] (the
    slice fixing the first coordinate, as used by folding) is contiguous:
    data[i*k^(m-1) : (i+1)*k^(m-1)].
    """

    field: PrimeField
    k: int
    m: int
    data: tuple[int, ...]

    def __post_init__(self):
        if self.k > self.field.modulus:
            raise ValueError("LDE needs k distinct nodes: k exceeds field size")
        if len(self.data) != self.k ** self.m:
            raise ValueError(f"expected {self.k ** self.m} cells, got {len(self.data)}")
        if any(not 0 <= v < self.field.modulus for v in self.data):
            raise ValueError(f"cells must be field elements in [0, {self.field.modulus})")

    @property
    def n(self) -> int:
        return self.k ** self.m

    def cell(self, coords: Sequence[int]) -> int:
        return self.data[cell_index(coords, self.k)]

    def row(self, i: int) -> tuple[int, ...]:
        step = self.k ** (self.m - 1)
        return self.data[i * step:(i + 1) * step]

    @staticmethod
    def random(field: PrimeField, k: int, m: int, rng) -> "InputTensor":
        return InputTensor(field, k, m, tuple(uniform_draws(rng, field.modulus, k ** m)))


def basis_row(field: PrimeField, k: int, m: int, point: Sequence[int]) -> tuple[int, ...]:
    """Coefficient vector c with P_X(point) = sum_cell c[cell] * X[cell] mod p.

    The Kronecker product of the per-coordinate Lagrange basis vectors in cell
    order: lde_eval and every enumeration-oracle test is one dot with it.
    Built suffix first, row(pt) = L(pt[0]) (x) row(pt[1:]), and memoised on
    (p, k, point), so a point's row also keeps the rows at its tails.
    """
    if len(point) != m:
        raise ValueError(f"point has {len(point)} coordinates, tensor has {m}")
    return _kron_row(field.modulus, k, tuple(point))


@lru_cache(maxsize=1024)  # rows at claim points, for lde_eval and the PVAL enumeration
def _kron_row(p: int, k: int, point: tuple[int, ...]) -> tuple[int, ...]:
    if not point:
        return (1,)
    tail = _kron_row(p, k, point[1:])
    return tuple([b * r % p for b in lagrange_basis(p, k, point[0]) for r in tail])


def lde_eval(X: InputTensor, point: Sequence[int]) -> int:
    """P_X(point) = sum_{i in [k]^m} X_i * prod_t L_{i_t}(point_t), one basis-row dot."""
    return sum(map(mul, basis_row(X.field, X.k, X.m, point), X.data)) % X.field.modulus


# (bits, struct code) of the standard-size unsigned ints, narrowest first;
# PrimeField caps p at 64 bits
_WORDS = ((8, "B"), (16, "H"), (32, "I"), (64, "Q"))


@lru_cache(maxsize=256)
def _packing(p: int, k: int, m: int, D: int):
    """How lde_eval_batch packs D tensors of F^(k^m): the Struct that writes their
    interleaved cells as little-endian zero-padded slots, the bit offsets and the
    mask of the D slots left after the last contraction, and per axis, first axis
    first, the bits and the mask of one of its k blocks."""
    item, code = next((b, c) for b, c in _WORDS if b >= (p - 1).bit_length())
    width = -(-(k ** m * (p - 1) ** (m + 1)).bit_length() // item) * item
    layout = Struct("<" + f"{code}{(width - item) // 8}x" * (k ** m * D))
    blocks = tuple((b, (1 << b) - 1) for b in (width * D * k ** j
                                               for j in range(m - 1, -1, -1)))
    return layout, range(0, width * D, width), (1 << width) - 1, blocks


def lde_eval_batch(field: PrimeField, k: int, m: int, tensors: Sequence[Sequence[int]],
                   points: Iterable[Sequence[int]]) -> list[list[int]]:
    """out[d][j] = P_{tensors[d]}(points[j]) for flat tensors of F^(k^m), cells in [0, p).

    The D tensors ride in one int, one W-bit slot per (cell, tensor), cell-major
    and tensor-minor, so the k blocks of the first axis are k contiguous bit
    ranges.  A point contracts that axis m times, P = sum_i L_i(t) * block_i,
    for every tensor at once.  No slot is reduced before the end; W holds
    k^m (p-1)^(m+1), which bounds every slot, so no slot carries into the next.
    k = 2 uses the closed form L = (1 - t, t).  No basis row is built.
    """
    p, D = field.modulus, len(tensors)
    if any(len(data) != k ** m for data in tensors):
        raise ValueError(f"every tensor needs {k ** m} cells")
    layout, slots, slot_mask, blocks = _packing(p, k, m, D)
    start = int.from_bytes(layout.pack(*chain.from_iterable(zip(*tensors))), "little")
    values = []
    for pt in points:
        if len(pt) != m:
            raise ValueError(f"point has {len(pt)} coordinates, tensor has {m}")
        P = start
        if k == 2:
            for t, (b, mask) in zip(pt, blocks):
                P = (P & mask) * ((1 - t) % p) + (P >> b) * (t % p)
        else:
            for t, (b, mask) in zip(pt, blocks):
                Q = 0
                for i, c in enumerate(lagrange_basis(p, k, t)):
                    Q += ((P >> i * b) & mask) * c
                P = Q
        for s in slots:
            values.append((P >> s & slot_mask) % p)
    return [values[d::D] for d in range(D)]  # values are point-major, tensor-minor
