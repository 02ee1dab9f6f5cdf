"""Distribution models: explicit PMFs, product distributions, white-box
sampling circuits, dispersion, marginals, granularisation, and the
granular-extension row map.

A Pmf holds integer weights over one common denominator, and every kernel
here (dispersion, marginals, granularisation, TV distance, the sampler
table) works on those integers; masses and results leave as exact
Fractions.  Samplers use a 64-bit fixed-point cumulative table, derived
exactly from the weights, so (seed -> draws) is reproducible.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, reduce
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Optional, Sequence

from .field import cell_coords, cell_index, uniform_draws
from .tensors import BudgetExceeded

_TABLE_BITS = 64
# the most circuit inputs an exhaustive scan over all 2^ell of them may take
CIRCUIT_INPUT_BUDGET = 20
# per bit b: byte v -> ASCII "1" if bit b of v is set, else "0"
_BIT_CHARS = tuple(bytes(0x31 if v >> b & 1 else 0x30 for v in range(256)) for b in range(8))
# per bit b: ASCII "0" -> byte 0, "1" -> byte 2^b
_CHAR_BITS = tuple(bytes.maketrans(b"01", bytes((0, 1 << b))) for b in range(8))


def _bit_planes(xs: Sequence[int], ell: int) -> list[int]:
    """Plane j, for j < ell, is the int whose bit i is bit j of xs[i]."""
    size = 1 << ell
    if xs == range(size):  # all inputs in order: plane j repeats 2^j zeros, 2^j ones
        planes = []
        for j in range(ell):
            half = 1 << j
            plane, period = ((1 << half) - 1) << half, 2 * half
            while period < size:
                plane |= plane << period
                period *= 2
            planes.append(plane)
        return planes
    width = (ell + 7) // 8
    raw = b"".join([(x & (size - 1)).to_bytes(width, "little") for x in xs])
    # one byte per x, as "0"/"1" text with xs[-1] first
    return [int(raw[j >> 3::width].translate(_BIT_CHARS[j & 7])[::-1], 2) for j in range(ell)]


def _from_bit_planes(planes: Sequence[int], n: int) -> list[int]:
    """The inverse of _bit_planes over n values: value i is sum_j (bit i of planes[j]) << j."""
    out = [0] * n
    for g in range(0, len(planes), 8):
        acc = 0
        for b, plane in enumerate(planes[g:g + 8]):
            acc |= int.from_bytes(format(plane, f"0{n}b").encode().translate(_CHAR_BITS[b]), "big")
        group = acc.to_bytes(n, "little")  # byte i holds value i's bits g..g+7
        out = list(group) if g == 0 else [v | byte << g for v, byte in zip(out, group)]
    return out


class Pmf:
    """A distribution over [n] (optionally shaped as [k]^m in flat layout).

    Cell i has mass weights[i] / denom, kept in lowest terms: denom > 0 and
    gcd(denom, *weights) == 1, so two Pmfs are equal iff their weights and
    denominators are.  `masses` gives the same values as Fractions.
    """

    __slots__ = ("weights", "denom", "shape", "_masses", "_cum")

    def __init__(self, masses: Sequence, shape: Optional[tuple[int, int]] = None):
        # Fraction(v) would copy every Fraction; keep those as they are
        ms = [v if isinstance(v, Fraction) else Fraction(v) for v in masses]
        denom = math.lcm(*(v.denominator for v in ms))
        self._set([v.numerator * (denom // v.denominator) for v in ms], denom, shape)

    @classmethod
    def from_weights(cls, weights: Sequence[int], denom: int,
                     shape: Optional[tuple[int, int]] = None) -> "Pmf":
        """The Pmf with mass weights[i] / denom on cell i, in lowest terms."""
        self = object.__new__(cls)
        self._set(weights, denom, shape)
        return self

    def _set(self, weights: Sequence[int], denom: int, shape) -> None:
        weights = tuple(weights)
        if denom <= 0:
            raise ValueError(f"denominator {denom} is not positive")
        if any(w < 0 for w in weights):
            raise ValueError("negative mass")
        total = sum(weights)
        if total != denom:
            raise ValueError(f"masses sum to {Fraction(total, denom)}, not 1")
        if shape is not None:
            k, m = shape
            if k ** m != len(weights):
                raise ValueError(f"shape {shape} does not match {len(weights)} masses")
        g = math.gcd(*weights)  # divides denom, since the weights sum to it
        self.weights = tuple(w // g for w in weights) if g > 1 else weights
        self.denom = denom // g
        self.shape = shape
        self._masses = None
        self._cum = None

    @property
    def masses(self) -> tuple[Fraction, ...]:
        if self._masses is None:
            self._masses = tuple(Fraction(w, self.denom) for w in self.weights)
        return self._masses

    @property
    def n(self) -> int:
        return len(self.weights)

    @staticmethod
    def uniform(n: int, shape=None) -> "Pmf":
        return Pmf.from_weights([1] * n, n, shape=shape)

    @staticmethod
    def point_mass(i: int, n: int, shape=None) -> "Pmf":
        return Pmf.from_weights([int(j == i) for j in range(n)], 1, shape=shape)

    @staticmethod
    def random_grains(n: int, grains: int, rng, shape=None) -> "Pmf":
        """Drop `grains` units of mass 1/grains on uniformly drawn cells."""
        counts = [0] * n
        for i in uniform_draws(rng, n, grains):
            counts[i] += 1
        return Pmf.from_weights(counts, grains, shape=shape)

    def _table(self):
        """Entry i is floor((w_0 + ... + w_i) * 2^64 / denom); the last is 2^64."""
        if self._cum is None:
            denom = self.denom
            self._cum = [(c << _TABLE_BITS) // denom for c in accumulate(self.weights)]
        return self._cum

    def sample(self, rng) -> int:
        """Draw a flat index; deterministic given the rng state."""
        u = rng.getrandbits(_TABLE_BITS)
        return bisect_right(self._table(), u)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Pmf) and other.denom == self.denom
                and other.weights == self.weights)

    def __repr__(self) -> str:
        return f"Pmf({[str(v) for v in self.masses]}, shape={self.shape})"


class ProductDistribution:
    """D_1 x ... x D_m over [k]^m; the joint mass of a cell is the factor product."""

    __slots__ = ("factors", "k", "m")

    def __init__(self, factors: Sequence[Pmf]):
        ks = {f.n for f in factors}
        if len(ks) != 1:
            raise ValueError("all factors must share the support size k")
        self.factors = tuple(factors)
        self.k = ks.pop()
        self.m = len(self.factors)

    @property
    def n(self) -> int:
        return self.k ** self.m

    @property
    def shape(self) -> tuple[int, int]:
        return self.k, self.m

    def joint_pmf(self) -> Pmf:
        weights, denom = [1], 1
        for f in self.factors:
            weights = [a * b for a in weights for b in f.weights]
            denom *= f.denom
        return Pmf.from_weights(weights, denom, shape=(self.k, self.m))

    def sample(self, rng) -> int:
        return cell_index([f.sample(rng) for f in self.factors], self.k)


@dataclass(frozen=True)
class SamplingCircuit:
    """An acyclic AND/XOR/NOT circuit mapping l input bits to an output index.

    Wires 0..n_inputs-1 are the inputs; gate g defines wire n_inputs+g.
    The output index is sum_j outputs[j] bit * 2^j (LSB first).
    """

    n_inputs: int
    gates: tuple[tuple, ...]  # ("AND", a, b) | ("XOR", a, b) | ("NOT", a)
    outputs: tuple[int, ...]

    def __post_init__(self):
        wires = self.n_inputs
        if wires < 0:
            raise ValueError("a circuit needs n_inputs >= 0")
        for gate in self.gates:
            op = gate[0] if gate else None
            if op not in ("AND", "XOR", "NOT") or len(gate) != (2 if op == "NOT" else 3):
                raise ValueError(f"unknown gate {gate}")
            if any(type(src) is not int or not 0 <= src < wires for src in gate[1:]):
                raise ValueError("gate inputs must reference earlier wires")
            wires += 1
        if any(type(w) is not int or not 0 <= w < wires for w in self.outputs):
            raise ValueError("outputs must reference wires")

    @property
    def n(self) -> int:
        """The number of output indices, 2^len(outputs)."""
        return 1 << len(self.outputs)

    def eval(self, x: int) -> int:
        return self.eval_many((x,))[0]

    def eval_many(self, xs: Iterable[int]) -> list[int]:
        """[self.eval(x) for x in xs], read from the truth table once it is built,
        else running each gate once over all of xs.

        Bitsliced: bit i of a register is one wire's value on xs[i], so AND
        and XOR are one big-int operation each, and NOT is XOR with the
        all-ones mask.  Only the low n_inputs bits of each x count.
        """
        xs = xs if isinstance(xs, (list, tuple, range)) else list(xs)
        table = self.__dict__.get("table")
        if table is not None:
            mask = len(table) - 1
            return [table[x & mask] for x in xs]
        if not xs:
            return []
        n_regs, steps, out_regs = self._schedule
        regs = _bit_planes(xs, self.n_inputs) + [(1 << len(xs)) - 1]
        regs += [0] * (n_regs - len(regs))
        for is_and, dst, a, b in steps:
            regs[dst] = regs[a] & regs[b] if is_and else regs[a] ^ regs[b]
        return _from_bit_planes([regs[r] for r in out_regs], len(xs))

    @cached_property
    def table(self) -> tuple[int, ...]:
        """eval(x) for every input x in order, from one bitsliced pass over them all.

        Built once per circuit and refused (BudgetExceeded) over
        CIRCUIT_INPUT_BUDGET inputs, before any evaluation.  Not a field, so ==
        and hash are unchanged.
        """
        if self.n_inputs > CIRCUIT_INPUT_BUDGET:
            raise BudgetExceeded(f"circuit arity {self.n_inputs} exceeds exhaustive "
                                 f"budget {CIRCUIT_INPUT_BUDGET}")
        return tuple(self.eval_many(range(1 << self.n_inputs)))

    @cached_property
    def _schedule(self) -> tuple[int, tuple[tuple[bool, int, int, int], ...], tuple[int, ...]]:
        """(register count, steps, output registers) of eval_many.

        Registers 0..n_inputs-1 start as the input planes and register
        n_inputs holds the all-ones mask.  Gates that no output depends on
        are dropped.  Step (is_and, dst, a, b) sets dst to a & b or a ^ b;
        a wire's register is reused once the wire has been read for the last
        time, so a call holds only the live wires.  Built once per circuit;
        not a field, so == and hash are unchanged.
        """
        ell, gates = self.n_inputs, self.gates
        live = set(self.outputs)
        for w in reversed(range(ell, ell + len(gates))):
            if w in live:
                live.update(gates[w - ell][1:])
        kept = [w for w in range(ell, ell + len(gates)) if w in live]
        last_read = {src: w for w in kept for src in gates[w - ell][1:]}
        last_read.update(dict.fromkeys(self.outputs, -1))  # outputs are never freed
        reg = {w: w for w in range(ell)}
        free: list[int] = []
        n_regs = ell + 1
        steps = []
        for w in kept:
            op, *srcs = gates[w - ell]
            a, b = reg[srcs[0]], reg[srcs[1]] if op != "NOT" else ell
            free.extend(reg[src] for src in set(srcs) if last_read[src] == w)
            if free:
                reg[w] = free.pop()
            else:
                reg[w], n_regs = n_regs, n_regs + 1
            steps.append((op == "AND", reg[w], a, b))
        return n_regs, tuple(steps), tuple(reg[w] for w in self.outputs)

    def sample(self, rng) -> int:
        return self.eval(rng.getrandbits(self.n_inputs))

    @staticmethod
    def identity(n_bits: int) -> "SamplingCircuit":
        return SamplingCircuit(n_bits, (), tuple(range(n_bits)))

    @staticmethod
    def from_tables(tables: Sequence[tuple[int, Sequence[int]]],
                    n_outputs: int) -> "SamplingCircuit":
        """Synthesize gates for truth tables f_t: {0,1}^l_t -> [2^b], side by side.

        Table t reads its own l_t >= 1 inputs, after those of earlier tables,
        and its b output bits lie above those of every later table.  Each
        output bit is the XOR of its minterms (minterms are disjoint, so
        XOR == OR); each minterm is an AND tree over the input literals.
        """
        n_inputs = sum(ell for ell, _ in tables)
        gates: list[tuple] = []

        def emit(gate) -> int:
            gates.append(gate)
            return n_inputs + len(gates) - 1

        outputs: list[int] = []
        offset = 0
        for ell, table in tables:
            neg = [emit(("NOT", offset + i)) for i in range(ell)]
            zero = emit(("AND", offset, neg[0]))  # constant 0
            minterm: dict[int, int] = {}
            group = []
            for j in range(n_outputs):
                acc = None
                for x in range(1 << ell):
                    if (table[x] >> j) & 1:
                        if x not in minterm:
                            lits = [offset + i if (x >> i) & 1 else neg[i] for i in range(ell)]
                            minterm[x] = reduce(lambda a, b: emit(("AND", a, b)), lits)
                        acc = minterm[x] if acc is None else emit(("XOR", acc, minterm[x]))
                group.append(zero if acc is None else acc)
            outputs[:0] = group
            offset += ell
        return SamplingCircuit(n_inputs, tuple(gates), tuple(outputs))


def circuit_pmf(C: SamplingCircuit) -> Pmf:
    """Exact output distribution, counted over C's truth table of all 2^l inputs."""
    counts = [0] * C.n
    for y in C.table:
        counts[y] += 1
    return Pmf.from_weights(counts, len(C.table))


@dataclass(frozen=True)
class DispersionReport:
    rho: Fraction
    dim: int
    cell: tuple[int, ...]


def dispersion_rho(D, shape: Optional[tuple[int, int]] = None) -> DispersionReport:
    """Largest ratio of a cell's mass to the average mass along any axis line.

    The law is D's exact one over [k]^m, read in `shape` (k, m), else in D's
    own: a Pmf's masses, a ProductDistribution's joint_pmf or a
    SamplingCircuit's circuit_pmf.  0/0 lines count as ratio 1, so the
    uniform distribution reports exactly 1 and every distribution over [k]^m
    reports at most k.  Lines are scanned axis by axis in ascending order of
    their first cell, and only a strictly larger ratio replaces the witness,
    whose cell is the line's first heaviest cell.
    """
    D = D.joint_pmf() if isinstance(D, ProductDistribution) else \
        circuit_pmf(D) if isinstance(D, SamplingCircuit) else D
    shape = shape or D.shape
    if shape is None or shape[0] ** shape[1] != D.n:
        raise ValueError(f"dispersion needs a shape of {D.n} cells, not {shape}")
    k, m = shape
    w = D.weights
    best_num, best_den = 1, 1  # the ratio k * w[top] / (line total)
    witness = (0, 0)
    for dim in range(m):
        lo = k ** (m - 1 - dim)  # stride of the varied coordinate
        for block in range(0, D.n, k * lo):
            for base in range(block, block + lo):
                line = w[base:base + k * lo:lo]
                total = sum(line)
                if total == 0:
                    continue
                top = max(line)
                if k * top * best_den > best_num * total:
                    best_num, best_den = k * top, total
                    witness = (dim, base + line.index(top) * lo)
    return DispersionReport(Fraction(best_num, best_den), witness[0],
                            cell_coords(witness[1], k, m))


def marginal_first(D: Pmf) -> Pmf:
    """Sum out the FIRST coordinate (the direction consumed by row folding)."""
    if D.shape is None or D.shape[1] < 2:
        raise ValueError("need a shaped PMF with m >= 2")
    k, m = D.shape
    step = k ** (m - 1)
    return Pmf.from_weights([sum(D.weights[u::step]) for u in range(step)], D.denom,
                            shape=(k, m - 1))


@dataclass(frozen=True)
class GranularitySet:
    """Granularities {a_i} of an 8n-grained distribution over [n+1]."""

    counts: tuple[int, ...]

    def __post_init__(self):
        n = len(self.counts) - 1
        if sum(self.counts) != 8 * n:
            raise ValueError("granularities must sum to 8n")
        if any(a < 2 for a in self.counts[:-1]):
            raise ValueError("a_i >= 2 required for i <= n")
        if self.counts[-1] < 0:
            raise ValueError("remainder must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.counts) - 1

    @property
    def total(self) -> int:
        return 8 * self.n

    def pmf(self) -> Pmf:
        return Pmf.from_weights(self.counts, self.total)


def granularise(p: Pmf) -> GranularitySet:
    """a_i = floor(6n*p_i) + 2 for i <= n; a_{n+1} absorbs the remainder to 8n."""
    n, denom = p.n, p.denom
    counts = [6 * n * w // denom + 2 for w in p.weights]
    counts.append(8 * n - sum(counts))
    return GranularitySet(tuple(counts))


def extension_row_map(B: Sequence[int]) -> tuple[int, ...]:
    """Source-row index for each extension row.

    Rows with b_j >= 1 appear once each in original order, then the extra
    copies are appended in order (b_1 - 1 copies of row 1, ...); rows with
    b_j = 0 are omitted entirely, so the output length is sum(B).
    """
    if sum(B) == 0:
        raise ValueError("extension must keep at least one row")
    out = [j for j, b in enumerate(B) if b >= 1]
    for j, b in enumerate(B):
        out.extend([j] * (b - 1))
    return tuple(out)


def extend_rows(rows: Sequence, rowmap: Sequence[int], zero) -> list:
    """rows[src] for each src of rowmap, where source len(rows), the appended
    zero row of a granular extension, reads as zero."""
    padded = [*rows, zero]
    return [padded[src] for src in rowmap]


def tv_distance(p: Pmf, q: Pmf) -> Fraction:
    """sum_i |p_i - q_i| (the L1 form, without the conventional 1/2 factor)."""
    if p.n != q.n:
        raise ValueError("support size mismatch")
    pd, qd = p.denom, q.denom
    return Fraction(sum([abs(a * qd - b * pd) for a, b in zip(p.weights, q.weights)]), pd * qd)

