"""Core protocols: HAM/symmetric IPP, PVAL claim generation, polynomial
folding, the recursive PVAL IPP, the composed df-IPPs, the RLCC
transformation, and brute-force lemma checks.

Asymptotic parameter formulas degenerate at desk scale; every clamp that
fires is appended to the session notes so run reports stay auditable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Callable, Optional, Sequence

from .field import (InputTensor, PrimeField, cell_coords, lagrange_basis,
                    lagrange_eval_univariate, lde_eval_batch, uniform_draws)
from .tensors import (DEFAULT_ENUM_BUDGET, INF, PvalInstance, dist_to_pval_bruteforce,
                      metric_key, span)
from .distributions import Pmf, dispersion_rho, extend_rows, marginal_first
from .session import (ACCEPT, Message, ProtocolViolation, ProverStrategy, RunResult, Section,
                      Session, Verdict, run_session)

DEFAULT_HAM_C = 2  # the weight protocol samples ceil(c/eps) leaves
DEFAULT_NC_R = 1  # folding rounds of the NC df-IPPs
RLCC_ROUNDS = 4  # rounds of ceil(1/eps) sampled corrector spot checks after the uniform IPP
_HAM_DIR = ((Section((0,), 1),), (Section((1,), 1),))  # the two constant ham/dir payloads


# --- weight classes and folding state ----------------------------------------

def fold_kappa(r: int, k: int) -> int:
    """kappa = 8 * log2(max(r,2)) * log2(k), floored to at least 1."""
    return max(1, math.ceil(8 * math.log2(max(r, 2)) * math.log2(max(k, 2))))


def _class_exponent(k: int, kappa: int) -> int:
    """ceil(log2(k/kappa)), or 0 when kappa >= k: the least e with kappa * 2^e >= k."""
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, not {kappa}")
    e = 0
    while (kappa << e) < k:
        e += 1
    return e


def weight_classes(k: int, kappa: int) -> list[tuple[int, int]]:
    """(a, min(2^a * kappa, k)) for a in 1..max(1, ceil(log2(k/kappa)))+1."""
    count = max(1, _class_exponent(k, kappa)) + 1
    return [(a, min(kappa << a, k)) for a in range(1, count + 1)]


@dataclass(frozen=True)
class FoldState:
    """One node of the folding tree: histories plus the current PVAL claim.

    rowmaps[s] maps each row folded in round s to its source row, where
    source k is the appended all-zero row: tuple(range(k)) for a plain fold,
    a granular extension row map for an extended fold.

    terms(k, m) is the state's fold-term table, built on first use and kept
    outside the dataclass fields, so equality and hashing ignore it.
    """

    zs: tuple[tuple[int, ...], ...]
    supports: tuple[tuple[int, ...], ...]
    rowmaps: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    points: tuple[tuple[int, ...], ...]
    values: tuple[int, ...]

    @staticmethod
    def root(inst: PvalInstance) -> "FoldState":
        """The unfolded claim (J, v) that a folding tree starts from."""
        return FoldState((), (), (), (), inst.points, inst.values)

    @property
    def tau(self) -> int:
        """Query locality per folded coordinate: the product of support sizes.

        Exact for plain folds; an upper bound for extended folds, where
        support entries backed by the appended zero row cost nothing.
        """
        t = 1
        for s in self.supports:
            t *= len(s)
        return t

    def terms(self, k: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(offsets, coefficients) of one folded coordinate over a k^m base tensor.

        A folded coordinate is sum(c * X[leaf + o]) over the paired entries,
        where leaf is the flat index of its leaf cell.  The table expands
        level by level over rowmaps, last fold first, and keeps every support
        index whose source is not the zero row, even when its sampled
        coefficient is 0.  It is built once per (k, m) and cached.
        """
        cache = self.__dict__.setdefault("_terms", {})
        table = cache.get((k, m))
        if table is None:
            terms = [(0, 1)]
            for s in reversed(range(len(self.zs))):
                z, rowmap, stride = self.zs[s], self.rowmaps[s], k ** (m - 1 - s)
                steps = [(rowmap[i] * stride, z[i]) for i in self.supports[s] if rowmap[i] != k]
                terms = [(off + d, c * zi) for off, c in terms for d, zi in steps]
            table = cache[(k, m)] = (tuple(off for off, _ in terms), tuple(c for _, c in terms))
        return table


def project_points(points: Sequence[tuple[int, ...]]):
    """Distinct tail projections in first-occurrence order + column index per point."""
    j2: list[tuple[int, ...]] = []
    index: dict[tuple[int, ...], int] = {}
    cols = []
    for pt in points:
        rest = pt[1:]
        if rest not in index:
            index[rest] = len(j2)
            j2.append(rest)
        cols.append(index[rest])
    return j2, cols


def folded_eval(session: Session, base: InputTensor, st: FoldState, leaf: int) -> int:
    """Evaluate one coordinate of z_s . (... (z_1 . X)) through the query oracle.

    leaf is the coordinate's flat cell index in the leaf [k]^(m-s).  One
    charged read at leaf plus the offsets of the state's term table
    (FoldState.terms): exactly tau queries for plain folds, none for support
    entries backed by the zero row.  The leaf phase calls it once per distinct
    cell of a live tuple and charges a repeated cell len(offsets) queries.
    """
    offsets, coeffs = st.terms(base.k, base.m)
    values = session.read(leaf, offsets)
    return sum(map(mul, values, coeffs)) % base.field.modulus


def fold_rows(z: Sequence[int], rows: Sequence[Sequence[int]], p: int) -> tuple[int, ...]:
    """z . rows over F_p, row by row (rows with z[i] = 0 skipped), reduced once per entry."""
    acc = [0] * len(rows[0])
    for zi, row in zip(z, rows):
        if zi:
            acc = [a + zi * v for a, v in zip(acc, row)]
    return tuple(a % p for a in acc)


def _columns_consistent(p: int, bases: Sequence[Sequence[int]], values,
                        Y: Sequence[Sequence[int]], cols: Sequence[int]) -> bool:
    """Step 1 of a fold: column cols[j] of the k rows of Y, dotted with bases[j],
    the Lagrange basis at the first coordinate of points[j], is values[j] for
    every claim j.  A fold phase looks the bases up once for all live tuples."""
    columns = list(zip(*Y))
    return all(map(lambda b, c, v: sum(map(mul, b, columns[c])) % p == v, bases, cols, values))


def _ask_elements(session: Session, field: PrimeField, tag: str, payload, counts) -> Message:
    """Ask for one section of field.bits-wide values per count; a ProtocolViolation
    unless every value is a field element, since that width also holds v + p for v < p."""
    msg = session.ask(tag, payload, expect=[(count, field.bits) for count in counts])
    top = max((max(sec.values, default=0) for sec in msg.sections), default=0)
    if top >= field.modulus:
        raise ProtocolViolation(f"{tag}: {top} is not an element of F_{field.modulus}")
    return msg


def _fold_phase(session: Session, live: list[FoldState], k: int, field: PrimeField,
                kappa: int, rowmap: tuple[int, ...]):
    """One parallel polynomial-folding round over every live tuple.

    The prover sends the k-row matrices Y; the verifier checks their columns
    against the current claims and folds the rows Y[rowmap[j]], where row k
    is the appended zero row.  The identity tuple(range(k)) is a plain fold;
    a granular extension row map gives the extended fold, and children record
    the map so folded coordinates trace back to source rows.

    Returns (children, None) on success or (None, verdict) on rejection.
    All matrices ride in one prover message and all folding vectors in one
    verifier message, so each phase costs exactly two messages.  The request
    (s, rowmap, points) names the round s (the depth of the live tuples), the
    row map and the point set J that every live tuple shares.
    """
    p, fb = field.modulus, field.bits
    points = live[0].points
    j2, cols = project_points(points)
    j2, t2 = tuple(j2), len(j2)
    msg = _ask_elements(session, field, "fold/matrix", (len(live[0].zs), rowmap, points),
                        [k * t2] * len(live))
    matrices = [[sec.values[i * t2:(i + 1) * t2] for i in range(k)] for sec in msg.sections]
    bases = [lagrange_basis(p, k, pt[0]) for pt in points]
    if not all(_columns_consistent(p, bases, st.values, Y, cols)
               for st, Y in zip(live, matrices)):
        return None, Verdict(False, "fold-consistency")

    n_rows = len(rowmap)
    classes = weight_classes(n_rows, kappa)
    for a, weight in classes:
        if weight != kappa << a:
            session.note(f"clamp: weight class a={a} target {kappa << a} clamped to {weight} "
                         f"(k={n_rows})")
    children: list[FoldState] = []
    z_sections = []
    for st, Y in zip(live, matrices):
        U = extend_rows(Y, rowmap, (0,) * t2)
        for a, weight in classes:
            support, z = fold_vector(session.rng, n_rows, weight, p)
            children.append(FoldState(
                zs=st.zs + (z,),
                supports=st.supports + (support,),
                rowmaps=st.rowmaps + (rowmap,),
                weights=st.weights + (a,),
                points=j2,
                values=fold_rows(z, U, p),
            ))
            z_sections.append((z, fb))
    session.tell("fold/vectors", z_sections)
    return children, None


def fold_vector(rng, n_rows: int, weight: int, p: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(support, z): a folding vector in F_p^n_rows, nonzero only on a sorted
    uniform support of weight rows, whose entries are drawn after the support."""
    support = tuple(sorted(rng.sample(range(n_rows), weight)))
    z = [0] * n_rows
    for i, v in zip(support, uniform_draws(rng, p, weight)):
        z[i] = v
    return support, tuple(z)


def _uniform_cells(rng, k: int, leaf_m: int, nq: int) -> list[int]:
    """nq uniform flat cells of [k]^leaf_m, each from leaf_m randrange(k) draws
    taken first coordinate first."""
    coords, cells = uniform_draws(rng, k, nq * leaf_m), [0] * nq
    for t in range(leaf_m):  # Horner over coordinate t of every cell at once
        cells = [c * k + d for c, d in zip(cells, coords[t::leaf_m])]
    return cells


def _leaf_phase(session: Session, X: InputTensor, live: list[FoldState], r: int,
                eps: Fraction, shrink: Fraction, draw: Callable[[int], list[int]]) -> Verdict:
    """Leaf PVAL checks, then uniform and distribution spot checks per live tuple.

    Each weight class a on a tuple's path scales eps_r by 2^a / shrink, and
    the tuple gets nq = ceil(10 / eps_r) spot checks per batch.  A spot-check
    cell is a flat index into the leaf [k]^(m-r): the prover's leaf tensor is
    read there and compared with folded_eval at the same index.  draw(nq)
    returns nq distribution-batch cells of [k]^m (or of the leaf); since the
    first coordinate is the most significant, a cell i keeps its last m - r
    coordinates as i % k^(m-r).  Both batches are drawn before either is checked.

    A tuple folds each distinct cell once, in first-draw order, and the first
    mismatch rejects.  A repeat is charged the reads of its fold without folding,
    so the ledger is that of checking every draw in order: on a reject, only the
    repeats drawn before the bad cell's first draw are charged.
    """
    field, k, leaf_m = X.field, X.k, X.m - r
    leaf_n = k ** leaf_m
    leaves = [sec.values for sec in _ask_elements(session, field, "fin/leaves", r,
                                                  [leaf_n] * len(live)).sections]
    assert all(st.points == live[0].points for st in live), "live tuples share their points"
    evals = lde_eval_batch(field, k, leaf_m, leaves, live[0].points)
    # tuple i's verdict is read only after tuples 0..i-1 made their spot checks
    for st, leaf, got in zip(live, leaves, evals):
        if got != list(st.values):
            return Verdict(False, "leaf-pval")
        eps_r = eps
        for a in st.weights:
            eps_r = eps_r * Fraction(2 ** a) / shrink
        nq = math.ceil(10 / eps_r)
        session.note(f"leaf weights={'.'.join(map(str, st.weights))} "
                     f"tau={st.tau} nq={nq} eps_r={eps_r}")
        cells = _uniform_cells(session.rng, k, leaf_m, nq) + [y % leaf_n for y in draw(nq)]
        distinct, reads = dict.fromkeys(cells), len(st.terms(k, X.m)[0])
        for n_checked, cell in enumerate(distinct):
            if leaf[cell] != folded_eval(session, X, st, cell):
                session.charge(reads * (cells.index(cell) - n_checked))
                return Verdict(False, "leaf-sample")
        session.charge(reads * (len(cells) - len(distinct)))
    return ACCEPT


# --- HAM and symmetric languages ----------------------------------------------

def _ham_body(session: Session, n: int, w: int, eps: Fraction, c: int) -> Verdict:
    width = max(1, n.bit_length())
    iterations = math.ceil(Fraction(c) / eps)
    for _ in range(iterations):
        i0, xi = session.sample()
        i = i0 + 1  # the binary split runs on 1-based inclusive intervals
        lo, hi, v = 1, n, w
        path: tuple[int, ...] = ()
        while lo < hi:
            mid = (lo + hi) // 2
            msg = session.ask("ham/split", (lo, hi, mid, path), expect=[(2, width)])
            h0, h1 = msg.values()
            if h0 + h1 != v:
                return Verdict(False, "sum")
            if h0 > mid - lo + 1 or h1 > hi - mid:
                return Verdict(False, "range")
            bit = 0 if i <= mid else 1
            session.tell("ham/dir", _HAM_DIR[bit])
            if bit == 0:
                hi, v = mid, h0
            else:
                lo, v = mid + 1, h1
            path += (bit,)
        if xi != v:
            return Verdict(False, "leaf")
    return ACCEPT


def run_ham_ipp(x_bits: Sequence[int], D, w: int, eps: Fraction,
                prover: ProverStrategy, seed: int, c: int = DEFAULT_HAM_C) -> RunResult:
    """df-IPP for the weight-w language; samples only, no input queries."""
    n = len(x_bits)
    return run_session(lambda s: _ham_body(s, n, w, eps, c), prover, seed, x_bits, D)


def run_symmetric_ipp(x_bits: Sequence[int], D, predicate: Callable[[int], bool],
                      eps: Fraction, prover: ProverStrategy, seed: int,
                      c: int = DEFAULT_HAM_C) -> RunResult:
    """The prover announces the weight; the verifier gates on the predicate
    before delegating to the weight protocol."""
    n = len(x_bits)
    width = max(1, n.bit_length())

    def verifier(session: Session) -> Verdict:
        msg = session.ask("ham/weight", None, expect=[(1, width)])
        w = msg.values()[0]
        if not predicate(w):
            return Verdict(False, "predicate")
        return _ham_body(session, n, w, eps, c)

    return run_session(verifier, prover, seed, x_bits, D)


class HonestHamProver(ProverStrategy):
    """Answers splits with the true interval weights of its committed string.

    Instantiate on the real input for honesty, or on any alternative string
    to get the committed (fixed-alternative) adversary.
    """

    def __init__(self, x_bits: Sequence[int]):
        self.prefix = [0]
        for b in x_bits:
            self.prefix.append(self.prefix[-1] + b)
        self.n = len(x_bits)
        self.width = max(1, self.n.bit_length())

    def weight(self, lo: int, hi: int) -> int:  # 1-based inclusive
        return self.prefix[hi] - self.prefix[lo - 1]

    def reply(self, tag, payload):
        if tag == "ham/weight":
            return [((self.weight(1, self.n),), self.width)]
        if tag == "ham/split":
            lo, hi, mid, _path = payload
            return [((self.weight(lo, mid), self.weight(mid + 1, hi)), self.width)]
        raise ProtocolViolation(f"unexpected tag {tag}")


class BadSumHamProver(HonestHamProver):
    """Violates the sum check at the root split."""

    def reply(self, tag, payload):
        if tag == "ham/split" and payload[3] == ():
            lo, hi, mid, _ = payload
            return [((self.weight(lo, mid) + 1, self.weight(mid + 1, hi)), self.width)]
        return super().reply(tag, payload)


# --- NC -> PVAL claim generation ----------------------------------------------

@dataclass
class ClaimGenerator:
    """Idealized stand-in for the interactive NC -> PVAL reduction: the verifier
    sends J, fresh uniform points (its coins) unless `points` fixes it, and the
    prover answers v.  A fixed J with a ScriptedClaimsProver's v models a
    reduction run whose guarantee failed; downstream protocols must still
    reject under the hybrid promise."""

    t: Optional[int] = None
    points: Optional[tuple[tuple[int, ...], ...]] = None


def generate_pval_claims(session: Session, gen: ClaimGenerator, field: PrimeField,
                         k: int, m: int, eps: Fraction) -> PvalInstance:
    """Send J (gen.points, else t = ceil(4 eps n log2 n) uniform points) and ask for v."""
    points = gen.points
    if points is None:
        n, t = k ** m, gen.t
        if t is None:
            t = max(1, math.ceil(4 * eps * n * math.log2(n))) if n > 1 else 1
        points = field.rand_points(t, m, session.rng)
    session.tell("claims/points", [(tuple(c for pt in points for c in pt), field.bits)])
    msg = _ask_elements(session, field, "claims/values", points, [len(points)])
    return PvalInstance(field, k, m, points, msg.values())


class ScriptedClaimsProver(ProverStrategy):
    """Answers claims/values with fixed values; every other request and message
    goes to the inner prover, so a randomized one spends no coins on the claims."""

    def __init__(self, inner: ProverStrategy, values: Sequence[int], width: int):
        self.inner = inner
        self.claims = Section(values, width)

    def reply(self, tag, payload):
        return [self.claims] if tag == "claims/values" else self.inner.reply(tag, payload)

    def observe(self, tag, sections) -> None:
        self.inner.observe(tag, sections)


# --- FinIPP: recursive PVAL IPP over dispersed distributions -------------------

def _fin_preconditions(session: Session, field: PrimeField, k: int, m: int,
                       r: int, eps: Fraction) -> None:
    checks = [
        ("r <= log_k(n)", r <= m),
        ("k^r <= 1/eps", Fraction(k ** r) <= 1 / eps),
        ("10r <= |F|", 10 * r <= field.modulus),
        ("|F| <= 1/eps", Fraction(field.modulus) <= 1 / eps),
    ]
    for name, ok in checks:
        if not ok:
            session.note(f"precondition violated (reported, not enforced): {name}")


def _round_kappa(session: Session, r: int, k: int, m: int, kappa_override: Optional[int],
                 default: Callable[[int, int], int]) -> int:
    """Check 1 <= r <= m-1, then pick kappa (the override, else default(r, k)) and note it."""
    if not 1 <= r <= m - 1:
        raise ValueError("round parameter must satisfy 1 <= r <= m-1")
    kappa = kappa_override if kappa_override is not None else default(r, k)
    session.note(f"kappa = {kappa}")
    return kappa


def _fin_core(session: Session, X: InputTensor, inst: PvalInstance, eps: Fraction,
              rho: Fraction, r: int, dist_mode: str,
              kappa_override: Optional[int] = None) -> Verdict:
    """Folding phases, then leaf PVAL checks and uniform + distribution spot checks.

    dist_mode "oracle": the distribution batch comes from the sample oracle,
    folded by dropping the first r coordinates.  dist_mode "uniform": both
    batches are uniform verifier coins (the uniform-PVAL substitution; costs
    zero samples).
    """
    field, k, m = inst.field, inst.k, inst.m
    kappa = _round_kappa(session, r, k, m, kappa_override, fold_kappa)
    _fin_preconditions(session, field, k, m, r, eps)

    live = [FoldState.root(inst)]
    for _ in range(r):
        live, verdict = _fold_phase(session, live, k, field, kappa, tuple(range(k)))
        if verdict is not None:
            return verdict

    if dist_mode == "oracle":
        def draw(nq):
            return [session.sample()[0] for _ in range(nq)]
    else:
        def draw(nq):
            return _uniform_cells(session.rng, k, m - r, nq)
    return _leaf_phase(session, X, live, r, eps, 4 * rho, draw)


def run_fin_ipp(X: InputTensor, inst: PvalInstance, D, rho: Fraction, eps: Fraction, r: int,
                prover: ProverStrategy, seed: int, dist_mode: str = "oracle",
                kappa_override: Optional[int] = None) -> RunResult:
    """FinIPP against D, of any kind, whose dispersion in the claim's shape (k, m) is
    rho = dispersion_rho(D, (k, m)).rho, measured once per D by the caller."""
    if dist_mode not in ("oracle", "uniform"):
        raise ValueError(f"unknown dist_mode {dist_mode!r}")
    return run_session(lambda s: _fin_core(s, X, inst, eps, rho, r, dist_mode, kappa_override),
                       prover, seed, X.data, D)


def _run_fold_round(X: InputTensor, inst: PvalInstance, kappa: int, rowmap: tuple[int, ...],
                    prover: ProverStrategy, seed: int):
    """One folding round of the claim inst over rowmap, as a session of its own; returns
    (RunResult, the children FoldStates (a, z_a, J_2, v_a = z_a . Y') or None)."""
    holder: dict = {}

    def verifier(session: Session) -> Verdict:
        children, verdict = _fold_phase(session, [FoldState.root(inst)], inst.k, inst.field,
                                        kappa, rowmap)
        if verdict is not None:
            return verdict
        holder["children"] = children
        return ACCEPT

    result = run_session(verifier, prover, seed, X.data)
    return result, holder.get("children")


def run_poly_fold(X: InputTensor, inst: PvalInstance, kappa: int,
                  prover: ProverStrategy, seed: int):
    """Stand-alone folding round; returns (RunResult, fold outputs or None)."""
    return _run_fold_round(X, inst, kappa, tuple(range(inst.k)), prover, seed)


# --- composed df-IPPs -----------------------------------------------------------

def _df_nc_verifier(session: Session, X: InputTensor, eps: Fraction,
                    gen: ClaimGenerator, r: int,
                    kappa_override: Optional[int]) -> Verdict:
    field, k, m = X.field, X.k, X.m
    inst = generate_pval_claims(session, gen, field, k, m, eps)
    session.note(f"queries before fin leaf phase: {session.ledger.queries}")

    T = math.ceil(Fraction(3) / eps)
    idx_width = max(1, (X.n - 1).bit_length())
    indices, labels = [], []
    for _ in range(T):
        i, xi = session.sample()
        indices.append(i)
        labels.append(xi)
    session.tell("nc/samples", [(tuple(indices), idx_width), (tuple(labels), field.bits)])
    # sampled cells pin the LDE at their embedded grid points (grid agreement)
    ext = PvalInstance(field, k, m,
                       inst.points + tuple(cell_coords(i, k, m) for i in indices),
                       inst.values + tuple(labels))
    return _fin_core(session, X, ext, eps, Fraction(1), r, "uniform", kappa_override)


def run_df_ipp_nc(X: InputTensor, D, eps: Fraction, gen: ClaimGenerator,
                  prover: ProverStrategy, seed: int, r: int = DEFAULT_NC_R,
                  kappa_override: Optional[int] = None) -> RunResult:
    """NC df-IPP: claims, T = ceil(3/eps) fresh samples, uniform PVAL IPP."""
    return run_session(lambda s: _df_nc_verifier(s, X, eps, gen, r, kappa_override),
                       prover, seed, X.data, D)


def run_dispersed_ipp_nc(X: InputTensor, D, rho: Fraction, eps: Fraction, gen: ClaimGenerator,
                         prover: ProverStrategy, seed: int, r: int = DEFAULT_NC_R,
                         kappa_override: Optional[int] = None) -> RunResult:
    """Claims, then FinIPP against the true distribution (hybrid soundness) at rho =
    dispersion_rho(D, (X.k, X.m)).rho, measured once per D by the caller."""

    def verifier(session: Session) -> Verdict:
        inst = generate_pval_claims(session, gen, X.field, X.k, X.m, eps)
        session.note(f"queries before fin leaf phase: {session.ledger.queries}")
        return _fin_core(session, X, inst, eps, rho, r, "oracle", kappa_override)

    return run_session(verifier, prover, seed, X.data, D)


# --- RLCC transformation ---------------------------------------------------------

@dataclass
class CorrectorHandle:
    """Local corrector: fn(query_fn, i, rng) -> corrected value, or None to abort.

    On true codewords it returns X_i with probability 1.
    """

    radius: Fraction
    fn: Callable


def run_rlcc_transform(x_bits: Sequence[int], D, uniform_ipp: Callable[[Session], Verdict],
                       corrector: CorrectorHandle, eps: Fraction,
                       prover: ProverStrategy, seed: int) -> RunResult:
    """Uniform IPP, then RLCC_ROUNDS rounds of sampled corrector spot checks.

    A corrector abort (None) is no evidence and never rejects by itself;
    only a returned value different from the sampled label rejects.
    """
    if eps > corrector.radius:
        raise ValueError("eps must not exceed the correcting radius")
    per_round = math.ceil(Fraction(1) / eps)

    def verifier(session: Session) -> Verdict:
        inner = uniform_ipp(session)
        if not inner.accepted:
            return Verdict(False, "uniform-ipp")
        for _ in range(RLCC_ROUNDS):
            picks = [session.sample() for _ in range(per_round)]
            for i, xi in picks:
                got = corrector.fn(session.query, i, session.rng)
                if got is not None and got != xi:
                    return Verdict(False, "corrector")
        return ACCEPT

    return run_session(verifier, prover, seed, x_bits, D)


def hadamard_codeword(message: int, bits: int) -> tuple[int, ...]:
    """The table of x -> parity(message & x) over {0,1}^bits."""
    return tuple(bin(message & x).count("1") & 1 for x in range(1 << bits))


def hadamard_corrector(bits: int) -> CorrectorHandle:
    n = 1 << bits

    def fn(query, i, rng):
        r = rng.randrange(n)
        return query(i ^ r) ^ query(r)

    # relative distance of the code is 1/2; stay well inside delta/2
    return CorrectorHandle(radius=Fraction(1, 8), fn=fn)


def blr_linearity_ipp(eps: Fraction, bits: int) -> Callable[[Session], Verdict]:
    """Prover-free uniform IPP for the Hadamard code: BLR linearity checks."""
    n = 1 << bits
    trials = math.ceil(Fraction(2) / eps)

    def verifier(session: Session) -> Verdict:
        for _ in range(trials):
            x = session.rng.randrange(n)
            y = session.rng.randrange(n)
            q = session.query
            if q(x) ^ q(y) != q(x ^ y):
                return Verdict(False, "uniform-ipp")
        return ACCEPT

    return verifier


class NullProver(ProverStrategy):
    """For prover-free (sub)protocols."""

    def reply(self, tag, payload):
        raise ProtocolViolation(f"null prover asked for {tag}")


# --- the honest prover (and adversarial variants) for folding protocols ----------

class HonestFoldProver(ProverStrategy):
    """Prover side of claims, folding, FinIPP, and the NC pipeline.

    Commits to the tensor handed to it: pass the true X for honesty, or any
    alternative W for the fixed-alternative-string adversary (committing to
    the mu-closest PVAL member is the analysis-optimal cheating strategy).
    A fold/matrix request (s, rowmap, points) carries the round, the row map
    the verifier folds through and the live tuples' shared point set, so the
    prover keeps only its committed tensor, its live folds and, from its claims
    to its first fold, its round-0 columns (X's k rows evaluated at a tail); a
    claim is P_X(pt) = sum_i L_i(pt[0]) * P_{X row i}(pt[1:]).  All live folded
    tensors are materialized; at desk scale they are tiny.
    """

    def __init__(self, tensor: InputTensor):
        self.X = tensor
        self.field = tensor.field
        self.k = tensor.k
        self.live: list = []
        self._cols: dict = {}  # tail -> (P_{X row 0}(tail), ..., P_{X row k-1}(tail))

    def observe(self, tag: str, sections) -> None:
        """On fold/vectors, fold the rows each live tensor was extended to."""
        if tag == "fold/vectors":
            p, per_tuple = self.field.modulus, len(sections) // len(self.live)
            self.live = [fold_rows(z, rows, p) for idx, rows in enumerate(self.live)
                         for z in sections[idx * per_tuple:(idx + 1) * per_tuple]]

    def reply(self, tag: str, payload):
        fb = self.field.bits
        if tag == "claims/values":
            cols = self._columns([pt[1:] for pt in payload])
            return [(tuple(lagrange_eval_univariate(self.field, col, pt[0])
                           for pt, col in zip(payload, cols)), fb)]
        if tag == "fold/matrix":
            return self._matrices(*payload)
        if tag == "fin/leaves":
            return [(data, fb) for data in self.live]
        raise ProtocolViolation(f"unexpected tag {tag}")

    def _columns(self, tails) -> list[tuple[int, ...]]:
        """The round-0 column at each tail: one lde_eval_batch over X's k rows at
        the distinct tails not yet kept."""
        new = [tail for tail in dict.fromkeys(tails) if tail not in self._cols]
        evals = lde_eval_batch(self.field, self.k, self.X.m - 1,
                               [self.X.row(i) for i in range(self.k)], new)
        self._cols.update(zip(new, zip(*evals)))
        return [self._cols[tail] for tail in tails]

    def _matrices(self, s: int, rowmap: Sequence[int], points):
        """One section per live tensor: its k rows in order, each evaluated at the
        tail projection of every point.  Each live tensor is then kept as its rows
        read through rowmap, for observe to fold."""
        if s == 0:
            self.live = [self.X.data]
        k, tail_m = self.k, self.X.m - s - 1
        step = k ** tail_m
        rows = [[data[i * step:(i + 1) * step] for i in range(k)] for data in self.live]
        j2, _cols = project_points(points)
        if s == 0:  # X's rows at the tails are the kept columns, transposed
            evals, self._cols = list(zip(*self._columns(j2))), {}
        else:
            evals = lde_eval_batch(self.field, k, tail_m, [row for rs in rows for row in rs], j2)
        self.live = [extend_rows(rs, rowmap, (0,) * step) for rs in rows]
        return [(tuple(v for row in evals[d * k:(d + 1) * k] for v in row), self.field.bits)
                for d in range(len(rows))]


class RowTamperFoldProver(HonestFoldProver):
    """Corrupts one matrix entry of a chosen row in the first fold round."""

    def __init__(self, tensor: InputTensor, row: int, col: int = 0, delta: int = 1):
        super().__init__(tensor)
        self._tamper = (row, col, delta)

    def reply(self, tag, payload):
        sections = super().reply(tag, payload)
        if tag == "fold/matrix" and self._tamper is not None:
            row, col, delta = self._tamper
            self._tamper = None
            values, width = sections[0]
            t2 = len(values) // self.k
            values = list(values)
            values[row * t2 + col] = (values[row * t2 + col] + delta) % self.field.modulus
            sections[0] = (tuple(values), width)
        return sections


class RandomLieFoldProver(HonestFoldProver):
    """Perturbs each reply value independently with probability lie_prob."""

    def __init__(self, tensor: InputTensor, lie_prob: float, rng):
        super().__init__(tensor)
        self.lie_prob = lie_prob
        self.rng = rng

    def reply(self, tag, payload):
        sections = super().reply(tag, payload)
        p = self.field.modulus
        out = []
        for values, width in sections:
            vals = list(values)
            for i in range(len(vals)):
                if self.rng.random() < self.lie_prob:
                    vals[i] = (vals[i] + 1 + self.rng.randrange(p - 1)) % p
            out.append((tuple(vals), width))
        return out


# --- lemma checks ------------------------------------------------------------------

@dataclass
class InequalityReport:
    lhs: object
    rhs: object
    holds: bool
    vacuous: bool = False
    detail: str = ""


def hybrid_pval_distance(X: InputTensor, inst: PvalInstance, D: Pmf,
                         budget: int = DEFAULT_ENUM_BUDGET):
    """mu_{D,U}(X, PVAL(J, v)) by exhaustive scan, U uniform over the cells of X."""
    uniform = Pmf.uniform(X.n, shape=(X.k, X.m))
    return dist_to_pval_bruteforce(X, inst, ("hybrid", D, uniform), budget=budget)


def row_distances(X: InputTensor, row_dist: Pmf, Y: Sequence[Sequence[int]],
                  j2: Sequence[tuple[int, ...]], rowmap: Sequence[int],
                  budget: int = DEFAULT_ENUM_BUDGET) -> list:
    """eps_i = mu_{row_dist,U}(X'[i,.], PVAL(J_2, Y'[i,.])) for every row i, by brute force.

    Row i is X's row rowmap[i] (the identity for X's own rows), where source
    k is the appended zero row with zero claims.  Each distinct source is
    scanned once.
    """
    field, k, m = X.field, X.k, X.m
    sources = tuple(dict.fromkeys(rowmap))
    data = extend_rows([X.row(i) for i in range(k)], sources, (0,) * k ** (m - 1))
    claims = extend_rows([tuple(y) for y in Y], sources, (0,) * len(j2))
    by_source = {
        src: hybrid_pval_distance(InputTensor(field, k, m - 1, row),
                                  PvalInstance(field, k, m - 1, tuple(j2), claim),
                                  row_dist, budget)
        for src, row, claim in zip(sources, data, claims)}
    return [by_source[src] for src in rowmap]


def _preservation_report(X: InputTensor, D: Pmf, row_dist: Pmf, Y: Sequence[Sequence[int]],
                         inst: PvalInstance, factor: Fraction, rowmap: Sequence[int],
                         budget: int = DEFAULT_ENUM_BUDGET) -> InequalityReport:
    """sum_i eps_i >= factor * mu_{D,U}(X, PVAL(J, v)) over the rows of row_distances.

    Stated non-strict at the exact distance: that is the sharp form of the
    "far implies far" implication quantified over every eps below the true
    distance.  A member instance or an empty PVAL(J, v) makes it vacuous.
    """
    mu = hybrid_pval_distance(X, inst, D, budget)
    if mu == INF:
        return InequalityReport(INF, INF, True, vacuous=True, detail="PVAL(J,v) empty")
    if mu == 0:
        return InequalityReport(None, Fraction(0), True, vacuous=True,
                                detail="member instance; bound vacuous")
    j2, _cols = project_points(inst.points)
    eps_i = row_distances(X, row_dist, Y, j2, rowmap, budget)
    rhs = factor * mu
    if INF in eps_i:
        return InequalityReport(INF, rhs, True, detail="some row PVAL empty")
    lhs = sum(eps_i, Fraction(0))
    return InequalityReport(lhs, rhs, lhs >= rhs)


def check_distance_preservation(X: InputTensor, D: Pmf, Y: Sequence[Sequence[int]],
                                inst: PvalInstance,
                                budget: int = DEFAULT_ENUM_BUDGET) -> InequalityReport:
    """Row-distance preservation for the folding step.

    Given Y passing the step-1 column checks, verifies
        sum_i mu_{D^(p),U}(X[i,.], PVAL(J_2, Y[i,.]))  >=  (k/rho) * mu_{D,U}(X, PVAL(J,v))
    with exhaustive PVAL distance oracles on both sides.
    """
    _j2, cols = project_points(inst.points)
    p = inst.field.modulus
    if not _columns_consistent(p, [lagrange_basis(p, inst.k, pt[0]) for pt in inst.points],
                               inst.values, Y, cols):
        return InequalityReport(None, None, False, detail="step-1 check fails")
    factor = Fraction(inst.k) / dispersion_rho(D).rho
    return _preservation_report(X, D, marginal_first(D), Y, inst, factor,
                                tuple(range(inst.k)), budget)


def check_subspace_lemma(field: PrimeField, S_basis, T_basis, metric) -> dict:
    """Exact form of the two-subspace distance lemma.

    If some s in S has d(s,T) = eps_max > 0, the fraction of r in S with
    d(r,T) < eps_max/2 is at most 1/(|F|-1).  S and T are exhausted, so the
    reported fraction has no sampling error; the strict < on the close side
    matches the one-point-per-line counting in the proof.
    """
    key, denom = metric_key(metric)
    S = span(field, S_basis)
    T = span(field, T_basis)
    dist_to_T = [min(key(s, t) for t in T) for s in S]  # each distance times denom
    eps_max = max(dist_to_T)
    if eps_max == 0:
        return {"vacuous": True, "fraction": None, "bound": None}
    close = sum(1 for v in dist_to_T if 2 * v < eps_max)
    fraction = Fraction(close, len(S))
    bound = Fraction(1, field.modulus - 1)
    return {"vacuous": False, "eps": Fraction(eps_max, denom), "fraction": fraction,
            "bound": bound, "holds": fraction <= bound}


def check_appendix_claims(X: InputTensor, D: Pmf, Y: Sequence[Sequence[int]],
                          inst: PvalInstance, kappa: int, trials: int, seed: int,
                          budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """Statistical checks of the folding soundness claims.

    - witness search: some b in {0..log2 k} admits a row set I with
      |I| >= 2^b / (4 log2 k) and eps_i >= k*mu/(2^(b+1) rho) on I, whenever
      step 1 passed and the instance is certifiably far;
    - support-hit and folded-farness events over the verifier's choice of
      z_{a*}, measured against their stated probability bounds.

    Both events depend only on the drawn (support, z).  All `trials` vectors
    are drawn first, in the per-trial order, and tallied; each distinct draw
    is decided once and counted with its multiplicity, so the exhaustive
    folded-instance oracle runs once per distinct draw, not once per trial.
    """
    import random as _random

    field, k, m = inst.field, inst.k, inst.m
    p = field.modulus
    rho = dispersion_rho(D).rho
    mu = hybrid_pval_distance(X, inst, D, budget)
    marg = marginal_first(D)
    j2, _cols = project_points(inst.points)
    eps_i = row_distances(X, marg, Y, j2, tuple(range(k)), budget)
    log2k = math.log2(k)

    report: dict = {"mu": mu, "eps_i": eps_i, "rho": rho}
    if mu == 0 or mu == INF:
        report["sum_eps"] = {"vacuous": True}
        return report

    found = None
    for b in range(int(log2k) + 1):
        threshold = Fraction(k) * mu / (2 ** (b + 1) * rho)
        I = [i for i in range(k) if eps_i[i] >= threshold]
        if len(I) * 4 * log2k >= 2 ** b:
            found = {"b": b, "rows": I}
            break
    report["sum_eps"] = {"vacuous": False, "witness": found, "holds": found is not None}

    # a* = min(log(k/kappa), log k - b), clamped into the available classes
    classes = weight_classes(k, kappa)
    b = found["b"] if found else 0
    a_star = min(max(min(_class_exponent(k, kappa), int(log2k) - b), 1), len(classes))
    weight = classes[a_star - 1][1]

    hit_threshold = mu * (2 ** a_star) / (2 * rho)
    far_threshold = mu * (2 ** a_star) / (4 * rho)
    rng = _random.Random(seed)
    draws = Counter(fold_vector(rng, k, weight, p) for _ in range(trials))
    misses = not_far = 0
    rows = [X.row(i) for i in range(k)]
    for (support, z), count in draws.items():
        if not any(eps_i[i] >= hit_threshold for i in support):
            misses += count
        fold_tensor = InputTensor(field, k, m - 1, fold_rows(z, rows, p))
        fold_inst = PvalInstance(field, k, m - 1, tuple(j2), fold_rows(z, Y, p))
        if hybrid_pval_distance(fold_tensor, fold_inst, marg, budget) < far_threshold:
            not_far += count

    miss_bound = math.exp(-kappa / (4 * log2k))
    far_bound = 1 / (p - 1) + math.exp(-kappa / (4 * log2k))
    report["support_hit"] = {"a_star": a_star, "weight": weight, "trials": trials,
                             "miss_rate": misses / trials, "bound": miss_bound}
    report["folded_far"] = {"fail_rate": not_far / trials, "bound": far_bound}
    return report
