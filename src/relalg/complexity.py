"""Few-generator subalgebras, their embeddings, and the length lower bound.

Every subalgebra of L(p,n) generated by gamma elements with 2^gamma <
p+1 avoids separating some pair of slope atoms: the p+1 slope indices
take at most 2^gamma membership patterns across the generators, so two
indices i, j share a pattern (pigeonhole), the transposition swapping
a_i and a_j is an automorphism fixing every generator, and hence the
generated subalgebra lies inside the fused subalgebra L^ij(p,n).
Composing with the fusion embedding then lands the subalgebra in
L(p',n) for any p' >= p, fixing every bridge atom.

choose_params picks, for a given gamma, the smallest odd prime power p
exceeding 2^gamma - 1 (and at least 3) together with n = (p+1)/2, so
2n > p: the algebra is then certified non-representable while all its
gamma-generated subalgebras embed into larger members of the family.

beta_lower_bound is the resulting lower bound on how long an equation
must be to separate representable from weakly representable algebras of
a given size m:  beta(m) > log2(2*log2(m) - 5) - log2(3) for m >= 2^7.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .algebra import (
    Element,
    Embedding,
    EmbeddingReport,
    FiniteRelationAlgebra,
    Frozen,
    SubalgebraDescription,
    generate_subalgebra,
)
from .gf import is_prime_power
from .lpn import _lift


def _next_odd_prime_power(above: int) -> int:
    q = max(above + 1, 3)
    while True:
        if q % 2 == 1 and is_prime_power(q):
            return q
        q += 1


def choose_params(gamma: int) -> tuple[int, int]:
    """Smallest admissible (p, n): odd prime power p > 2^gamma - 1, p >= 3,
    and n = (p+1)/2."""
    if gamma < 1:
        raise ValueError("gamma must be at least 1")
    bound = (1 << gamma) - 1
    limit = 1 << (gamma + 2)
    p = _next_odd_prime_power(bound)
    if p > limit:
        raise RuntimeError(f"no odd prime power found in ({bound}, {limit}]")
    return p, (p + 1) // 2


def pigeonhole_pair(gens: Sequence[Element]) -> tuple[int, int]:
    """First pair of slope indices with identical membership patterns.

    Each index i in 0..p gets the bit vector of which generators contain
    a_i; with 2^|gens| < p+1 two indices must collide.  Pairs are scanned
    in lexicographic order (0,1), (0,2), ...
    """
    if not gens:
        raise ValueError("need at least one generator")
    algebra = gens[0].algebra
    if algebra.lpn_params is None:
        raise ValueError("generators must live in an L(p,n) algebra")
    p, _ = algebra.lpn_params
    patterns = [
        tuple(bool(g.bits >> (1 + i) & 1) for g in gens) for i in range(p + 1)
    ]
    for i in range(p + 1):
        for j in range(i + 1, p + 1):
            if patterns[i] == patterns[j]:
                return i, j
    raise ValueError(
        f"no pigeonhole pair: {len(gens)} generators over {p + 1} slope indices "
        "(requires 2^gamma < p+1)"
    )


class GammaWitnessPlan(Frozen):
    __slots__ = ("gamma", "p", "n", "fusion", "target_p")
    gamma: int
    p: int
    n: int
    fusion: tuple[int, int]
    target_p: int

    def __init__(self, gamma: int, p: int, n: int, fusion: tuple[int, int], target_p: int):
        if (1 << gamma) >= p + 1:
            raise ValueError("plan needs 2^gamma < p+1")
        if 2 * n <= p:
            raise ValueError("plan needs n > p/2 so the algebra is non-representable")
        if target_p < p:
            raise ValueError("target parameter must be at least p")
        super().__init__(gamma, p, n, fusion, target_p)


class GammaEmbeddingResult(NamedTuple):
    plan: GammaWitnessPlan
    subalgebra: SubalgebraDescription
    embedding: Embedding
    report: EmbeddingReport
    target: FiniteRelationAlgebra


def build_gamma_embedding(gens: Sequence[Element], target_p: int) -> GammaEmbeddingResult:
    """Verified embedding of the subalgebra generated by ``gens`` into
    L(target_p, n).

    The generated subalgebra never separates the pigeonhole pair (i,j),
    so each of its atoms either contains both a_i and a_j or neither;
    the embedding adds the new slope atoms a_(p+1)..a_(target_p) to every
    atom containing the pair and fixes everything else, bridge atoms
    included.
    """
    if not gens:
        raise ValueError("need at least one generator")
    algebra = gens[0].algebra
    if algebra.lpn_params is None:
        raise ValueError("generators must live in an L(p,n) algebra")
    p, n = algebra.lpn_params
    i, j = pigeonhole_pair(gens)
    plan = GammaWitnessPlan(len(gens), p, n, (i, j), target_p)

    sub = generate_subalgebra(algebra, list(gens))
    pair_mask = (1 << (1 + i)) | (1 << (1 + j))
    for cell in sub.atoms:
        got = cell.bits & pair_mask
        if got not in (0, pair_mask):
            raise AssertionError(
                "subalgebra atom separates the pigeonhole pair; "
                "pigeonhole selection is broken"
            )

    masks = {cell.bits: cell.bits for cell in sub.atoms}
    target, embedding, report = _lift(sub, masks, p, n, pair_mask, target_p)
    return GammaEmbeddingResult(plan, sub, embedding, report, target)


def algebra_size(p: int, n: int) -> int:
    """Number of elements of L(p,n): 2^(1 + (p+1) + n)."""
    if p < 3 or n < 0:
        raise ValueError("need p >= 3 and n >= 0")
    return 1 << (p + n + 2)


def beta_lower_bound(m: int) -> float:
    """Lower bound on the separating equation length at algebra size m.

    Defined for m >= 2^7; evaluates log2(2*log2(m) - 5) - log2(3).
    Monotone nondecreasing in m.
    """
    if m < 1 << 7:
        raise ValueError("bound applies for m >= 2^7")
    return math.log2(2 * math.log2(m) - 5) - math.log2(3)
