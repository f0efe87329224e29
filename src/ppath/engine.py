"""Good pairs and alternating chains inside a bipartite pair.

The remaining pieces of the paper's construction: good-pair and good-tuple
detection inside dense bipartite pairs, and the alternating chain
construction that flattens a sequence of good tuples into a verified path
power. No command runs them; the acceptance suite and the calibration
pilots check them. All operations are pure functions of their inputs;
thresholds are compared in exact rational arithmetic, never by float
equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import PowerPath, verify_power_path
from .tournament import BipartitePair, Tournament, VertexSet

# Cap on full k-tuples examined per good-tuple search (k >= 3 only).
_TUPLE_SCAN_CAP = 50_000


class InvalidVertexError(ValueError):
    """Queried vertex is not a member of the required side."""


def _ceil_frac(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


@dataclass(frozen=True)
class RegularityParams:
    """Tolerances of the good-pair threshold: 0 < eps < delta <= 1/2."""

    eps: float = 0.01
    delta: float = 0.1

    def __post_init__(self) -> None:
        if not 0 < self.eps < self.delta <= 0.5:
            raise ValueError("need 0 < eps < delta <= 1/2")

    @property
    def eps_f(self) -> Fraction:
        return Fraction(self.eps)


DEFAULT_PARAMS = RegularityParams()


@dataclass(frozen=True)
class GoodPair:
    """Same-side pair whose joint forward neighborhood is large.

    x -> y is the tournament edge inside the side; witness_size counts
    N+(x) & N+(y) restricted to the pair's far side.
    """

    x: int
    y: int
    pair: BipartitePair
    witness_size: int


def _min_good_count(d: Fraction, eps_f: Fraction, target_size: int, k: int = 2) -> int:
    """Smallest integer count satisfying count >= (d^k - 10(k-1)eps) * size."""
    threshold = (d**k - 10 * (k - 1) * eps_f) * target_size
    if threshold <= 0:
        return 0
    return _ceil_frac(threshold)


def good_pair_threshold(pair: BipartitePair, params: RegularityParams) -> int:
    """Minimum joint forward count that makes a side-a pair good."""
    return _min_good_count(pair.d_ab, params.eps_f, len(pair.b))


def is_good_pair(
    t: Tournament, pair: BipartitePair, x: int, y: int, params: RegularityParams
) -> bool:
    """Exact integer test of |N+(x) & N+(y) & B| >= (d^2 - 10 eps)|B|,
    with d the pair's measured a->b density."""
    if x == y or x not in pair.a or y not in pair.a:
        raise InvalidVertexError("x, y must be distinct members of side a")
    count = (t.rows[x] & t.rows[y] & pair.b.mask).bit_count()
    return count >= good_pair_threshold(pair, params)


def find_good_pair(
    t: Tournament, pair: BipartitePair, f: VertexSet, params: RegularityParams
) -> Optional[GoodPair]:
    """First good pair within f in increasing-label order, or None.

    The returned pair is oriented by its tournament edge (x -> y).
    """
    if f.mask & ~pair.a.mask:
        raise InvalidVertexError("f must be a subset of side a")
    need = good_pair_threshold(pair, params)
    got = _first_good_pair_masked(t.rows, f.mask, pair.b.mask, need)
    if got is None:
        return None
    x, y = got
    return GoodPair(x, y, pair, (t.rows[x] & t.rows[y] & pair.b.mask).bit_count())


def _iter_bits(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _first_good_pair_masked(
    rows: tuple[int, ...], f_mask: int, target_mask: int, need: int
) -> Optional[tuple[int, int]]:
    """Lex-first pair within f_mask whose joint forward count into
    target_mask reaches need; oriented by the internal edge."""
    members = _iter_bits(f_mask)
    for i, x in enumerate(members):
        rx = rows[x]
        for y in members[i + 1 :]:
            if (rx & rows[y] & target_mask).bit_count() >= need:
                return (x, y) if (rx >> y) & 1 else (y, x)
    return None


def _first_good_tuple_masked(
    rows: tuple[int, ...], f_mask: int, target_mask: int, need: int, k: int
) -> Optional[tuple[int, ...]]:
    """First transitively ordered k-tuple within f_mask whose joint forward
    count into target_mask reaches need.

    Tuples are explored in nested ascending-label order; each next member is
    drawn from the running forward intersection, which forces the internal
    transitive orientation. The scan is capped at _TUPLE_SCAN_CAP full
    tuples, deterministically.
    """
    if f_mask.bit_count() < k:
        return None
    checked = 0

    def extend(tup: list[int], allowed: int) -> Optional[tuple[int, ...]]:
        nonlocal checked
        m = allowed
        while m:
            b = m & -m
            v = b.bit_length() - 1
            m ^= b
            tup.append(v)
            if len(tup) == k:
                checked += 1
                joint = target_mask
                for u in tup:
                    joint &= rows[u]
                if joint.bit_count() >= need:
                    return tuple(tup)
                tup.pop()
                if checked >= _TUPLE_SCAN_CAP:
                    return None
            else:
                got = extend(tup, allowed & rows[v])
                if got is not None:
                    return got
                tup.pop()
                if checked >= _TUPLE_SCAN_CAP:
                    return None
        return None

    return extend([], f_mask)


def _chain_tuples(
    t: Tournament,
    pair: BipartitePair,
    k: int,
    params: RegularityParams,
    start_side: str,
) -> list[tuple[int, ...]]:
    """Alternating sequence of good k-tuples; goodness on both sides is
    judged against the single pair density d = d_ab."""
    rows = t.rows
    a_mask, b_mask = pair.a.mask, pair.b.mask
    d = pair.d_ab
    eps_f = params.eps_f
    need_into = {
        b_mask: _min_good_count(d, eps_f, len(pair.b), k),
        a_mask: _min_good_count(d, eps_f, len(pair.a), k),
    }
    if start_side == "a":
        side_mask, other_mask = a_mask, b_mask
    elif start_side == "b":
        side_mask, other_mask = b_mask, a_mask
    else:
        raise ValueError("start_side must be 'a' or 'b'")
    used = 0
    tuples: list[tuple[int, ...]] = []
    f_mask = side_mask
    while True:
        need = need_into[other_mask]
        if k == 2:
            tup = _first_good_pair_masked(rows, f_mask, other_mask, need)
        else:
            tup = _first_good_tuple_masked(rows, f_mask, other_mask, need, k)
        if tup is None:
            break
        tuples.append(tup)
        common = other_mask
        for v in tup:
            used |= 1 << v
            common &= rows[v]
        f_mask = common & ~used
        side_mask, other_mask = other_mask, side_mask
    return tuples


def chain_power_path(
    t: Tournament,
    pair: BipartitePair,
    k: int,
    params: RegularityParams,
    start_side: str = "a",
) -> PowerPath:
    """Flatten an alternating good-tuple chain into a verified k-power.

    Total on any pair: an empty or k-vertex result signals immediate stall.
    The flattened sequence is verified before returning and truncated to the
    longest verified prefix if that check ever failed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    tuples = _chain_tuples(t, pair, k, params, start_side)
    flat = tuple(v for tup in tuples for v in tup)
    if __debug__ and tuples:
        assert len(set(flat)) == len(flat), "chain reused a vertex"
        sides = [0 if (1 << tup[0]) & pair.a.mask else 1 for tup in tuples]
        assert all(
            sides[i] != sides[i + 1] for i in range(len(sides) - 1)
        ), "chain did not alternate sides"
    return _truncate_verified(t, k, flat)


def _truncate_verified(t: Tournament, k: int, flat: tuple[int, ...]) -> PowerPath:
    """Cut flat at its first violation until it verifies as a k-th power."""
    while True:
        path = PowerPath(k, flat)
        ok, violation = verify_power_path(t, path)
        if ok:
            return path
        flat = flat[: violation[1]]
