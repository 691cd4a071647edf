"""Singularity input formats and positive-braid link presentations.

Covers Puiseux pair data, iterated-torus cable pairs, the catalog braids
for simple singularities, torus braids, full-twist completion, and the
numerical invariants carried by a positive braid closure (rainbow
closure, all strands coherently oriented).
"""

from __future__ import annotations

import math
import re

from .records import Record


class LinkError(ValueError):
    pass


MAX_BRAID = 10**5  # letters, and strands, of a braid word


def _check_braid_size(strands: int, letters: int) -> None:
    """Reject a braid word over ``MAX_BRAID`` letters or strands before it is built.

    Raises :class:`~singlink.fqmath.BudgetExceededError` (CLI exit code 3).
    """
    for count, what in ((letters, "letters"), (strands, "strands")):
        if count > MAX_BRAID:
            from .fqmath import BudgetExceededError

            raise BudgetExceededError(
                f"a braid word of {count} {what} exceeds the braid bound {MAX_BRAID}", MAX_BRAID
            )


class PuiseuxPairs(Record):
    """Ordered characteristic pairs (n_i, m_i) of a Puiseux expansion.

    Requires m_i >= 2, gcd(n_i, m_i) = 1 and strictly increasing exponents:
    n_i / (m_1...m_i) > n_{i-1} / (m_1...m_{i-1}), i.e. n_i > n_{i-1} * m_i.
    A pair with a common factor is not characteristic: (4, 2) is the
    exponent 4/2 = 2 of the smooth branch y = x^2.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]) -> None:
        super().__init__(tuple((int(n), int(m)) for n, m in pairs))
        if not self.pairs:
            raise LinkError("Puiseux data must be nonempty")
        prev_n = 0
        for n, m in self.pairs:
            if m < 2:
                raise LinkError(f"Puiseux multiplicity {m} must be >= 2")
            if n < 1:
                raise LinkError(f"Puiseux exponent numerator {n} must be positive")
            if n <= prev_n * m:
                raise LinkError(
                    "Puiseux exponents must strictly increase: "
                    f"need n_i > n_(i-1)*m_i, got {n} <= {prev_n}*{m}"
                )
            common = math.gcd(n, m)
            if common > 1:
                raise LinkError(
                    f"Puiseux pair ({n}, {m}) is not characteristic: gcd = {common} > 1"
                )
            prev_n = n


class CablePairs(Record):
    """Cable pairs (l_i, m_i) of an iterated torus link, innermost first."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]) -> None:
        super().__init__(tuple((int(l), int(m)) for l, m in pairs))
        if not self.pairs:
            raise LinkError("cable data must be nonempty")
        for l, m in self.pairs:
            if l < 1 or m < 1:
                raise LinkError(f"cable pair ({l}, {m}) must be positive")


class BraidWord(Record):
    """Positive braid on ``strands`` strands given by Artin generator indices."""

    __slots__ = ("strands", "letters")

    def __init__(self, strands: int, letters: tuple[int, ...]) -> None:
        _check_braid_size(strands, len(letters))
        super().__init__(strands, tuple(int(k) for k in letters))
        if strands < 1:
            raise LinkError("braid needs at least one strand")
        for k in self.letters:
            if not 1 <= k <= strands - 1:
                raise LinkError(f"generator index {k} out of range for {strands} strands")

    def __len__(self) -> int:
        return len(self.letters)

    def permutation(self) -> tuple[int, ...]:
        """Underlying permutation (image of each strand, 0-based)."""
        perm = list(range(self.strands))
        for k in self.letters:
            perm[k - 1], perm[k] = perm[k], perm[k - 1]
        return tuple(perm)

    def to_text(self) -> str:
        return " ".join(str(k) for k in self.letters)


def braid_from_text(text: str, strands: int | None = None) -> BraidWord:
    """Parse whitespace-separated generator indices.

    When ``strands`` is omitted it is inferred as max(letter) + 1.
    """
    tokens = text.split()
    _check_braid_size(strands or 0, len(tokens))
    if not all(re.fullmatch(r"\d+", tok) for tok in tokens):
        raise LinkError(f"braid word must be whitespace-separated indices, got {text!r}")
    letters = tuple(int(tok) for tok in tokens)
    if strands is None:
        if not letters:
            raise LinkError("cannot infer strand count from an empty word")
        strands = max(letters) + 1
    return BraidWord(strands, letters)


class LinkInvariants(Record):
    __slots__ = ("components", "euler_characteristic", "first_betti", "tb", "milnor_number")


class DynkinType(Record):
    """A finite-type Dynkin label: A_n (n >= 1), B_n and C_n (n >= 2),
    D_n (n >= 3), E_6, E_7, E_8, F_4 or G_2."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int) -> None:
        super().__init__(family.upper(), rank)
        fam = self.family
        ok = (
            (fam == "A" and rank >= 1)
            or (fam in ("B", "C") and rank >= 2)
            or (fam == "D" and rank >= 3)
            or (fam == "E" and rank in (6, 7, 8))
            or (fam == "F" and rank == 4)
            or (fam == "G" and rank == 2)
        )
        if not ok:
            raise LinkError(f"({fam}, {rank}) is not in the finite-type table")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


# A family letter, any underscores and decimal digits: E6, d_5, " b3 ".
# At most 6 digits after leading zeros, enough for every rank up to MAX_BRAID
# and few enough that int() never meets CPython's digit limit.
_LABEL_RE = re.compile(r"\s*([A-Ga-g])_*0*(\d{1,6})\s*")


def parse_dynkin_type(text: str) -> DynkinType:
    m = _LABEL_RE.fullmatch(text)
    if not m:
        raise LinkError(f"cannot parse Dynkin type {text!r}")
    return DynkinType(m.group(1), int(m.group(2)))


def parse_ade_label(label: DynkinType | str) -> DynkinType:
    """The label of a simple singularity: family A, D or E (text is parsed)."""
    if isinstance(label, str):
        label = parse_dynkin_type(label)
    if label.family not in ("A", "D", "E"):
        raise LinkError(f"not an ADE family: {label.family!r}")
    return label


# -- operations ---------------------------------------------------------------


def cable_pairs_from_puiseux(p: PuiseuxPairs) -> CablePairs:
    """Cable pairs of the iterated torus link of a Puiseux expansion.

    Uses the recursion s_1 = n_1, s_i = (n_i - n_{i-1} m_i) + m_i m_{i-1} s_{i-1},
    emitting (m_i, s_i); the first pair is the torus pair (m_1, n_1).

    Regression anchors: (3,2),(7,2) -> (2,3),(2,13) and
    (3,2),(10,3) -> (2,3),(3,19).  Non-recursive variants of the last
    term (with n_{i-1} in place of s_{i-1}, or a trailing n_i factor)
    reproduce these depth-2 values but break the algebraicity inequality
    at depth >= 3, so the recursive form is the one implemented; see
    :func:`is_algebraic`.
    """
    out = []
    prev_n = prev_m = prev_s = 0
    for n, m in p.pairs:
        s = (n - prev_n * m) + m * prev_m * prev_s
        out.append((m, s))
        prev_n, prev_m, prev_s = n, m, s
    return CablePairs(tuple(out))


def is_algebraic(c: CablePairs) -> bool:
    """Whether the iterated cable is the link of an isolated singularity.

    The condition is m_{i+1} > (l_i m_i) l_{i+1} for consecutive cable
    pairs; vacuously true for a single pair.
    """
    pairs = c.pairs
    for (l1, m1), (l2, m2) in zip(pairs, pairs[1:]):
        if m2 <= l1 * m1 * l2:
            return False
    return True


def ade_braid(label: DynkinType | str) -> BraidWord:
    """Positive braid presenting the link of a simple singularity.

    A_n: sigma_1^(n+1) on 2 strands.
    D_n: sigma_1^(n-2) sigma_2 sigma_1^2 sigma_2 on 3 strands (n >= 3).
    E_n: sigma_1^(n-3) sigma_2 sigma_1^3 sigma_2 on 3 strands (n = 6, 7, 8).
    """
    label = parse_ade_label(label)
    n = label.rank
    if label.family == "A":
        _check_braid_size(2, n + 1)
        return BraidWord(2, (1,) * (n + 1))
    _check_braid_size(3, n + 2)
    if label.family == "D":
        return BraidWord(3, (1,) * (n - 2) + (2,) + (1, 1) + (2,))
    return BraidWord(3, (1,) * (n - 3) + (2,) + (1, 1, 1) + (2,))


def torus_braid(a: int, b: int) -> BraidWord:
    """The (a, b)-torus link braid: (sigma_1 ... sigma_{a-1})^b on a strands."""
    if a < 2 or b < 2:
        raise LinkError("torus parameters must both be >= 2")
    _check_braid_size(a, (a - 1) * b)
    return BraidWord(a, tuple(range(1, a)) * b)


def half_twist(strands: int) -> BraidWord:
    """The positive half twist: (s1)(s2 s1)...(s_{i-1} ... s1)."""
    _check_braid_size(strands, strands * (strands - 1) // 2)
    letters = []
    for j in range(1, strands):
        letters.extend(range(j, 0, -1))
    return BraidWord(strands, tuple(letters))


def append_full_twist(braid: BraidWord) -> BraidWord:
    """Return the word beta * Delta^2 with Delta the positive half twist.

    The (-1)-framed closure of the result presents the same link as the
    rainbow closure of ``braid``; Delta^2 contributes i(i-1) letters on i
    strands (none for a single strand).
    """
    n = braid.strands
    _check_braid_size(n, len(braid) + n * (n - 1))
    delta = half_twist(n).letters
    return BraidWord(n, braid.letters + delta + delta)


def braid_invariants(braid: BraidWord) -> LinkInvariants:
    """Invariants of the rainbow closure of a positive braid.

    chi = strands - |letters| is the Euler characteristic of the
    Bennequin (fiber) surface, b1 = 1 - chi its first Betti number when
    the surface is connected (words using every generator), tb =
    |letters| - strands the maximal Thurston-Bennequin number, and the
    Milnor number equals b1.
    """
    perm = braid.permutation()
    seen = [False] * braid.strands
    components = 0
    for i in range(braid.strands):
        if seen[i]:
            continue
        components += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    chi = braid.strands - len(braid.letters)
    b1 = 1 - chi
    return LinkInvariants(
        components=components,
        euler_characteristic=chi,
        first_betti=b1,
        tb=len(braid.letters) - braid.strands,
        milnor_number=b1,
    )
