"""Words over the distinguished generators, acting on flags.

A rank-n maniplex is a transitive action of the universal string group on
n involutory generators r_0 .. r_{n-1}; a word is a tuple of letters and
acts right-to-left, so ``act(m, u + v, f) == act(m, u, act(m, v, f))``.
The Schreier machinery below names every flag by its shortest-lex word
from a base flag and phrases the classification of the action (sparse /
semisparse) in those terms.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .core import Maniplex
from .poset import is_faithful, is_polytope, pos_of

Word = tuple[int, ...]


def _check_letters(m: Maniplex, word: Sequence[int]) -> None:
    for letter in word:
        if not 0 <= letter < m.rank:
            raise ValueError(f"letter {letter} out of range for rank {m.rank}")


def act(m: Maniplex, word: Sequence[int], flag: int) -> int:
    """Apply a word to a flag, rightmost letter first."""
    if not 0 <= flag < m.flag_count:
        raise ValueError(f"flag {flag} out of range")
    _check_letters(m, word)
    for letter in reversed(word):
        flag = m.perms[letter][flag]
    return flag


def coset_words(m: Maniplex, base: int = 0) -> tuple[Word, ...]:
    """Shortest-lex word from `base` to every flag (breadth-first)."""
    if not 0 <= base < m.flag_count:
        raise ValueError(f"flag {base} out of range")
    words: list[Optional[Word]] = [None] * m.flag_count
    words[base] = ()
    frontier = [base]
    while frontier:
        candidates: dict[int, Word] = {}
        for f in frontier:
            wf = words[f]
            assert wf is not None
            for i in range(m.rank):
                g = m.perms[i][f]
                if words[g] is not None:
                    continue
                cand = (i,) + wf
                prev = candidates.get(g)
                if prev is None or cand < prev:
                    candidates[g] = cand
        for g, w in candidates.items():
            words[g] = w
        frontier = sorted(candidates)
    if any(w is None for w in words):
        raise ValueError("flag graph is not connected")
    return tuple(words)  # type: ignore[arg-type]


class SchreierReport(NamedTuple):
    words: tuple[Word, ...]
    acts_correctly: bool  # act(words[f], base) == f for every flag
    single_letters_free: bool  # no generator stabilizes the base flag
    letter_pairs_free: bool  # no word r_i r_j (i != j) stabilizes it

    @property
    def ok(self) -> bool:
        return self.acts_correctly and self.single_letters_free and self.letter_pairs_free


def schreier_correspondence(m: Maniplex, base: int = 0) -> SchreierReport:
    """Certify the flag/coset dictionary given by shortest-lex words."""
    words = coset_words(m, base)
    acts = all(act(m, words[f], base) == f for f in range(m.flag_count))
    singles = all(m.perms[i][base] != base for i in range(m.rank))
    pairs = all(
        m.perms[i][m.perms[j][base]] != base
        for i in range(m.rank)
        for j in range(m.rank)
        if i != j
    )
    return SchreierReport(words, acts, singles, pairs)


class Verdict(NamedTuple):
    sparse: bool  # the flag action yields an abstract polytope
    semisparse: bool  # sparse, and flags embed into chains
    witness: object  # what broke, when either claim fails

    @property
    def summary(self) -> str:
        if self.semisparse:
            return "semisparse"
        if self.sparse:
            return "sparse, not semisparse"
        return "not sparse"


def verdict(m: Maniplex) -> Verdict:
    """Classify the maniplex: sparse iff polytopal, semisparse iff also faithful."""
    poly = is_polytope(pos_of(m))
    faith = is_faithful(m)
    sparse = poly.ok
    semisparse = sparse and faith.faithful
    if not sparse:
        witness: object = (poly.malformed or poly.failed, poly.witness)
    elif not faith.faithful:
        witness = faith.witness
    else:
        witness = None
    return Verdict(sparse, semisparse, witness)
