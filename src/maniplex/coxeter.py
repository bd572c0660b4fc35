"""The sparse/semisparse classification of a maniplex's flag action.

A rank-n maniplex is a transitive action of the universal string group on
n involutory generators r_0 .. r_{n-1}.  It is sparse when its face poset
is an abstract polytope, and semisparse when it is also faithful.  The
polytope report is `poset.polytope_report`'s: a valid maniplex whose
automorphisms have one flag orbit, or two, in any class 2_I, that one
lemma decides from a few images of flag 0 (`core.flag_orbits`), is
judged at one flag per orbit (fact (f) of the `poset` module docstring),
and so is its faithfulness, from the representatives' own faces: no
face poset, no chain set, no face table.  Any other, or one that fails
there, is judged from its face poset, whose search names the witness.
The orbits are kept in the maniplex's cache, so `automorphism_count`
after `verdict` propagates nothing more.

The CLI's `verdict` writes `schreier_ok` without building a word, since
on its inputs, valid maniplexes, the Schreier correspondence holds from
every base flag Φ (`tests/oracles.py` computes the
full report as `schreier_report`):

- Shortest-lex words reach every flag: the search from Φ sets
  words[g] = (i,) + words[f] when g = r_i f is first reached, and the
  flag graph is connected, its reach symmetric as the rows are involutions.
- Each word carries Φ to its flag, by induction over the search: words[Φ]
  is empty, and if words[f] carries Φ to f, then (i,) + words[f], read
  rightmost letter first, carries it to r_i f = g.
- No generator fixes Φ, by the fixed-point-free axiom.
- No r_i r_j with i != j fixes Φ: applying r_i to r_i r_j Φ = Φ gives
  r_j Φ = r_i Φ, which proper colouring rules out.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Maniplex
from .poset import is_faithful, polytope_report


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
    """Classify the maniplex: sparse iff polytopal, semisparse iff also
    faithful; ValueError when it is not a valid maniplex."""
    poly = polytope_report(m)
    faith = is_faithful(m)
    sparse = poly.ok
    semisparse = sparse and faith.faithful
    if not sparse:
        witness: object = (poly.failed, poly.witness)
    elif not faith.faithful:
        witness = faith.witness
    else:
        witness = None
    return Verdict(sparse, semisparse, witness)
