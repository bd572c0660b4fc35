import random

import pytest

import suites


@pytest.fixture(scope="module")
def counts(named_corpus, b_maniplex, bstar_result):
    """Run every suite once and collect how many cases each covered."""
    rng = random.Random(suites.SEED)
    small = list(named_corpus.values())
    rich = small + [b_maniplex, bstar_result.bstar]
    return {
        "square-axiom": suites.suite_square_axiom(rich),
        "component-refinement": suites.suite_component_refinement(rich, rng),
        "zero-voltage": suites.suite_zero_voltage_cover(rich),
        "sheet-swap": suites.suite_sheet_swap(small, rng),
        "poset-roundtrip": suites.suite_poset_roundtrip(rich),
        "quotient-commutes": suites.suite_quotient_commutes(
            b_maniplex, bstar_result.bstar, rng
        ),
        "automorphism-bounds": suites.suite_automorphism_bounds(rich),
        "chain-counts": suites.suite_chain_counts(rich),
        "schreier-words": suites.suite_schreier_words(small + [b_maniplex]),
    }


def test_every_suite_ran(counts):
    assert all(n > 0 for n in counts.values())
    assert len(counts) == 9


def test_case_volume(counts):
    assert sum(counts.values()) >= 1000


def test_deterministic_under_reseeding(named_corpus):
    members = [named_corpus["cube"], named_corpus["torus(2,1)"]]
    first = suites.suite_sheet_swap(members, random.Random(suites.SEED))
    second = suites.suite_sheet_swap(members, random.Random(suites.SEED))
    assert first == second
