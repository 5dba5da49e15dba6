"""Differential property test of ``align_rosters``.

``align_rosters`` checks every rule in one walk and emits each later id's
lineage in a second walk over the later roster. On overlapping rosters
drawn from a small id alphabet, under maps of up to three rules of each
kind, it must agree with the rule-by-rule aligner in ``oracles``: the same
``Alignment``, or an ``InputError`` with the same text. Rule ids come
mostly from the roster they belong to and sometimes from the other roster
or from neither, and targets sometimes repeat a source. So dangling ids,
source and target conflicts, rename and merge sources still present,
split sources kept by identity (``AA -> [AA, AZ]``) and self-renames all
occur. The profile is derandomized, so every run draws the same examples.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from panelrank import EntityMap, InputError, MapRule, align_rosters  # noqa: E402

from oracles import align_by_rules  # noqa: E402

PROFILE = settings(derandomize=True, max_examples=600, deadline=None,
                   database=None)

ALPHABET = ("AA", "AZ", "BB", "BC", "CC", "DD", "EE", "FF")
UNKNOWN = ("ZZ",)
# (sources, targets) size ranges of each rule kind.
SHAPES = {"renames": ((1, 1), (1, 1)), "splits": ((1, 1), (2, 3)),
          "merges": ((2, 3), (1, 1))}

rosters = st.lists(st.sampled_from(ALPHABET), min_size=2,
                   max_size=len(ALPHABET), unique=True)


def draw_ids(draw, size, weighted_pools):
    """``size`` ids, each from a pool drawn with the given weight."""
    choices = [pool for pool, weight in weighted_pools if pool
               for _ in range(weight)]
    return tuple(draw(st.sampled_from(draw(st.sampled_from(choices))))
                 for _ in range(draw(st.integers(*size))))


@st.composite
def roster_maps(draw):
    earlier, later = draw(rosters), draw(rosters)
    rules = {}
    for kind, (source_size, target_size) in SHAPES.items():
        parsed = []
        for _ in range(draw(st.sampled_from((0, 0, 1, 1, 2, 3)))):
            sources = draw_ids(draw, source_size,
                               ((earlier, 8), (later, 1), (UNKNOWN, 1)))
            targets = draw_ids(draw, target_size,
                               ((later, 6), (sources, 2), (earlier, 1),
                                (UNKNOWN, 1)))
            parsed.append(MapRule(sources, targets))
        rules[kind] = tuple(parsed)
    return earlier, later, EntityMap(**rules)


def outcome(align, earlier, later, emap):
    try:
        return align(earlier, later, emap)
    except InputError as exc:
        return "error: " + str(exc)


@PROFILE
@given(roster_maps())
def test_align_rosters_matches_rule_by_rule(case):
    assert outcome(align_rosters, *case) == outcome(align_by_rules, *case)

