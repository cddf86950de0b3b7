"""Per-node code of the separation drivers: the Linial step builds no
cover-free set, and schedules that depend only on common knowledge are
computed once and shared by every vertex."""

import random

import pytest

from repro.algorithms import barenboim_elkin_coloring
from repro.algorithms.linial import (
    choose_cover_free_params,
    cover_free_set,
    linial_recolor,
    linial_schedule,
)
from repro.algorithms.rand_tree_coloring import ColorBiddingConfig
from repro.algorithms.reduction import _kw_stage_plan
from repro.core import use_backend
from repro.graphs.generators import complete_regular_tree_with_size
from repro.lcl import KColoring


def _set_scan_recolor(color, neighbor_colors, k, degree):
    """The Theorem-1 step by its definition: build every set, return the
    smallest element of the own set that no neighbor set covers."""
    d, q = choose_cover_free_params(k, degree)
    own = cover_free_set(color, d, q)
    covered = set()
    for c in neighbor_colors:
        covered |= cover_free_set(c, d, q)
    for element in sorted(own):
        if element not in covered:
            return element
    raise AssertionError(
        "cover-free property violated — more neighbors than the family "
        "parameter supports"
    )


def _outcome(recolor, *args):
    try:
        return "ok", recolor(*args)
    except (AssertionError, TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _random_case(rng):
    k = rng.randint(2, 1 << rng.randint(1, 20))
    degree = rng.randint(1, 9)
    d, q = choose_cover_free_params(k, degree)
    top = q ** (d + 1)  # the first color outside the family

    def color():
        roll = rng.random()
        if roll < 0.03:
            return rng.choice([top, top + rng.randrange(top), -1])
        return rng.randrange(k)

    own = color()
    neighbors = []
    for _ in range(rng.randint(0, degree + 3)):
        roll = rng.random()
        if roll < 0.05:
            neighbors.append(own)
        elif roll < 0.07:
            neighbors.append(None)  # a dropped message
        else:
            neighbors.append(color())
    return own, neighbors, k, degree


def test_recolor_matches_the_set_scan():
    rng = random.Random(26)
    kinds = set()
    for _ in range(600):
        case = _random_case(rng)
        expected = _outcome(_set_scan_recolor, *case)
        assert _outcome(linial_recolor, *case) == expected, case
        kinds.add(expected[0])
    # The cases reach every branch: a color, both errors, the TypeError.
    assert kinds == {"ok", AssertionError, ValueError, TypeError}


def test_recolor_builds_no_cover_free_set():
    tree = complete_regular_tree_with_size(4, 300)
    cover_free_set.cache_clear()
    with use_backend("fast"):
        report = barenboim_elkin_coloring(tree, 4)
    KColoring(4).check(tree, report.labeling)
    assert cover_free_set.cache_info().currsize == 0


@pytest.mark.parametrize(
    "schedule",
    [
        lambda: linial_schedule(1 << 20, 9),
        lambda: _kw_stage_plan(1000, 7),
        lambda: ColorBiddingConfig().escalation_schedule(9),
    ],
    ids=["linial_schedule", "kw_stage_plan", "escalation_schedule"],
)
def test_schedule_is_one_shared_tuple(schedule):
    first = schedule()
    assert isinstance(first, tuple)
    assert schedule() is first
