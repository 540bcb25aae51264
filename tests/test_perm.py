import itertools

import pytest

from twistlab.mcg import FreeAutomorphism, commutator_auto, evaluate
from twistlab.perm import NestedCommutatorAction, act, points


def corollary_twists(genus):
    return (
        evaluate((("Sep1", 1),), genus),
        evaluate((("C3", 1), ("Sep1", 1), ("C3", -1)), genus),
    )


def test_points_cover_every_homomorphism_once_x1_fastest():
    pts = list(points(1))
    assert len(pts) == len(set(pts)) == 36
    assert pts[:2] == [(0, 0), (1, 0)]


def test_identity_fixes_every_point():
    one = FreeAutomorphism.identity(2)
    assert all(act(phi, one) == phi for phi in points(2))


def test_action_is_a_right_action():
    f = evaluate((("C1", 1), ("Sep1", -1)), 2)
    g = evaluate((("C3", 1), ("C2", 1)), 2)
    for phi in points(2):
        assert act(act(phi, f), g) == act(phi, f.compose(g))
        assert act(act(phi, f), f.inverse()) == phi


def test_braid_and_commutation_relations_hold_in_the_action():
    c1, c2, c3 = (evaluate(((n, 1),), 2) for n in ("C1", "C2", "C3"))

    def along(phi, *fs):
        for f in fs:
            phi = act(phi, f)
        return phi

    for phi in points(2):
        assert along(phi, c1, c2, c1) == along(phi, c2, c1, c2)
        assert along(phi, c1, c3) == along(phi, c3, c1)


@pytest.mark.parametrize("sign", [1, -1])
def test_recursion_matches_the_direct_action_of_w1(sign):
    t_a, t_b = corollary_twists(2)
    w_1 = commutator_auto(t_a, t_b)
    direct = w_1 if sign == 1 else w_1.inverse()
    action = NestedCommutatorAction(t_a, t_b)
    for phi in points(2):
        assert action.image(phi, 1, sign) == act(phi, direct)


@pytest.mark.parametrize("genus", [2, 3])
def test_nested_commutators_move_a_point(genus):
    action = NestedCommutatorAction(*corollary_twists(genus))
    for m in range(1, 6):
        phi = action.moved_point(m)
        assert phi is not None
        assert action.image(phi, m) != phi


def test_identity_classes_are_never_certified():
    # [t_a, t_a] = 1, and twists along disjoint curves commute
    t_a = evaluate((("Sep1", 1),), 2)
    c1 = evaluate((("C1", 1),), 2)
    for a, b in ((t_a, t_a), (t_a, c1)):
        assert commutator_auto(a, b).is_identity()
        action = NestedCommutatorAction(a, b)
        for m in (1, 2):
            assert action.moved_point(m) is None


def test_moved_point_is_the_first_in_order():
    t_a, t_b = corollary_twists(2)
    action = NestedCommutatorAction(t_a, t_b)
    phi = action.moved_point(1)
    w_1 = commutator_auto(t_a, t_b)
    before = itertools.takewhile(lambda p: p != phi, points(2))
    assert all(act(p, w_1) == p for p in before)
