"""Morphism spaces of the contact category of a disk.

Every hom space here is 0- or 1-dimensional over GF(2).  Nonvanishing is
decided by the component count of the curve obtained by stacking the two
dividing sets on the boundary of a cylinder and rounding the two corner
circles.  Rounding shifts every curve end by one marked point at each
corner; the net effect in the shared boundary parametrization is that a
curve leaving the bottom matching at point p continues on the top
matching at point p-2.  Each closed curve is traversed once in each
direction, so the curve count is half the cycle count of

    p  |->  m_top((m_bottom(p) - 2) mod (2n+2)).

The direction of the shift is calibrated: this is the unique convention
(up to conjugation by a rotation) for which identity homs are nonzero,
basic pairs agree with the greedy tightness criterion, and homs into the
rotated object never vanish.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from typing import Optional

from .bypass import BypassMove, attach, enumerate_bypasses
from .divset import DividingSet, to_matching
from .errors import ComponentMismatch, NotBasic


def _check_same_component(g: DividingSet, g2: DividingSet) -> None:
    if (g.n, g.e) != (g2.n, g2.e):
        raise ComponentMismatch(f"({g.n},{g.e}) vs ({g2.n},{g2.e})")


@lru_cache(maxsize=None)
def rounded_components(g: DividingSet, g2: DividingSet) -> int:
    """Number of closed curves after stacking g under g2 and edge rounding."""
    _check_same_component(g, g2)
    m, m2 = to_matching(g), to_matching(g2)
    size = len(m)
    seen = [False] * size
    cycles = 0
    for start in range(size):
        if seen[start]:
            continue
        cycles += 1
        p = start
        while not seen[p]:
            seen[p] = True
            p = m2[(m[p] - 2) % size]
    assert cycles % 2 == 0
    return cycles // 2


def hom_nonzero(g: DividingSet, g2: DividingSet) -> bool:
    return rounded_components(g, g2) == 1


@lru_cache(maxsize=None)
def tight_basic(g: DividingSet, g2: DividingSet) -> bool:
    """Greedy tightness criterion between basic dividing sets.

    Repeatedly move the smallest label where the based sets disagree: with
    s = min(g* \\ g2*) and s' = min(g2* \\ g*), require s < s' and that g*
    meets [s, s'] only in s, then replace s by s'.
    """
    _check_same_component(g, g2)
    if not (g.is_basic() and g2.is_basic()):
        raise NotBasic("tightness criterion applies to basic dividing sets")
    cur = set(g.star)
    target = set(g2.star)
    while cur != target:
        s = min(cur - target)
        s2 = min(target - cur)
        if s2 < s or any(t in cur for t in range(s + 1, s2 + 1)):
            return False
        cur.remove(s)
        cur.add(s2)
    return True


def composition_nonzero(g: DividingSet, g2: DividingSet, g3: DividingSet) -> bool:
    """Does the composite of the generators of Hom(g,g2) and Hom(g2,g3) survive?

    Decided by searching a chain of single nontrivial bypasses from g to g2
    all of whose stages keep a nonzero hom into g3.
    """
    _check_same_component(g, g2)
    _check_same_component(g2, g3)
    if not (hom_nonzero(g, g2) and hom_nonzero(g2, g3) and hom_nonzero(g, g3)):
        return False
    if g == g2 or g2 == g3:
        return True
    return g2 in _reachable(g, g3, True)


def composition_nonzero_right(g: DividingSet, g2: DividingSet, g3: DividingSet) -> bool:
    """Mirror search, chaining the right factor from g2 to g3 instead."""
    _check_same_component(g, g2)
    _check_same_component(g2, g3)
    if not (hom_nonzero(g, g2) and hom_nonzero(g2, g3) and hom_nonzero(g, g3)):
        return False
    if g == g2 or g2 == g3:
        return True
    return g3 in _reachable(g2, g, False)


@lru_cache(maxsize=None)
def bypass_chain(g: DividingSet, g2: DividingSet) -> Optional[tuple[BypassMove, ...]]:
    """Shortest bypass chain from g to g2 through stages with hom into g2."""
    if g == g2:
        return ()
    prev = _bypass_search(g, g2, into=True, stop=g2)
    if g2 not in prev:
        return None
    chain = []
    node = g2
    while node != g:
        node, move = prev[node]
        chain.append(move)
    return tuple(reversed(chain))


@lru_cache(maxsize=None)
def _reachable(start: DividingSet, anchor: DividingSet, into: bool) -> frozenset:
    """Objects the bypass search from start reaches; cached as a set only,
    which holds less than the search's parent map."""
    return frozenset(_bypass_search(start, anchor, into))


def _bypass_search(
    start: DividingSet,
    anchor: DividingSet,
    into: bool,
    stop: Optional[DividingSet] = None,
) -> dict:
    """Breadth-first search over nontrivial bypasses from start.

    A stage X is kept when Hom(X, anchor) != 0 (into) or Hom(anchor, X) != 0
    (not into).  Maps each reached stage to (previous stage, move), start to
    None, and returns as soon as stop is reached.
    """
    prev: dict = {start: None}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        for move in enumerate_bypasses(cur):
            nxt = attach(cur, move)
            if nxt in prev:
                continue
            if not (hom_nonzero(nxt, anchor) if into else hom_nonzero(anchor, nxt)):
                continue
            prev[nxt] = (cur, move)
            if nxt == stop:
                return prev
            queue.append(nxt)
    return prev
