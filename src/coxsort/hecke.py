"""Word-level operations: 0-Hecke products, reduced words, and order
relations on a Coxeter group.

The 0-Hecke (Demazure) product folds a word left to right starting at
the identity: a letter that is already a right descent of the running
element is absorbed, any other letter multiplies in.  On reduced words
it agrees with the group product, and it is the workhorse behind both
subword complexes and the sorting orders.

>>> from coxsort.coxeter import CoxeterSystem
>>> a3 = CoxeterSystem.type_a(3)
>>> demazure(a3, (1, 2, 1, 2))
<1,2,1>
>>> b2 = CoxeterSystem.type_b(2)
>>> demazure(b2, (1, 2, 1, 2, 1))
<1,2,1,2>

``sorting_positions(system, Q, elements)`` runs one greedy pass over ``Q``
for all targets: each gets the lexicographically first set of positions of
``Q`` whose subword is a reduced word for it, and comparing these sets by
inclusion defines the sorting order of ``Q``.

The Bruhat order is ``bruhat_row(v)``, the down-set ``[e, v]`` as a bool
vector over table rows, built by lifting: for the smallest left descent
``s`` of ``v``, ``[e, v] = [e, sv] | s[e, sv]``, where ``s[e, sv]`` is one
gather through column ``s`` of the left table.  Rows are memoised only
along the descent chains of rows asked for, at most ``l(v) + 1`` a query.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .coxeter import CoxeterSystem, Element, word_str

__all__ = [
    "demazure",
    "reduced_words",
    "bruhat_row",
    "bruhat_leq",
    "weak_leq",
    "sorting_positions",
    "sorting_subword",
]


def demazure(system: CoxeterSystem, word: Iterable[int]) -> Element:
    """0-Hecke product of a word (any word, reduced or not).

    >>> a2 = CoxeterSystem.type_a(2)
    >>> demazure(a2, (1, 1, 2))
    <1,2>
    """
    return system.elements()[_suffix_demazure(system, system.check_word(word))[0]]


def reduced_words(e: Element) -> frozenset[tuple[int, ...]]:
    """All reduced words for ``e`` (its braid closure).

    >>> b2 = CoxeterSystem.type_b(2)
    >>> sorted(reduced_words(b2.longest_element()))
    [(1, 2, 1, 2), (2, 1, 2, 1)]
    """
    return e.system.reduced_words_of(e.word)


def _left_column(system: CoxeterSystem, s: int) -> np.ndarray:
    # column s of the left table: entry x is the row of s*x
    columns = system._op_cache.setdefault("left_columns", {})
    if s not in columns:
        columns[s] = np.array([row[s] for row in system._left], dtype=np.intp)
    return columns[s]


def bruhat_row(v: Element) -> np.ndarray:
    """The Bruhat down-set [e, v] as a read-only bool vector over table
    rows: entry x is set iff the element of row x is below ``v``.

    >>> b2 = CoxeterSystem.type_b(2)
    >>> [u for u in b2.elements() if bruhat_row(b2.element((2, 1)))[u.index]]
    [<e>, <1>, <2>, <2,1>]
    """
    system = v.system
    rows = system._op_cache.get("bruhat_row")
    if rows is None:
        identity = np.arange(len(system._words)) == 0
        identity.setflags(write=False)
        rows = system._op_cache["bruhat_row"] = {0: identity}
    left = system._left
    chain = []
    x = v.index
    while x not in rows:
        s = next(s for s, sx in enumerate(left[x]) if sx < x)
        chain.append((x, s))
        x = left[x][s]
    for x, s in reversed(chain):
        below = rows[left[x][s]]
        row = below | below[_left_column(system, s)]
        row.setflags(write=False)
        rows[x] = row
    return rows[v.index]


def _below(w: Element) -> list[Element]:
    """The elements of [e, w] in table order, read off one Bruhat row."""
    elements = w.system.elements()
    return [elements[x] for x in np.flatnonzero(bruhat_row(w))]


def bruhat_leq(u: Element, v: Element) -> bool:
    """Bruhat order: u <= v iff u appears as a subword of some (equivalently
    any) reduced word of v; one lookup in :func:`bruhat_row` of ``v``."""
    if u.system != v.system:
        raise ValueError("elements belong to different Coxeter systems")
    return bool(bruhat_row(v)[u.index])


def weak_leq(u: Element, v: Element) -> bool:
    """Right weak order: u <= v iff some reduced word of v starts with a
    reduced word of u, i.e. the lengths of u and u^-1 v add up to v's."""
    return u.length + (u.inverse() * v).length == v.length


def _require_reduced(system: CoxeterSystem, Q: tuple[int, ...]) -> Element:
    """The element spelt by Q; raises ValueError unless Q is reduced."""
    w = system.element(Q)
    if w.length != len(Q):
        raise ValueError(f"expected a reduced ambient word; {word_str(Q)} is not reduced")
    return w


def _suffix_demazure(system: CoxeterSystem, Q: tuple[int, ...]) -> list[int]:
    # suffix[k] is the table row of the 0-Hecke product of Q[k:], folded from
    # the right: a letter is absorbed when it is a left descent of the rest
    system.elements()  # builds the table
    left = system._left
    suffix = [0]
    for s in reversed(Q):
        suffix.append(max(suffix[-1], left[suffix[-1]][s - 1]))
    return suffix[::-1]


def sorting_positions(system: CoxeterSystem, Q: Iterable[int],
                      elements: Iterable[Element]) -> np.ndarray:
    """The sorting subwords of ``elements`` in the reduced word Q, from one
    greedy pass over Q: a read-only bool matrix whose entry [i, j] is set
    iff position j + 1 is in the sorting subword of ``elements[i]``.  A
    position is taken exactly when its letter is a left descent of the
    remaining target: by the lifting property each target stays below the
    product of the rest of Q.  Raises ValueError as :func:`sorting_subword`.

    >>> b2 = CoxeterSystem.type_b(2)
    >>> sorting_positions(b2, (2, 1, 2), b2.elements()[1:3]).astype(int)
    array([[0, 1, 0],
           [1, 0, 0]])
    """
    Q = system.check_word(Q)
    below = bruhat_row(_require_reduced(system, Q))
    elements = tuple(elements)
    if any(u.system is not system and u.system != system for u in elements):
        raise ValueError("element belongs to a different Coxeter system")
    target = np.fromiter((u.index for u in elements), dtype=np.intp, count=len(elements))
    outside = np.flatnonzero(~below[target])
    if len(outside):
        u = elements[outside[0]]
        raise ValueError(f"{u} is not below the product of {word_str(Q)} in Bruhat order")
    taken = np.zeros((len(elements), len(Q)), dtype=bool)
    for j, s in enumerate(Q):
        shorter = _left_column(system, s - 1)[target]
        taken[:, j] = shorter < target
        target = np.minimum(shorter, target)
    taken.setflags(write=False)
    return taken


def sorting_subword(system: CoxeterSystem, Q: Iterable[int], u: Element) -> tuple[int, ...]:
    """The lexicographically first position set of the reduced word Q whose
    subword is a reduced word for u (1-based positions): the row of u in
    :func:`sorting_positions`.

    >>> a3 = CoxeterSystem.type_a(3)
    >>> sorting_subword(a3, (1, 2, 3, 1, 2, 1), a3.element((1, 2, 1)))
    (1, 2, 4)

    Raises ValueError when Q is not reduced or u is not below the
    product of Q in Bruhat order.
    """
    return tuple(int(j) + 1 for j in np.flatnonzero(sorting_positions(system, Q, (u,))[0]))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
