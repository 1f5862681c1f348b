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

``sorting_subword(system, Q, u)`` is the lexicographically first set of
positions of ``Q`` whose subword is a reduced word for ``u``; comparing
these position sets by inclusion defines the sorting order of ``Q``.

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
    "is_reduced",
    "reduced_words",
    "bruhat_row",
    "bruhat_leq",
    "weak_leq",
    "contains_reduced_word",
    "sorting_subword",
]


def demazure(system: CoxeterSystem, word: Iterable[int]) -> Element:
    """0-Hecke product of a word (any word, reduced or not).

    >>> a2 = CoxeterSystem.type_a(2)
    >>> demazure(a2, (1, 1, 2))
    <1,2>
    """
    word = system.check_word(word)
    e = system.identity
    for s in word:
        if not e.is_right_descent(s):
            e = e.mult_right(s)
    return e


def is_reduced(system: CoxeterSystem, word: Iterable[int]) -> bool:
    """Whether the word has minimal length among spellings of its element."""
    word = system.check_word(word)
    return system.element(word).length == len(word)


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


def contains_reduced_word(system: CoxeterSystem, Q: Iterable[int], u: Element) -> bool:
    """Whether some subword of Q is a reduced word for u.

    Q need not be reduced; the test reduces to a Bruhat comparison with
    the 0-Hecke product of Q.
    """
    return bruhat_leq(u, demazure(system, Q))


def _suffix_demazure(system: CoxeterSystem, Q: tuple[int, ...]) -> list[Element]:
    cache = system._op_cache.setdefault("suffix_demazure", {})
    hit = cache.get(Q)
    if hit is None:
        hit = [demazure(system, Q[k:]) for k in range(len(Q) + 1)]
        cache[Q] = hit
    return hit


def sorting_subword(system: CoxeterSystem, Q: Iterable[int], u: Element) -> tuple[int, ...]:
    """The lexicographically first position set of the reduced word Q whose
    subword is a reduced word for u (1-based positions).

    Greedy left-to-right: position j is taken exactly when its letter is
    a left descent of the remaining target and the suffix after j still
    contains a reduced word for the shortened target.

    >>> a3 = CoxeterSystem.type_a(3)
    >>> sorting_subword(a3, (1, 2, 3, 1, 2, 1), a3.element((1, 2, 1)))
    (1, 2, 4)

    Raises ValueError when Q is not reduced or u is not below the
    product of Q in Bruhat order.
    """
    Q = system.check_word(Q)
    if u.system != system:
        raise ValueError("element belongs to a different Coxeter system")
    cache = system._op_cache.setdefault("sorting_subword", {})
    key = (Q, u.word)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if not is_reduced(system, Q):
        raise ValueError(f"sorting subwords need a reduced ambient word; {word_str(Q)} is not")
    suffix = _suffix_demazure(system, Q)
    if not bruhat_leq(u, suffix[0]):
        raise ValueError(f"{u} is not below the product of {word_str(Q)} in Bruhat order")
    target = u
    taken: list[int] = []
    for j, s in enumerate(Q, start=1):
        if target.is_identity:
            break
        if target.is_left_descent(s):
            shorter = target.mult_left(s)
            if bruhat_leq(shorter, suffix[j]):
                taken.append(j)
                target = shorter
    result = tuple(taken)
    cache[key] = result
    return result


if __name__ == "__main__":
    import doctest

    doctest.testmod()
