"""Name abstraction: alpha-equivalence classes of (binder, body) pairs.

Two pairs are identified when swapping their binders to a common fresh atom
makes the bodies equal.  The constructor normalizes the binder to the least
atom outside the body's remaining support, so the class equality is
structural equality on the stored form, and abstr_eq is ``==``.  Only the
constructor computes that support: ``_moved``, the one action behind
``apply_perm`` and ``act_swap``, uses equivariance, supp(pi.x) = pi.supp(x),
to pick the image's binder directly.  Bodies are arbitrary protocol values,
so abstractions nest and mix with tuples, orbit elements, and finitely
supported functions.  Abstractions are immutable records: ``==`` and hashing
go by the stored binder and body.
"""

from __future__ import annotations

from .perm import FinPerm, check_atoms, fresh, is_atom
from .record import Record, fill
from .values import Nominal, act_swap, support_value


class Abstraction(Record, Nominal):
    __slots__ = ("binder", "body")

    def __init__(self, binder: int, body):
        if not is_atom(binder):
            raise ValueError("binder must be a nonnegative integer atom")
        free = support_value(body) - {binder}
        canonical = fresh(free)
        if canonical != binder:
            body = act_swap(binder, canonical, body)
        fill(self, canonical, body)

    def _moved(self, f) -> "Abstraction":  # f acts on values
        # By equivariance the image's support is f(support()), so its binder
        # b' is the least atom outside that set, and its body is f.body with
        # f(binder) renamed to b'.
        binder, moved, body = fresh(map(f, self.support())), f(self.binder), f(self.body)
        if moved != binder:
            body = act_swap(moved, binder, body)
        return fill(Abstraction.__new__(Abstraction), binder, body)

    def support(self) -> frozenset[int]:
        return support_value(self.body) - {self.binder}


def abstr(binder: int, body) -> Abstraction:
    """The alpha class of binding ``binder`` in ``body``."""
    return Abstraction(binder, body)


def _eq_at(a1: Abstraction, a2: Abstraction, z: int) -> bool:
    # the class test by definition, at one fresh atom z; any fresh choice agrees
    b1 = a1.body if z == a1.binder else act_swap(a1.binder, z, a1.body)
    b2 = a2.body if z == a2.binder else act_swap(a2.binder, z, a2.body)
    return b1 == b2


def abstr_eq(a1: Abstraction, a2: Abstraction) -> bool:
    """Class equality, which the canonical binder makes ``==``."""
    return a1 == a2


def act_abstr(f: FinPerm, a: Abstraction) -> Abstraction:
    """The action maps binder and body together, then re-normalizes."""
    return a.apply_perm(f)


def concretize(a: Abstraction, w: int) -> object:
    """Instantiate the bound name as ``w``; ``w`` must avoid the support."""
    check_atoms(w)
    if w in a.support():
        raise ValueError("atom not fresh")
    if w == a.binder:
        return a.body
    return act_swap(a.binder, w, a.body)
