"""Shared exception types."""

__all__ = ["BudgetExceededError", "VoidComplexError"]


class BudgetExceededError(RuntimeError):
    """A configured enumeration or search budget was exceeded.

    Raised instead of silently truncating, so a partial computation can
    never masquerade as an exact one.  ``budget`` names the budget
    (``"size_cap"``, ``"mask_cap"`` or ``"face_budget"``), ``limit`` is
    its value and ``spent`` the amount reached when it was exceeded.
    """

    def __init__(self, message: str, *, budget: str, limit: int, spent: int):
        super().__init__(message)
        self.budget = budget
        self.limit = limit
        self.spent = spent


class VoidComplexError(ValueError):
    """The requested subword complex has no faces at all.

    This is distinct from the empty complex ``{frozenset()}``, whose only
    face is the empty face and which behaves like a (-1)-sphere.
    """
