"""Shared exception types."""

__all__ = ["BudgetExceededError", "VoidComplexError"]


class BudgetExceededError(RuntimeError):
    """A configured enumeration or search budget was exceeded.

    Raised instead of silently truncating, so a partial computation can
    never masquerade as an exact one.  ``budget`` names the budget
    (``"size_cap"``, ``"mask_cap"`` or ``"face_budget"``), ``limit`` is
    its value and ``spent`` the amount reached when it was exceeded.
    ``subject`` names what was being certified or built, such as an
    interval, a word and target, a word and its group (the mask cap) or a
    group (the size cap), or is "" when the raiser did not know; a
    non-empty one ends the message.
    """

    def __init__(self, message: str, *, budget: str, limit: int, spent: int,
                 subject: str = ""):
        super().__init__(message)
        self.budget = budget
        self.limit = limit
        self.spent = spent
        self.subject = subject

    def __str__(self) -> str:
        message = super().__str__()
        return f"{message} ({self.subject})" if self.subject else message

    def about(self, subject: str) -> "BudgetExceededError":
        """The same error, naming ``subject``."""
        return BudgetExceededError(self.args[0], budget=self.budget, limit=self.limit,
                                   spent=self.spent, subject=subject)


class VoidComplexError(ValueError):
    """The requested subword complex has no faces at all.

    This is distinct from the empty complex ``{frozenset()}``, whose only
    face is the empty face and which behaves like a (-1)-sphere.
    """
