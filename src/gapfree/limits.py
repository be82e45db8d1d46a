"""Node-count budgets for the exhaustive searches."""

from __future__ import annotations

from .errors import BudgetExceeded

DEFAULT_BUDGET = 10_000_000


class Budget:
    """Mutable counter; spend() raises BudgetExceeded once the limit is passed."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, amount: int) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(
                f"search budget of {self.limit} nodes exhausted", self.used
            )
