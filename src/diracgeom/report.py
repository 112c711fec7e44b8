"""Small pass/fail report structures shared by the checkers.

Witnesses are serialized polynomials or index data, never bare booleans, so a
failing report always says what broke.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple


class CheckItem(NamedTuple):
    name: str
    passed: bool
    witness: str | None = None

    @classmethod
    def first(cls, name: str, witnesses: Iterable[str]) -> "CheckItem":
        """Fail with the first of ``witnesses``, or pass when there is none.

        Only the first witness is drawn, so a generator of failures is never
        run past it.
        """
        witness = next(iter(witnesses), None)
        return cls(name, witness is None, witness)

    def __str__(self):
        tail = "" if self.passed or not self.witness else f"  [{self.witness}]"
        return f"{self.name}: {'pass' if self.passed else 'fail'}{tail}"


class Report(NamedTuple):
    items: tuple[CheckItem, ...] = ()

    @property
    def passed(self) -> bool:
        return all(it.passed for it in self.items)

    @property
    def witness(self) -> str | None:
        for it in self.items:
            if not it.passed:
                return it.witness or it.name
        return None

    def require(self, exc: type[Exception]) -> None:
        """Raise ``exc`` with the witness unless every item passed."""
        if not self.passed:
            raise exc(self.witness)

    def __str__(self):
        head = "pass" if self.passed else "fail"
        body = "; ".join(str(it) for it in self.items)
        return f"{head} ({body})"
