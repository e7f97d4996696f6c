"""Parser for the group-spec mini-language.

Grammar (whitespace-insensitive; positions reported against the stripped text):

    spec   := atom ("x" atom)*
    atom   := ("S" | "A" | "C" | "D") int
            | "perm:" int ":" gens
            | "(" spec ")"
    gens   := cycles (";" cycles)*
    cycles := ("(" int ("," int)* ")")+

Points are 0-indexed.  "x" builds direct products, left-associatively, and
parentheses group them: ``(S3)x(C3)`` is what ``qell op kunneth`` writes,
and ``S3x(C2xC3)`` is the product of S3 with C2xC3.  A product's spec is
the stripped text it was parsed from, each builtin written as its own spec
(``C03`` is ``C3``); parentheses around a whole spec are not part of it, so
``(S3)`` is S3.  A ``perm:`` degree past ``MAX_PERM_DEGREE``, the default
order cap (no builtin group under it has a larger degree), is refused before
any permutation is built, as an order past the cap is.
"""

from __future__ import annotations

from .errors import GroupTooLargeError, InvalidGeneratorError, ParseError, PreconditionError
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    builtin,
    direct_product,
    make_group,
    order_cap,
)
from .perm import from_cycles

MAX_PERM_DEGREE = DEFAULT_ORDER_CAP


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self) -> str:
        ch = self.peek()
        self.pos += 1
        return ch

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        start = self.pos
        while self.peek().isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected integer", start)
        try:
            return int(self.text[start:self.pos])
        except ValueError:      # past the interpreter's limit on integer digits
            raise ParseError(f"integer of {self.pos - start} digits is too long",
                             start) from None


def parse_group_spec(text: str) -> FiniteGroup:
    order_cap()     # a malformed QELL_ORDER_CAP fails as itself, not as a parse position
    stripped = "".join(text.split())
    if not stripped:
        raise ParseError("empty group spec", 0)
    cur = _Cursor(stripped)
    group = _spec(cur)
    if cur.pos != len(stripped):
        raise ParseError(f"unexpected {cur.peek()!r}", cur.pos)
    return group


def _spec(cur: _Cursor) -> FiniteGroup:
    """The spec that starts at the cursor, read up to the first character
    that does not continue it.  Parentheses nest without recursion: an
    operand is (group, the number of parentheses around it), and each open
    parenthesis keeps the product to its left, or None, on a stack."""
    stack: list = []
    left = None
    while True:
        if cur.peek() == "(":
            cur.take()
            stack.append(left)
            left = None
            continue
        operand = (_atom(cur), 0)
        while True:
            if left is not None:
                spec = f"{_written(left)}x{_written(operand)}"
                operand = (direct_product(left[0], operand[0], spec=spec), 0)
            if cur.peek() == "x":
                cur.take()
                left = operand
                break
            if not stack:
                return operand[0]
            cur.expect(")")
            left = stack.pop()
            operand = (operand[0], operand[1] + 1)


def _written(operand) -> str:
    group, depth = operand
    return "(" * depth + group.spec + ")" * depth


def _atom(cur: _Cursor) -> FiniteGroup:
    start = cur.pos
    if cur.text.startswith("perm:", cur.pos):
        cur.pos += len("perm:")
        degree = cur.integer()
        if degree > MAX_PERM_DEGREE:
            raise GroupTooLargeError(
                f"group too large: perm: degree exceeds {MAX_PERM_DEGREE}")
        cur.expect(":")
        gens = [_cycles(cur, degree)]
        while cur.peek() == ";":
            cur.take()
            gens.append(_cycles(cur, degree))
        spec_text = cur.text[start:cur.pos]
        return make_group(degree, gens, name=spec_text, spec=spec_text)
    family = cur.peek()
    if family and family in "SACD":
        cur.take()
        n = cur.integer()
        try:
            return builtin(family, n)
        except PreconditionError as exc:
            raise ParseError(str(exc), start) from exc
    raise ParseError(f"expected a family letter, 'perm:' or '(', got {cur.peek()!r}",
                     cur.pos)


def _cycles(cur: _Cursor, degree: int):
    cycles = []
    if cur.peek() != "(":
        raise ParseError("expected '('", cur.pos)
    while cur.peek() == "(":
        cur.take()
        pts = [cur.integer()]
        while cur.peek() == ",":
            cur.take()
            pts.append(cur.integer())
        cur.expect(")")
        for pt in pts:
            if pt >= degree:
                raise ParseError(f"point {pt} exceeds degree {degree}", cur.pos - 1)
        cycles.append(tuple(pts))
    try:
        return from_cycles(degree, cycles)
    except InvalidGeneratorError as exc:
        raise ParseError(str(exc), cur.pos) from exc
