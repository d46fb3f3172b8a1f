"""The literal grammar: one tokenizer, one recursive-descent parser, and
the printer of graded objects and basis elements.

Every literal the program reads goes through `parse`; every graded part,
basis element and K part it prints goes through `graded_text` and
`basis_text`.  A literal must be consumed to its last token; anything else
raises ParseError.  Whitespace may separate any two tokens.

    element  := '0' | ['-'] term (('+' | '-') term)*
    term     := (factor '*')* basis
    basis    := '[' graded ']' ['*' kpart] | kpart
    kpart    := 'K' '[' [kentry (',' kentry)*] ']'
    kentry   := '(' vector ')' ['/' '2'] '@' int
    graded   := '0' | group ('+' group)*
    group    := NAME ('+' NAME)* '@' int
    classes  := '0' | NAME ('+' NAME)*
    scalar   := ['-'] product (('+' | '-') product)*
    product  := factor ('*' factor)*
    factor   := NUMBER ['/' NUMBER] | ('v' | 't' | 'q') ['^' int] | '(' scalar ')'
    quiver   := PRESET | NUMBER ';' [arrow (',' arrow)*]
    arrow    := NUMBER '-' '>' NUMBER
    vector   := int (',' int)*
    int      := ['-'] NUMBER
    NUMBER   := [0-9]+
    NAME     := [A-Za-z][A-Za-z0-9]*
    PRESET   := ('A' | 'a') [0-9]+

The element '0' is the zero element.  A group is one isomorphism class,
the direct sum of its labels, looked up by the caller's resolver
(`RepContext.class_by_name`, which parses its text as 'classes'); a
degree appears at most once in a graded object.  In a factor v = sqrt(q)
and t = q^(1/8), as in `scalar`.  A K entry is a half-lattice vector,
'/2' marking halves, and is returned doubled.  The preset An is the path
1->2->...->n; quiver vertices are 1-based.  The parser knows no period or
quiver: reducing degrees mod m, checking lengths and vertex ranges and
rejecting a K part where none belongs are left to the receiving code.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError

# any character outside a number or a name is a token of its own, which
# fails wherever the grammar does not name it
_TOKEN = re.compile(r"[0-9]+|[A-Za-z][A-Za-z0-9]*|\S")


def parse(text: str, rule: str, *args):
    """Parse all of text as the rule 'scalar' (args: the scalar field),
    'graded' or 'basis' (args: the class-name resolver), 'element' (args:
    field, resolver), 'quiver', 'vector', 'integer' (the grammar's int) or
    'classes'.

    Returns a Scalar; a list of (degree, class) pairs; a (pairs, K entries
    or None) tuple with K entries (degree, doubled vector); a list of
    (Scalar, basis tuple) pairs, one per term; (n, arrows) with 0-based
    arrows (s, t); a tuple of ints; an int; or a list of labels, empty for
    '0'.
    """
    parser = _Parser(text, rule)
    value = getattr(parser, rule)(*args)
    if parser.peek() is not None:
        parser.fail("the end")
    return value


def parse_scalar(field, text: str):
    """A scalar literal such as '2*v^-1', '1/3', 't^5' or '(1 + v)'."""
    return parse(text, "scalar", field)


def graded_text(pairs) -> str:
    """The graded literal of (degree, class) pairs: 'S1@0 + P1@2', or '0'."""
    return " + ".join(f"{cls.name}@{deg}" for deg, cls in pairs) or "0"


def basis_text(classes, alphas=()) -> str:
    """The basis literal of one class per degree and, for an extended basis
    element, one doubled K vector per degree, such as '[S1@0]*K[(1,0)/2@1]';
    zero classes and zero vectors are left out."""
    graded = graded_text((i, cls) for i, cls in enumerate(classes) if not cls.is_zero)
    k_entries = [_kentry_text(i, dbl) for i, dbl in enumerate(alphas) if any(dbl)]
    k_part = f"*K[{', '.join(k_entries)}]" if k_entries else ""
    return f"[{graded}]{k_part}"


def _kentry_text(degree: int, doubled) -> str:
    """A K entry as `_Parser.kentry` reads it: '(1,0)@i' for a whole vector,
    '(1,1)/2@i' when some doubled entry is odd."""
    whole = all(x % 2 == 0 for x in doubled)
    vec = ",".join(str(x // 2 if whole else x) for x in doubled)
    return f"({vec})@{degree}" if whole else f"({vec})/2@{degree}"


class _Parser:
    def __init__(self, text: str, rule: str):
        self.text = text
        self.rule = rule
        self.tokens = _TOKEN.findall(text)
        self.pos = 0

    # -- tokens ------------------------------------------------------------

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def accept(self, *tokens):
        """Consume the next token and return it if it is one of tokens."""
        token = self.peek()
        if token not in tokens:
            return None
        self.pos += 1
        return token

    def expect(self, token: str) -> None:
        if not self.accept(token):
            self.fail(repr(token))

    def fail(self, expected: str):
        found = "the end" if self.peek() is None else repr(self.peek())
        raise ParseError(
            f"expected {expected} at {found} in {self.rule} literal {self.text!r}"
        )

    def number(self) -> int:
        token = self.peek()
        if token is None or not (token.isascii() and token.isdigit()):
            self.fail("a number")
        self.pos += 1
        return int(token)

    def integer(self) -> int:
        sign = -1 if self.accept("-") else 1
        return sign * self.number()

    def name(self) -> str:
        token = self.peek()
        if token is None or not token[0].isalpha():
            self.fail("a class label")
        self.pos += 1
        return token

    # -- rules ---------------------------------------------------------------

    def scalar(self, field):
        total = -self.product(field) if self.accept("-") else self.product(field)
        while op := self.accept("+", "-"):
            term = self.product(field)
            total = total - term if op == "-" else total + term
        return total

    def product(self, field):
        value = self.factor(field)
        while self.accept("*"):
            value = value * self.factor(field)
        return value

    def factor(self, field):
        if self.accept("("):
            value = self.scalar(field)
            self.expect(")")
            return value
        base = self.accept("v", "t", "q")
        if base:
            exp = self.integer() if self.accept("^") else 1
            if base == "q":
                return field.q_power(exp)
            return field.v_power(4 * exp if base == "v" else exp)
        num = self.number()
        den = self.number() if self.accept("/") else 1
        if den == 0:
            raise ParseError(f"zero denominator in {self.rule} literal {self.text!r}")
        return field.from_rational(Fraction(num, den))

    def graded(self, resolve) -> list:
        if self.accept("0"):
            return []
        entries = []
        while True:
            names = self.sequence(self.name, "+")
            self.expect("@")
            degree = self.integer()
            if any(degree == d for d, _ in entries):
                raise ParseError(f"degree {degree} appears twice in {self.text!r}")
            entries.append((degree, resolve("+".join(names))))
            if not self.accept("+"):
                return entries

    def sequence(self, item, separator: str) -> list:
        """item (separator item)*"""
        items = [item()]
        while self.accept(separator):
            items.append(item())
        return items

    def classes(self) -> list:
        return [] if self.accept("0") else self.sequence(self.name, "+")

    def vector(self) -> tuple:
        return tuple(self.sequence(self.integer, ","))

    def kpart(self) -> list:
        self.expect("K")
        self.expect("[")
        entries = [] if self.peek() == "]" else self.sequence(self.kentry, ",")
        self.expect("]")
        return entries

    def kentry(self) -> tuple:
        self.expect("(")
        vec = self.vector()
        self.expect(")")
        halves = self.accept("/")
        if halves:
            self.expect("2")
        self.expect("@")
        return self.integer(), (vec if halves else tuple(2 * x for x in vec))

    def basis(self, resolve) -> tuple:
        if self.peek() == "K":
            return [], self.kpart()
        self.expect("[")
        graded = self.graded(resolve)
        self.expect("]")
        return graded, self.kpart() if self.accept("*") else None

    def element(self, field, resolve) -> list:
        if self.tokens == ["0"]:
            self.pos = 1
            return []
        terms = []
        op = self.accept("-")
        while op or not terms:
            coef = field.one
            while self.peek() not in ("[", "K"):
                coef = coef * self.factor(field)
                self.expect("*")
            terms.append((-coef if op == "-" else coef, self.basis(resolve)))
            op = self.accept("+", "-")
        return terms

    def quiver(self) -> tuple:
        token = self.peek()
        if token is not None and token[0] in "Aa" and token[1:].isdigit():
            self.pos += 1
            n = int(token[1:])
            return n, [(i, i + 1) for i in range(n - 1)]
        n = self.number()
        self.expect(";")
        return n, ([] if self.peek() is None else self.sequence(self.arrow, ","))

    def arrow(self) -> tuple:
        source = self.number()
        self.expect("-")
        self.expect(">")
        return source - 1, self.number() - 1
