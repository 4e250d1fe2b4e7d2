"""S-expression reader and desugarer for ``.cvl`` source files.

Surface grammar (``;`` starts a comment that runs to end of line):

* number literals (parsed as doubles), ``#t`` / ``#f``
* ``(lambda (x y ...) body)``  — multi-parameter lambdas are curried
* ``(if c t e)``
* ``(let ((x e) ...) body)`` and ``(let* ((x e) ...) body)`` — both
  desugar into applications of lambdas
* ``(define (f x ...) body)`` and ``(define x e)`` — top level only
* AD forms ``(j* f x xt)``, ``(*j f x yb)``, ``(checkpoint-*j f x yb)``
* builtins, by arity:
  unary  ``sqrt sin cos exp log atan floor zero? null? car cdr``
  binary ``+ - * / < <= = cons``
* anything else in operator position is a curried application

A program is a sequence of top-level definitions followed by at most one
expression (the program body).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import (App, Binary, CheckpointReverseJ, Const, Expr, ForwardJ, If,
                  Lambda, ReverseJ, Unary, Var)
from .errors import ParseError
from .values import EMPTY

UNARY_OPS = frozenset(
    ["sqrt", "sin", "cos", "exp", "log", "atan", "floor", "zero?", "null?",
     "car", "cdr"])
BINARY_OPS = frozenset(["+", "-", "*", "/", "<", "<=", "=", "cons"])
RESERVED = frozenset(
    ["lambda", "if", "let", "let*", "define", "j*", "*j", "checkpoint-*j",
     "#t", "#f", "nil"]) | UNARY_OPS | BINARY_OPS


@dataclass
class Program:
    defines: list = field(default_factory=list)  # list of (name, Expr)
    body: Expr | None = None


# -- tokenizer ---------------------------------------------------------------

class _Token:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
        elif c in " \t\r":
            col += 1
            i += 1
        elif c == ";":
            while i < n and src[i] != "\n":
                i += 1
        elif c in "()":
            tokens.append(_Token(c, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < n and src[i] not in " \t\r\n();":
                i += 1
                col += 1
            tokens.append(_Token(src[start:i], line, start_col))
    return tokens


# -- reader ------------------------------------------------------------------

class _SExpr:
    """A parenthesised list with position info."""

    __slots__ = ("items", "line", "col")

    def __init__(self, items, line, col):
        self.items = items
        self.line = line
        self.col = col


#: Deepest list nesting the parser accepts.  The reader, the desugarer and
#: every later pass over the tree (free variables, CPS conversion) keep
#: their own stacks, so this bounds the input, not the recursion.
MAX_NESTING = 1000


def _read_all(tokens: list[_Token]):
    forms = []
    open_lists = []  # (opening token, items) of each list being read
    for tok in tokens:
        if tok.text == "(":
            if len(open_lists) == MAX_NESTING:
                raise ParseError(f"lists nested deeper than {MAX_NESTING} "
                                 "levels", tok.line, tok.col)
            open_lists.append((tok, []))
            continue
        if tok.text == ")":
            if not open_lists:
                raise ParseError("unexpected closing parenthesis",
                                 tok.line, tok.col)
            start, items = open_lists.pop()
            tok = _SExpr(items, start.line, start.col)
        (open_lists[-1][1] if open_lists else forms).append(tok)
    if open_lists:
        start = open_lists[-1][0]
        raise ParseError("missing closing parenthesis", start.line, start.col)
    return forms


# -- desugaring ---------------------------------------------------------------

def _is_symbol(form, text: str) -> bool:
    return isinstance(form, _Token) and form.text == text


def _atom_to_expr(tok: _Token) -> Expr:
    text = tok.text
    if text == "#t":
        return Const(True)
    if text == "#f":
        return Const(False)
    if text == "nil":
        return Const(EMPTY)
    try:
        return Const(float(text))
    except ValueError:
        pass
    if text.startswith("%"):
        raise ParseError(f"identifiers may not start with '%': {text}",
                         tok.line, tok.col)
    return Var(text)


def _desugar(form):
    """Desugar list ``form``: a generator that yields each subform it needs
    as an expression and is sent that expression back (see :func:`_expr`)."""
    items = form.items
    if not items:
        raise ParseError("empty application", form.line, form.col)
    head = items[0]
    if isinstance(head, _Token):
        text = head.text
        if text == "lambda":
            if len(items) != 3 or not isinstance(items[1], _SExpr):
                raise ParseError("lambda expects (lambda (params...) body)",
                                 form.line, form.col)
            params = items[1].items
            if not params or not all(isinstance(p, _Token) for p in params):
                raise ParseError("lambda parameter list must be non-empty "
                                 "symbols", items[1].line, items[1].col)
            body = (yield items[2])
            for p in reversed(params):
                if p.text in RESERVED or p.text.startswith("%"):
                    raise ParseError(f"bad parameter name: {p.text}",
                                     p.line, p.col)
                body = Lambda(p.text, body)
            return body
        if text == "if":
            if len(items) != 4:
                raise ParseError("if expects 3 subforms", form.line, form.col)
            return If((yield items[1]), (yield items[2]), (yield items[3]))
        if text in ("let", "let*"):
            if len(items) != 3 or not isinstance(items[1], _SExpr):
                raise ParseError(f"{text} expects ({text} ((x e) ...) body)",
                                 form.line, form.col)
            bindings = []
            for b in items[1].items:
                if (not isinstance(b, _SExpr) or len(b.items) != 2
                        or not isinstance(b.items[0], _Token)):
                    raise ParseError("malformed binding", b.line, b.col)
                name = b.items[0].text
                if name in RESERVED or name.startswith("%"):
                    raise ParseError(f"bad binding name: {name}",
                                     b.items[0].line, b.items[0].col)
                bindings.append((name, (yield b.items[1])))
            body = (yield items[2])
            if text == "let*":
                for name, rhs in reversed(bindings):
                    body = App(Lambda(name, body), rhs)
                return body
            # let: simultaneous scope — one curried lambda applied to all
            # right-hand sides, each evaluated in the outer environment
            for name, _rhs in reversed(bindings):
                body = Lambda(name, body)
            for _name, rhs in bindings:
                body = App(body, rhs)
            return body
        if text == "define":
            raise ParseError("define is only allowed at top level",
                             form.line, form.col)
        if text in ("j*", "*j", "checkpoint-*j"):
            if len(items) != 4:
                raise ParseError(f"{text} expects 3 subforms",
                                 form.line, form.col)
            cls = {"j*": ForwardJ, "*j": ReverseJ,
                   "checkpoint-*j": CheckpointReverseJ}[text]
            return cls((yield items[1]), (yield items[2]), (yield items[3]))
        if text in UNARY_OPS:
            if len(items) != 2:
                raise ParseError(f"{text} expects 1 argument",
                                 form.line, form.col)
            return Unary(text, (yield items[1]))
        if text in BINARY_OPS:
            if len(items) != 3:
                raise ParseError(f"{text} expects 2 arguments",
                                 form.line, form.col)
            return Binary(text, (yield items[1]), (yield items[2]))
    # general application, curried
    if len(items) < 2:
        raise ParseError("application needs at least one argument",
                         form.line, form.col)
    e = (yield items[0])
    for arg in items[1:]:
        e = App(e, (yield arg))
    return e


def _expr(form) -> Expr:
    """Desugar a read form.  The desugarers of the enclosing lists wait on
    this loop's own stack, so nesting depth does not meet the recursion
    limit."""
    waiting = []
    while True:
        if isinstance(form, _Token):
            value = _atom_to_expr(form)
        else:
            waiting.append(_desugar(form))
            value = None
        while waiting:
            try:
                form = waiting[-1].send(value)
                break
            except StopIteration as done:
                waiting.pop()
                value = done.value
        else:  # no desugarer waits: value is the whole form's
            return value


def parse_program(src: str) -> Program:
    """Parse a whole source file into definitions plus an optional body."""
    forms = _read_all(_tokenize(src))
    program = Program()
    for form in forms:
        if isinstance(form, _SExpr) and form.items \
                and _is_symbol(form.items[0], "define"):
            items = form.items
            if len(items) != 3:
                raise ParseError("define expects 2 subforms",
                                 form.line, form.col)
            target = items[1]
            if isinstance(target, _Token):
                name = target.text
                if name in RESERVED or name.startswith("%"):
                    raise ParseError(f"bad definition name: {name}",
                                     target.line, target.col)
                program.defines.append((name, _expr(items[2])))
            elif isinstance(target, _SExpr) and target.items \
                    and all(isinstance(t, _Token) for t in target.items):
                name = target.items[0].text
                if name in RESERVED or name.startswith("%"):
                    raise ParseError(f"bad definition name: {name}",
                                     target.items[0].line, target.items[0].col)
                params = target.items[1:]
                if not params:
                    raise ParseError(
                        "function definition needs at least one parameter",
                        target.line, target.col)
                body = _expr(items[2])
                for p in reversed(params):
                    if p.text in RESERVED or p.text.startswith("%"):
                        raise ParseError(f"bad parameter name: {p.text}",
                                         p.line, p.col)
                    body = Lambda(p.text, body)
                program.defines.append((name, body))
            else:
                raise ParseError("malformed define", form.line, form.col)
        else:
            if program.body is not None:
                raise ParseError("program may have at most one body "
                                 "expression", form.line, form.col)
            program.body = _expr(form)
    return program


def parse_expr(src: str) -> Expr:
    """Parse a single expression."""
    forms = _read_all(_tokenize(src))
    if len(forms) != 1:
        raise ParseError("expected exactly one expression", 1, 1)
    return _expr(forms[0])
