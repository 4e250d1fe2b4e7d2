"""The count/limit-threading CPS conversion: structural invariants, and
free-variable computation on source and converted code."""

from ckad.ast import (T_APP, T_APP3, T_APP4, T_CHECKPOINT_J, T_CONST,
                      T_FORWARD_J, T_IF, T_LAMBDA, T_LAMBDA3, T_LAMBDA4,
                      T_LIMIT, T_REVERSE_J, T_UNARY, T_BINARY, T_VAR,
                      T_HOSTOP, free_variables)
from ckad.convert import N, _Gensym, convert_lambda, convert_top
from ckad.parser import parse_expr


def every_node(e):
    """All reachable distinct nodes of a converted expression DAG."""
    seen = {}
    stack = [e]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen[id(node)] = node
        tag = node.TAG
        if tag in (T_LAMBDA3, T_LAMBDA4):
            stack.append(node.body)
        elif tag == T_APP3:
            stack.extend((node.fn, node.n, node.l, node.arg))
        elif tag == T_APP4:
            stack.extend((node.fn, node.k, node.n, node.l, node.arg))
        elif tag == T_LIMIT:
            stack.extend((node.k_expr, node.n_expr, node.l_expr, node.body,
                          node.relam))
        elif tag == T_IF:
            stack.extend((node.cond, node.then, node.alt))
        elif tag == T_UNARY:
            stack.append(node.arg)
        elif tag == T_BINARY:
            stack.extend((node.left, node.right))
        elif tag == T_HOSTOP:
            stack.extend((node.e1, node.e2, node.e3))
    return list(seen.values())


def source_node_count(e):
    stack, n = [e], 0
    while stack:
        node = stack.pop()
        n += 1
        tag = node.TAG
        if tag == 2:            # Lambda
            stack.append(node.body)
        elif tag == 3:          # App
            stack.extend((node.fn, node.arg))
        elif tag == 4:          # If
            stack.extend((node.cond, node.then, node.alt))
        elif tag == 5:          # Unary
            stack.append(node.arg)
        elif tag == 6:          # Binary
            stack.extend((node.left, node.right))
        elif tag in (7, 8, 9):  # AD forms
            stack.extend((node.e1, node.e2, node.e3))
    return n


SOURCES = [
    "3.0",
    "(+ x 1.0)",
    "((lambda (x) (* x x)) 3.0)",
    "(if (< x 0.0) (- 0.0 x) x)",
    "(*j f x 1.0)",
    "(f (g (+ x y)) 2.0)",
]


def test_one_limit_check_per_source_clause():
    # each source expression node contributes exactly one limit check, so
    # converted code interrupts at exactly the same points as the CPS
    # evaluator counts steps
    for src in SOURCES:
        e = parse_expr(src)
        converted = convert_top(e, _Gensym())
        checks = [n for n in every_node(converted) if n.TAG == T_LIMIT]
        assert len(checks) == source_node_count(e), src


def test_restart_lambda_shares_the_pending_body():
    converted = convert_top(parse_expr("(+ 1.0 2.0)"), _Gensym())
    for node in every_node(converted):
        if node.TAG == T_LIMIT:
            assert node.relam.body is node.body


def test_n_offset_matches_static_increment_depth():
    offsets = set()
    for src in ("(f 1.0)", "(+ (+ (+ x 1.0) 1.0) 1.0)"):
        converted = convert_top(parse_expr(src), _Gensym())
        for node in every_node(converted):
            if node.TAG == T_LIMIT:
                # the count expression is %n or %n + k, k the n_offset
                n_expr = node.n_expr
                if n_expr.TAG == T_VAR:
                    k = 0
                else:
                    assert n_expr.TAG == T_BINARY and n_expr.op == "+"
                    assert n_expr.right.TAG == T_CONST
                    k = n_expr.right.value
                    assert type(k) is int and k >= 1
                    n_expr = n_expr.left
                assert n_expr.TAG == T_VAR and n_expr.name == N
                assert node.relam.n_offset == k
                offsets.add(k)
    assert offsets == {0, 1, 2, 3}


def reference_free_variables(node, bound):
    """Slow reference free-variable computation (no memoization), for
    source and converted code."""
    tag = node.TAG
    if tag == T_VAR:
        return set() if node.name in bound else {node.name}
    if tag == T_CONST:
        return set()
    if tag == T_LAMBDA:
        return reference_free_variables(node.body, bound | {node.param})
    if tag == T_LAMBDA3:
        return reference_free_variables(
            node.body, bound | {node.n, node.l, node.x})
    if tag == T_LAMBDA4:
        return reference_free_variables(
            node.body, bound | {node.k, node.n, node.l, node.x})
    if tag == T_APP:
        kids = (node.fn, node.arg)
    elif tag == T_APP3:
        kids = (node.fn, node.n, node.l, node.arg)
    elif tag == T_APP4:
        kids = (node.fn, node.k, node.n, node.l, node.arg)
    elif tag == T_LIMIT:
        kids = (node.k_expr, node.n_expr, node.l_expr, node.body)
    elif tag == T_IF:
        kids = (node.cond, node.then, node.alt)
    elif tag == T_UNARY:
        kids = (node.arg,)
    elif tag == T_BINARY:
        kids = (node.left, node.right)
    elif tag in (T_HOSTOP, T_FORWARD_J, T_REVERSE_J, T_CHECKPOINT_J):
        kids = (node.e1, node.e2, node.e3)
    else:
        raise AssertionError(tag)
    out = set()
    for kid in kids:
        out |= reference_free_variables(kid, bound)
    return out


def test_free_variables_match_reference():
    for src in SOURCES + ["(lambda (x) (+ x (* y (g x))))",
                          "(lambda (f) (j* (lambda (y) (f x y)) z 1.0))"]:
        e = parse_expr(src)
        got = free_variables(e)
        assert got == tuple(sorted(reference_free_variables(e, set()))), src
        if e.TAG == T_LAMBDA:
            assert e.fvs == got
            converted = convert_lambda(e, _Gensym())
        else:
            # %k/%n/%l are genuinely free in a top-level conversion
            converted = convert_top(e, _Gensym())
        got = free_variables(converted)
        assert got == tuple(sorted(reference_free_variables(converted,
                                                            set()))), src


def test_converted_lambda_free_vars_exclude_machinery_names():
    lam4 = convert_lambda(parse_expr("(lambda (x) (+ x (g y)))"), _Gensym())
    fvs = free_variables(lam4)
    assert set(fvs) == {"g", "y"}
    assert fvs == tuple(sorted(fvs))


def test_free_variable_walk_is_linear_on_dag_shaped_code():
    # a chain of nested ifs splices each level's continuation into both
    # branches; a non-memoized walk of the converted DAG would take
    # exponential (~2^60) time here
    src = "x"
    for _ in range(60):
        src = f"(if (< x 0.5) {src} 0.0)"
    lam4 = convert_lambda(parse_expr(f"(lambda (x) {src})"), _Gensym())
    assert free_variables(lam4) == ()
