"""Tiny arithmetic-expression compiler for diffusion coefficient strings.

Accepts a single identifier ``x``, the constants pi and e, the functions
exp, log, pow, abs, sqrt, sin, cos, and the usual arithmetic operators.
Parsed once with the ast module against a whitelist; anything else is a
ConfigParse error.  The tree is then compiled twice into nested closures,
never evaluated as code: over the math module for a scalar x, with the
arithmetic of the expression as written, and over numpy ufuncs for an
array x, which it maps elementwise (np.exp and np.log may differ from
math in the last bit).
"""

from __future__ import annotations

import ast
import math
import operator

import numpy as np

from .errors import ConfigParse

_ALLOWED_CALLS = {
    "exp": math.exp, "log": math.log, "pow": pow, "abs": abs,
    "sqrt": math.sqrt, "sin": math.sin, "cos": math.cos,
}
_ARRAY_CALLS = {
    "exp": np.exp, "log": lambda x, *base: np.log(x) / np.log(*base) if base else np.log(x),
    "pow": np.power, "abs": np.abs, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos,
}
_ARITY = {"log": (1, 2), "pow": (2,)}
_ALLOWED_NAMES = {"x", "pi", "e"}
_CONSTANTS = {"pi": math.pi, "e": math.e}
_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Load,
    ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.USub,
    ast.UAdd, ast.Mod,
)
_OPERATORS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
              ast.Div: operator.truediv, ast.Pow: operator.pow, ast.Mod: operator.mod,
              ast.USub: operator.neg, ast.UAdd: operator.pos}


def compile_expression(text: str):
    """Compile an expression string into a callable: float -> float, array -> array."""
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ConfigParse(f"cannot parse expression {text!r}: {exc}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigParse(f"disallowed syntax {type(node).__name__!r} in {text!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ConfigParse(f"disallowed function call in {text!r}")
            if len(node.args) not in _ARITY.get(node.func.id, (1,)):
                raise ConfigParse(f"wrong number of arguments to {node.func.id} in {text!r}")
        if isinstance(node, ast.Name) and node.id not in _ALLOWED_NAMES \
                and node.id not in _ALLOWED_CALLS:
            raise ConfigParse(f"unknown identifier {node.id!r} in {text!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ConfigParse(f"non-numeric constant in {text!r}")
    scalar = _closure(tree.body, _ALLOWED_CALLS, text)
    array = _closure(tree.body, _ARRAY_CALLS, text)

    def fn(x):
        if isinstance(x, np.ndarray) and x.ndim:
            return np.broadcast_to(np.asarray(array(x.astype(float)), dtype=float), x.shape)
        return float(scalar(float(x)))

    return fn


def _closure(node, calls: dict, text: str):
    """The whitelisted subtree ``node`` as a function of x."""
    if isinstance(node, ast.Name) and node.id == "x":
        return lambda x: x
    if isinstance(node, (ast.Constant, ast.Name)):
        value = node.value if isinstance(node, ast.Constant) else _CONSTANTS.get(node.id)
        if value is None:
            raise ConfigParse(f"function {node.id!r} used as a value in {text!r}")
        return lambda x: value
    if isinstance(node, ast.UnaryOp):
        op, arg = _OPERATORS[type(node.op)], _closure(node.operand, calls, text)
        return lambda x: op(arg(x))
    if isinstance(node, ast.BinOp):
        op, left, right = (_OPERATORS[type(node.op)], _closure(node.left, calls, text),
                           _closure(node.right, calls, text))
        return lambda x: op(left(x), right(x))
    fn, args = calls[node.func.id], [_closure(a, calls, text) for a in node.args]
    if len(args) == 1:
        (arg,) = args
        return lambda x: fn(arg(x))
    first, second = args
    return lambda x: fn(first(x), second(x))
