"""Design checks on the package source: every module-level definition of
src/sfodlab is reached, every defaulted parameter is passed by some call
and left out by another, and no parameter is passed one constant by every
call. Calls are those in src/ and perfbench/, matched to a definition by
name; the files are read and parsed once."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEXTS = {p: p.read_text(encoding="utf-8")
         for tree in ("src", "perfbench") for p in sorted((ROOT / tree).rglob("*.py"))}
TREES = {p: ast.parse(text) for p, text in TEXTS.items()}
PACKAGE = [p for p in TREES if p.parent == ROOT / "src" / "sfodlab"]

CALLS = {}
for tree in TREES.values():
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
            CALLS.setdefault(name, []).append(node)


def functions():
    """(where, definition, call sites) of every function of the package."""
    for path in PACKAGE:
        for fn in ast.walk(TREES[path]):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = f"{path.relative_to(ROOT)}:{fn.lineno}: {fn.name}"
                yield where, fn, CALLS.get(fn.name, [])


def positional(fn):
    """The positional parameters of fn and the offset of the first one a
    call passes: a method's calls do not pass self or cls by position."""
    params = fn.args.posonlyargs + fn.args.args
    return params, 1 if params and params[0].arg in ("self", "cls") else 0


def test_every_module_level_definition_is_reached():
    """No module-level function or class is named in src/ and perfbench/
    only at its definition."""
    unused = []
    for path in PACKAGE:
        for node in TREES[path].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                word = re.compile(rf"\b{re.escape(node.name)}\b")
                if sum(len(word.findall(text)) for text in TEXTS.values()) <= 1:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {node.name}")
    assert unused == []


def test_every_defaulted_parameter_is_passed_and_left_out():
    """Some call passes each defaulted parameter, by position or by keyword
    (else the option is dead), and some call leaves it out (else the
    default only serves tests)."""
    unused, always = [], []
    for where, fn, sites in functions():
        params, offset = positional(fn)
        a = fn.args
        defaulted = [(params.index(p), p.arg) for p in params[len(params) - len(a.defaults):]]
        defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
        for index, arg in defaulted:
            passed = [any(isinstance(x, ast.Starred) for x in c.args)
                      or any(k.arg is None or k.arg == arg for k in c.keywords)
                      or (index is not None and len(c.args) > index - offset)
                      for c in sites]
            if not any(passed):
                unused.append(f"{where}({arg}=...)")
            elif all(passed):
                always.append(f"{where}({arg}=...)")
    assert (unused, always) == ([], [])


def literal(node):
    """(type name, repr) of a literal argument; None for any other."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError):
        return None
    return type(value).__name__, repr(value)


def test_no_parameter_is_passed_one_constant_by_every_call():
    """No parameter receives the same literal from every call; calls that
    unpack arguments make a function's parameters unknown, so it is skipped."""
    constant = []
    for where, fn, sites in functions():
        if not sites or any(isinstance(x, ast.Starred) for c in sites for x in c.args) \
                or any(k.arg is None for c in sites for k in c.keywords):
            continue
        params, offset = positional(fn)
        indexed = [(i - offset, p.arg) for i, p in enumerate(params) if i >= offset]
        indexed += [(None, p.arg) for p in fn.args.kwonlyargs]
        for index, arg in indexed:
            passed = set()
            for c in sites:
                node = next((k.value for k in c.keywords if k.arg == arg), None)
                if node is None and index is not None and index < len(c.args):
                    node = c.args[index]
                passed.add(literal(node) if node is not None else None)
            if len(passed) == 1 and None not in passed:
                constant.append(f"{where}({arg}={passed.pop()[1]})")
    assert constant == []
