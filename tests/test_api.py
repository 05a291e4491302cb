"""Guard against dead parameters: every parameter of every module-level
function and method in the package is read in its body (reads inside
nested functions and lambdas count; the nested callbacks' own parameters
are not checked)."""

import ast
from pathlib import Path

import maslab

SRC = Path(maslab.__file__).resolve().parent

# parameters kept although unread, with the reason
EXEMPT = {
    "regularity.holder_estimate(spec)": "perfbench/workloads.py passes it positionally",
}


def _defs(tree):
    """Module-level functions and the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node
        elif isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, ast.FunctionDef))


def _unread_parameters() -> set:
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in _defs(ast.parse(path.read_text())):
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            reads = {n.id for stmt in fn.body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            out |= {f"{path.stem}.{fn.name}({p})" for p in params
                    if p not in reads and p not in ("self", "cls")}
    return out


def test_every_parameter_is_read():
    assert _unread_parameters() - EXEMPT.keys() == set()


def test_exemptions_are_still_needed():
    # an exempt parameter that is read again, or deleted, leaves the list
    assert EXEMPT.keys() <= _unread_parameters()
