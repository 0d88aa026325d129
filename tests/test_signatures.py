"""Source guard: every argument of every function in ``src/sgsov`` is read in
the function's body, so no public signature takes an ignored argument."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sgsov"

# arguments kept unread because the benchmark calls them by these signatures
ALLOWED = {"verify_suite.threads", "eigenstate_separate_states.basis",
           "fit_Q_polynomial.rng"}


def _unread_arguments(tree):
    """``function.argument`` of every argument that its function never loads."""
    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = fn.args
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        names += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        loaded = {node.id for stmt in body for node in ast.walk(stmt)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        owner = getattr(fn, "name", "<lambda>")
        out.update(f"{owner}.{name}" for name in names if name not in loaded)
    return out


def test_every_argument_is_read():
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        unread |= _unread_arguments(ast.parse(path.read_text(), str(path)))
    assert unread == ALLOWED
