"""Hot-path allocation rules: steady-state kernels must not allocate.

The throughput story of this reproduction (PR 2's SoA engine, PR 4's
compiled forward and fused PPO losses) rests on one convention: once buffers
are warm, the per-step path performs zero heap allocation.  Functions ending
in ``_into`` (``encode_into``, ``step_into``, ``reset_into``) advertise that
contract in their name; the named SoA / compiled-forward / fused-loss kernels
in :data:`repro.lint.config.DEFAULT_HOT_PATH_REGISTRY` carry it without the
suffix.  Inside any such function we flag:

* allocating numpy constructors (``np.zeros``, ``np.empty``,
  ``np.concatenate``, ...) and the ``@`` operator, which returns a fresh
  product array — each one is a malloc per step;
* list/dict/set displays and comprehensions **inside loops** — hidden
  per-iteration allocation;
* string formatting (f-strings, ``str.format``, ``%``) — allocation plus
  formatting cost that has no business in a kernel.

Error paths are exempt: everything inside a ``raise`` statement runs at most
once, so its f-string message is fine.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator, List, Set, Tuple

from repro.lint.findings import Finding
from repro.lint.rules.base import (FileContext, Rule, call_attribute_chain,
                                   iter_functions, raise_protected_nodes)

#: numpy callables that allocate a fresh array.
ALLOC_FNS = frozenset({
    "zeros", "ones", "empty", "full", "array", "arange", "eye", "identity",
    "zeros_like", "ones_like", "empty_like", "full_like", "concatenate",
    "stack", "vstack", "hstack", "column_stack", "dstack", "tile", "repeat",
    "linspace", "logspace", "meshgrid", "copy", "fromiter", "frombuffer",
})


def _hot_functions(ctx: FileContext) -> Iterator[Tuple[str, ast.AST]]:
    """Yield the functions in this file that carry the hot-path contract."""
    registered = ctx.config.hot_path_names(ctx.rel)
    for qualname, node in iter_functions(ctx.tree):
        name = qualname.rsplit(".", 1)[-1]
        if name.endswith(ctx.config.hot_path_suffix) or qualname in registered:
            yield qualname, node


def _loop_nodes(func: ast.AST) -> Set[int]:
    """ids of nodes that sit inside a for/while loop within ``func``."""
    inside: Set[int] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.While, ast.AsyncFor)):
            for sub in ast.walk(node):
                if sub is not node:
                    inside.add(id(sub))
    return inside


class HotPathNumpyAllocRule(Rule):
    """No allocating numpy constructors or ``@`` inside hot-path functions."""

    rule_id = "hotpath.numpy-alloc"
    description = ("allocating numpy constructor or @ operator inside a "
                   "*_into or registered hot-path function")
    why = ("the per-step contract is zero heap allocation once buffers are "
           "warm; one np.zeros per step costs a malloc + memset and defeats "
           "the preallocated-buffer design")
    hint = ("preallocate the array in __init__ / _ensure_buffers and write "
            "with out=/[:] assignment (np.matmul(a, b, out=buf) for a @ b)")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        numpy_names = ctx.aliases_of("numpy")
        for qualname, func in _hot_functions(ctx):
            protected = raise_protected_nodes(func)
            for node in ast.walk(func):
                if id(node) in protected:
                    continue
                if isinstance(node, (ast.BinOp, ast.AugAssign)) \
                        and isinstance(node.op, ast.MatMult):
                    findings.append(self.finding(
                        ctx, node,
                        f"@ allocates its product inside hot path {qualname}()"))
                    continue
                if not isinstance(node, ast.Call):
                    continue
                chain = call_attribute_chain(node.func)
                hit = ""
                if len(chain) == 2 and chain[0] in numpy_names \
                        and chain[1] in ALLOC_FNS:
                    hit = f"np.{chain[1]}"
                elif len(chain) == 1 \
                        and ctx.from_import(chain[0])[0] == "numpy" \
                        and ctx.from_import(chain[0])[1] in ALLOC_FNS:
                    hit = chain[0]
                if hit:
                    findings.append(self.finding(
                        ctx, node,
                        f"{hit}() allocates inside hot path {qualname}()"))
        return findings


class HotPathContainerInLoopRule(Rule):
    """No list/dict/set construction inside loops in hot-path functions."""

    rule_id = "hotpath.container-in-loop"
    description = ("list/dict/set literal or comprehension built inside a "
                   "loop in a hot-path function")
    why = ("a container display in a loop allocates per iteration — per env, "
           "per way, per step — which is exactly the scaling the SoA layout "
           "exists to avoid")
    hint = "hoist the container out of the loop or vectorize with numpy"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        container_types = (ast.List, ast.Dict, ast.Set, ast.ListComp,
                           ast.DictComp, ast.SetComp, ast.GeneratorExp)
        for qualname, func in _hot_functions(ctx):
            protected = raise_protected_nodes(func)
            in_loop = _loop_nodes(func)
            for node in ast.walk(func):
                if isinstance(node, container_types) and id(node) in in_loop \
                        and id(node) not in protected:
                    kind = type(node).__name__
                    findings.append(self.finding(
                        ctx, node,
                        f"{kind} built inside a loop in hot path {qualname}()"))
        return findings


class HotPathStrFormatRule(Rule):
    """No string formatting in hot-path functions (outside raise)."""

    rule_id = "hotpath.str-format"
    description = ("f-string / str.format / % formatting inside a hot-path "
                   "function")
    why = ("string formatting allocates and formats on every step; hot "
           "kernels must not produce text except when raising")
    hint = "move formatting to the error path or the caller"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for qualname, func in _hot_functions(ctx):
            protected = raise_protected_nodes(func)
            for node in ast.walk(func):
                if id(node) in protected:
                    continue
                if isinstance(node, ast.JoinedStr):
                    findings.append(self.finding(
                        ctx, node, f"f-string inside hot path {qualname}()"))
                elif isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "format" \
                        and isinstance(node.func.value, ast.Constant) \
                        and isinstance(node.func.value.value, str):
                    findings.append(self.finding(
                        ctx, node, f"str.format() inside hot path {qualname}()"))
                elif isinstance(node, ast.BinOp) \
                        and isinstance(node.op, ast.Mod) \
                        and isinstance(node.left, ast.Constant) \
                        and isinstance(node.left.value, str):
                    findings.append(self.finding(
                        ctx, node,
                        f"%-formatting inside hot path {qualname}()"))
        return findings


RULES = (HotPathNumpyAllocRule, HotPathContainerInLoopRule, HotPathStrFormatRule)
