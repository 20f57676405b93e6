"""Shared rule machinery: the rule protocol and AST bookkeeping helpers.

Every per-file rule subclasses :class:`Rule` and implements
``check(ctx) -> Iterable[Finding]`` over a parsed :class:`FileContext`.
The helpers here answer the questions several rules share: what is ``np``
bound to in this file, which names refer to the stdlib ``random``/``time``
modules, which nodes live inside a ``raise`` statement (error paths are
exempt from hot-path restrictions), and what is a function's qualified name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.findings import Finding


@dataclass
class FileContext:
    """One parsed source file plus the config, shared by all rules."""

    path: Path
    rel: str
    tree: ast.Module
    lines: List[str]
    config: LintConfig
    _module_aliases: Dict[str, Set[str]] = field(default_factory=dict)
    _from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    self._module_aliases.setdefault(alias.name, set()).add(bound)
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self._from_imports[bound] = (node.module, alias.name)

    def aliases_of(self, module: str) -> Set[str]:
        """Local names bound to ``import <module>`` (e.g. ``np`` for numpy)."""
        return self._module_aliases.get(module, set())

    def from_import(self, name: str) -> Tuple[str, str]:
        """``(module, original_name)`` for a from-imported local name."""
        return self._from_imports.get(name, ("", ""))


class Rule:
    """One lint rule: an id, a rationale, and a ``check`` over a file."""

    rule_id: str = ""
    description: str = ""
    #: The contract the rule protects — shown by ``--list-rules`` and in docs.
    why: str = ""
    hint: str = ""

    def check(self, ctx: FileContext) -> Iterable[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str,
                hint: str = "") -> Finding:
        return Finding(path=ctx.rel, line=getattr(node, "lineno", 1),
                       rule=self.rule_id, message=message,
                       hint=hint or self.hint)


def iter_functions(tree: ast.Module) -> Iterator[Tuple[str, ast.AST]]:
    """Yield ``(qualified_name, def_node)`` for every function in the module.

    Qualified names are ``Class.method`` (one level of nesting, matching the
    hot-path registry convention) or bare function names.
    """

    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[str, ast.AST]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}" if prefix else child.name
                yield name, child
                yield from walk(child, f"{name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{child.name}.")

    yield from walk(tree, "")


def raise_protected_nodes(root: ast.AST) -> Set[int]:
    """ids of every node inside a ``raise`` statement under ``root``.

    Error paths never run in the steady state, so hot-path rules exempt the
    expressions that build an exception (f-string messages and the like).
    """
    protected: Set[int] = set()
    for node in ast.walk(root):
        if isinstance(node, ast.Raise):
            for sub in ast.walk(node):
                protected.add(id(sub))
    return protected


def call_attribute_chain(func: ast.AST) -> List[str]:
    """``["np", "random", "default_rng"]`` for ``np.random.default_rng``.

    Returns an empty list when the callable is not a plain dotted name.
    """
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return []
