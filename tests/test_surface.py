"""The package's public surface is what its own code, the benchmark and the README read.

Every public top-level function and class in `src/ratshare` must be read
outside its own definition and the package `__init__`: by other code in
`src/ratshare`, by `bench/` (whose tracer also patches bindings by their
string names), or in an inline code span of `README.md`.  So must every public member of a
public class: its methods and properties, its dataclass or NamedTuple
fields and its class attributes.  Tests do not count, since a helper only
tests call is a second copy of a path the package already has.

A top-level name counts as read when some code loads it as a bare name
or an attribute, or names it in a whole string.  A member counts only
through an attribute load (`x.member`), a whole string or a README code
span: a local, parameter or keyword argument of the same spelling does
not read it, and neither does a word of README prose or of a fenced
block.  The guard still cannot tell a member from a same-named member of
another class (`RunOutcome.total_steps` from `TrialStats.total_steps`).
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "ratshare"

# Kept on purpose, though only tests read them.
KEPT = {
    "shamir.combine_subshares": "the inverse that tests check split_subshares against",
    "strategies.canonical_table": "the running example's utility table, a test fixture",
    "dominance.bounded_strategy_sends": "labels the bounded-r2 survivors in tests until r = 3 "
    "replaces the hand-written game",
    "strategies.WithholdFromLeader": "the lifts' forwarding deviation, a test fixture",
    "dominance.NormalFormGame.to_doc": "the inverse that tests check from_doc against",
    "strategies.UtilityTable.to_doc": "the inverse that tests check from_doc against",
    "dominance.DeletionTrace.would_empty": "stores the fault of a round that would empty a "
    "player's set, rather than applying it",
    "dominance.NormalFormGame.info_map": "hashed by the bounded-r2 golden and read by "
    "acceptance 08",
    "strategies.CheatEvidence.about": "the player a piece of cheat evidence names, for the "
    "[diagnostics] section that will report the evidence",
}


def _public_definitions() -> dict[str, ast.AST]:
    """Each public top-level function and class, as "module.name", with its node."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found[f"{path.stem}.{node.name}"] = node
    return found


def _public_members(definitions: dict[str, ast.AST]) -> dict[str, ast.AST]:
    """Each public method, property, field and class attribute of a public class,
    as "module.Class.name", with its node."""
    found = {}
    for qualified, node in definitions.items():
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                names = [item.name]
            elif isinstance(item, ast.AnnAssign):
                names = [item.target.id]
            elif isinstance(item, ast.Assign):
                names = [target.id for target in item.targets if isinstance(target, ast.Name)]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    found[f"{qualified}.{name}"] = item
    return found


def _reads(tree: ast.AST, skip: ast.AST | None = None, bare: bool = True) -> set[str]:
    """Attribute names and whole-string constants that `tree` loads outside
    `skip`, and with `bare` its loaded bare names too."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if bare and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _readme_code_words() -> set[str]:
    """The words inside README inline code spans; fenced blocks and prose do not count."""
    text = re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(), flags=re.M | re.S)
    return {word for span in re.findall(r"`([^`]+)`", text) for word in re.findall(r"\w+", span)}


def _unread(members: bool = False) -> set[str]:
    """The public definitions, or with `members` the public class members, read nowhere."""
    definitions = _public_definitions()
    if members:
        definitions = _public_members(definitions)
    trees = {
        path: ast.parse(path.read_text())
        for path in [*sorted(SRC.glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]
        if path.name != "__init__.py"
    }
    readme = _readme_code_words()
    # A member is read through an attribute (`x.member`) or a string, never
    # through a bare name: a local or keyword of the same spelling is not it.
    everywhere = {path: _reads(tree, bare=not members) for path, tree in trees.items()}
    unread = set()
    for qualified, node in definitions.items():
        module, *_, name = qualified.split(".")
        own = SRC / f"{module}.py"
        if name in readme or any(name in reads for path, reads in everywhere.items() if path != own):
            continue
        if name not in _reads(trees[own], skip=node, bare=not members):
            unread.add(qualified)
    return unread


def test_every_public_name_is_read_outside_tests():
    # Equality also keeps KEPT minimal: a kept name that gains a reader,
    # or is deleted, leaves the list.
    assert _unread() == {key for key in KEPT if key.count(".") == 1}


def test_every_public_member_is_read_outside_tests():
    assert _unread(members=True) == {key for key in KEPT if key.count(".") == 2}
