"""The mutant list in `tools/mutants.py` stays applicable: each mutant's old
text occurs exactly once in its file, the mutated file still parses (a
syntax error would fail every test, not the one named), and the test
meant to kill it exists."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_mutant_applies_once_and_names_an_existing_test():
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert m.file.startswith("src/ratshare/"), m.name
        text = (ROOT / m.file).read_text()
        assert text.count(m.old) == 1, m.name
        assert m.old != m.new, m.name
        ast.parse(text.replace(m.old, m.new), filename=m.file)
        path, _, function = m.test.partition("::")
        defined = {
            node.name for node in ast.parse((ROOT / path).read_text()).body
            if isinstance(node, ast.FunctionDef)
        }
        assert function in defined, m.name
