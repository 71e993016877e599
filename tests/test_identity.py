"""`tools/identity.py`: an A/A run on this checkout, and a copy whose restart rule differs.

Both run the tool in this process on a third of its settings (alpha 0.5,
trials 0 and 1: every exchange and profile, an int secret and a field
element one, `record` on and off), which keeps them to a few seconds.
"""

import importlib.util
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def identity(monkeypatch):
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ALPHAS", (0.5,))
    monkeypatch.setattr(module, "TRIALS", 2)
    yield module
    # Each run imports its trees afresh under the same package names.
    for name in [name for name in sys.modules if name.startswith("ratshare_identity_")]:
        del sys.modules[name]


def _digests(out):
    return [line.split()[1] for line in out.splitlines() if line.startswith(("parent:", "change:"))]


def test_identity_passes_this_checkout_against_itself(identity, capsys):
    assert identity.main([str(ROOT), str(ROOT)]) == 0
    out = capsys.readouterr().out
    digests = _digests(out)
    assert len(digests) == 2 and digests[0] == digests[1]
    assert "over 2004 runs" in out and "the trees agree" in out


def test_identity_refuses_a_tree_whose_restart_rule_differs(identity, capsys, tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    protocol = tmp_path / "src" / "ratshare" / "protocol.py"
    text = protocol.read_text()
    rule = "(parity == 1 and observed_count == 1)"
    assert text.count(rule) == 1
    protocol.write_text(text.replace(rule, "(parity == 1 and observed_count == 2)"))
    assert identity.main([str(ROOT), str(tmp_path)]) == 1
    out = capsys.readouterr().out
    digests = _digests(out)
    assert len(digests) == 2 and digests[0] != digests[1]
    assert "the trees differ" in out
