"""`tools/identity.py`: an A/A run on this checkout, and copies whose restart
rule differs or whose split check drops its evidence.

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
    assert "over 2020 runs" in out and "the trees agree" in out


def _refused(identity, capsys, tmp_path, module, old, new):
    """Run the tool on this checkout against a copy with `old` replaced by `new` in `module`."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "ratshare" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    assert identity.main([str(ROOT), str(tmp_path)]) == 1
    out = capsys.readouterr().out
    digests = _digests(out)
    assert len(digests) == 2 and digests[0] != digests[1]
    assert "the trees differ" in out


def test_identity_refuses_a_tree_whose_restart_rule_differs(identity, capsys, tmp_path):
    _refused(identity, capsys, tmp_path, "protocol.py", "(parity == 1 and observed_count == 1)",
             "(parity == 1 and observed_count == 2)")


def test_identity_refuses_a_tree_that_drops_split_evidence(identity, capsys, tmp_path):
    # Only a forged split piece records this evidence, so only the
    # forged-split runs can tell the trees apart.
    _refused(identity, capsys, tmp_path, "engine.py",
             "states[receivers[i]].cheat_evidence.append(found)", "pass")
