"""`tools/identity.py`: an A/A run on this checkout, copies whose restart
rule differs, whose split check drops its evidence, or whose round trip
checks fewer thresholds, and copies that build more shares or derive
more streams to the same runs.

Each runs the tool in this process on a third of its exchange settings
(alpha 0.5, trials 0 and 1: every exchange and profile, an int secret and
a field element one, `record` on and off) and one small `hiding` run,
which keeps them to a few seconds.
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
    monkeypatch.setattr(module, "HIDING", ((7, 3),))
    yield module
    # Each run imports its trees afresh under the same package names.
    for name in [name for name in sys.modules if name.startswith("ratshare_identity_")]:
        del sys.modules[name]


def _sides(out):
    return [line.split() for line in out.splitlines() if line.startswith(("parent:", "change:"))]


def _digests(out):
    return [fields[1] for fields in _sides(out)]


def test_identity_passes_this_checkout_against_itself(identity, capsys):
    assert identity.main([str(ROOT), str(ROOT)]) == 0
    out = capsys.readouterr().out
    digests = _digests(out)
    assert len(digests) == 2 and digests[0] == digests[1]
    assert "over 2021 runs" in out and "the trees agree" in out


def _copy(tmp_path, module, old, new):
    """A copy of this checkout's sources with `old` replaced by `new` in `module`."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "src" / "ratshare" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    return tmp_path


def _refused(identity, capsys, tmp_path, module, old, new):
    """Run the tool on this checkout against a copy with `old` replaced by `new` in `module`."""
    assert identity.main([str(ROOT), str(_copy(tmp_path, module, old, new))]) == 1
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


def test_identity_refuses_a_tree_whose_round_trip_differs(identity, capsys, tmp_path):
    # Only the `hiding` runs reach the round trip.
    _refused(identity, capsys, tmp_path, "shamir.py", "_ROUND_TRIP_THRESHOLDS = (1, 2, 3)",
             "_ROUND_TRIP_THRESHOLDS = (1, 2)")


def test_identity_counts_builds_outside_the_hash(identity, capsys, tmp_path):
    # The copy also builds a forwarded-to leader's share when it need not:
    # the same runs, so the trees agree, but more shares built.
    copy = _copy(tmp_path, "engine.py", "items = self._sends(p)\n",
                 "items = self._sends(p)\n                self._sends(leader)\n")
    assert identity.main([str(ROOT), str(copy)]) == 0
    out = capsys.readouterr().out
    parent, change = _sides(out)
    assert parent[1] == change[1] and "the trees agree" in out
    assert parent[6:8] == change[6:8] == ["shares", "built,"]
    assert int(parent[5]) < int(change[5])


def test_identity_counts_streams_outside_the_hash(identity, capsys, tmp_path):
    # The copy also derives a stream for every forwarder, which draws
    # nothing from it: the same runs, so the trees agree, but more streams.
    copy = _copy(tmp_path, "engine.py", "for p in leaders}",
                 "for p in {*leaders, *(p for p, _ in self.forwarders)}}")
    assert identity.main([str(ROOT), str(copy)]) == 0
    out = capsys.readouterr().out
    parent, change = _sides(out)
    assert parent[1] == change[1] and "the trees agree" in out
    assert parent[5] == change[5]
    assert parent[9:] == change[9:] == ["streams", "derived"]
    assert int(parent[8]) < int(change[8])
