"""`tools/ab.py`: an A/A run on this checkout, and the digest gate between trees."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _ab(parent: Path, change: Path) -> subprocess.CompletedProcess:
    # --seconds 0: one unscored pass per tree, then one scored pair per input set.
    argv = [sys.executable, str(ROOT / "tools" / "ab.py"), str(parent), str(change),
            "--workload", "sampler", "--command", "1", "--seconds", "0"]
    return subprocess.run(argv, capture_output=True, text=True, timeout=300)


def test_ab_runs_this_checkout_against_itself():
    done = _ab(ROOT, ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["pairs"] == 16
    assert result["parent_best_s"] > 0 and result["change_best_s"] > 0
    assert result["best_ratio"] == result["change_best_s"] / result["parent_best_s"]
    assert 0 <= result["change_wins"] <= 16


def test_ab_refuses_trees_whose_results_differ(tmp_path):
    # A copy whose report names one result field differently still passes
    # the workload's checks, but its result digest differs.
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "ratshare" / "cli.py"
    text = cli.read_text()
    assert text.count('"resolved-alpha"') == 2
    cli.write_text(text.replace('"resolved-alpha"', '"alpha-resolved"'))
    done = _ab(ROOT, tmp_path)
    assert done.returncode == 1
    assert "result digests differ" in done.stdout
