"""The benchmark's tracer wraps ratshare functions by name; each binding must exist."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
MODULES = ("cli", "engine", "lifts", "montecarlo", "analysis", "shamir",
           "dominance", "strategies", "report")


def _bindings(mods) -> dict:
    """Every attribute of the modules and of the classes they define."""
    owners = [getattr(mods, name) for name in MODULES]
    owners += [
        value
        for module in list(owners)
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_installs_runs_and_restores(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("ratshare_bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    mods = SimpleNamespace(**{m: importlib.import_module(f"ratshare.{m}") for m in MODULES})

    before = _bindings(mods)
    tracer = tracer_module.Tracer()
    tracer.install(mods)
    try:
        wrapped = {key for key, value in _bindings(mods).items() if before.get(key) is not value}
        assert (mods.cli, "run_mechanism") in wrapped
        assert (mods.lifts, "issue_round") in wrapped
        code = mods.cli.main(["simulate", "--alpha", "1", "--trials", "2", "--seed", "1",
                              "--dump-transcripts", str(tmp_path / "run.jsonl")])
        assert code == 0
        mods.lifts.lift_m_of_n(5, 3, 4, 1.0, seed=1, record=False)
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    names = {span[0] for span in spans}
    assert {"cli.main", "engine.run_mechanism", "lifts.lift_m_of_n", "engine.issue_round",
            "shamir.issue_shares", "seeding.derive"} <= names
    assert counts["engine.iterations"] > 0 and counts["lifts.iterations"] == 1

    after = _bindings(mods)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
