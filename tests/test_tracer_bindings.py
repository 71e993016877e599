"""The benchmark's tracer wraps ratshare functions by name; each binding must exist."""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

from ratshare.shamir import round_trip_reconstructions

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


def _load_tracer():
    """The benchmark's tracer module, loaded from its file (not modified)."""
    spec = importlib.util.spec_from_file_location("ratshare_bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    return tracer_module


def _modules():
    return SimpleNamespace(**{m: importlib.import_module(f"ratshare.{m}") for m in MODULES})


def test_tracer_installs_runs_and_restores(tmp_path, capsys):
    tracer_module = _load_tracer()
    mods = _modules()

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


def test_tracer_counts_each_hiding_reconstruction_and_issue(capsys):
    # The shamir layer figures of the exact workload count these calls, so
    # the round trip must still go through the traced entry points.
    mods = _modules()
    tracer = _load_tracer().Tracer()
    tracer.install(mods)
    try:
        assert mods.cli.main(["hiding", "--prime", "7"]) == 0
    finally:
        tracer.uninstall()
    spans, _ = tracer.take()
    names = [span[0] for span in spans]
    assert names.count("shamir.reconstruct") == round_trip_reconstructions(7, 3)
    assert names.count("shamir.issue_shares") == 7 + 7**2 + 7**3
    # Each issued share's tag is checked once, on receipt: n = 3 shares per
    # polynomial, not one check per subset that holds the share.
    assert names.count("shamir.verify_tag") == 3 * (7 + 7**2 + 7**3)


def test_one_sample_runs_is_one_kernel_lookup_and_one_stream():
    # The sampler workload's exact counts rest on this: per sample_runs,
    # one `montecarlo.iteration_outcome` call over the 8 kernel rows and
    # one `derive_generator` stream, whatever the trial count.  The kernel
    # is built (by engine runs) before tracing, as after a benchmark pass.
    mods = _modules()
    kernel = mods.montecarlo.iteration_kernel("withhold", 2)
    tracer = _load_tracer().Tracer()
    tracer.install(mods)
    try:
        mods.montecarlo.sample_runs(0.5, 1000, 1, deviation="withhold", deviator=2)
    finally:
        tracer.uninstall()
    spans, counts = tracer.take()
    assert sorted(span[0] for span in spans) == [
        "montecarlo.iteration_outcome", "montecarlo.sample_runs", "seeding.derive"]
    assert counts["montecarlo.rows"] == len(mods.montecarlo.PATTERNS)
    assert counts["montecarlo.absorbed_rows"] == int((~kernel.restart).sum())
