"""Tests of the benchmark's own machinery: self-time arithmetic, tracer
install/restore, traced output identity, and the reference check. They run
shrunken versions of the workloads, so they take seconds."""

import json
import random
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

import crosslearn  # noqa: E402

TINY_SYNTH = {"kind": "tabular_synthetic", "C": 8, "K": 4}
TINY_AUDIT = {"n_contexts": 8, "n_arms": 4, "horizon": 512, "gap": 0.7, "noise": 0.15}


def tiny_plans(tmp_path):
    return {
        "synthetic_grid": wl.GridPlan(
            "synthetic_grid",
            wl.synthetic_parts([0, 1], 1, env=TINY_SYNTH, grid=[64, 128]),
            str(tmp_path / "synthetic.csv")),
        "reductions_grid": wl.GridPlan(
            "reductions_grid",
            wl.reductions_parts([0, 1], auction_grid=[64, 128], sleeping_grid=[100]),
            str(tmp_path / "reductions.csv")),
        "tuned_audit": wl.AuditPlan([0, 1], shape=TINY_AUDIT),
    }


def test_self_times_hand_built():
    # (parent, start, end); the root's children are back to back (1, 2),
    # overlapping (2, 4) and sticking out of the root (5); 3 is nested in 1
    spans = [(-1, 0, 100), (0, 10, 30), (0, 30, 50), (1, 12, 20),
             (0, 45, 60), (0, 90, 120), (-1, 200, 210), (6, 200, 210)]
    want = [100 - 50 - 10, 20 - 8, 20, 8, 15, 30, 0, 10]
    order = list(range(len(spans)))
    random.Random(0).shuffle(order)
    pos = {old: new for new, old in enumerate(order)}
    shuffled = [spans[i] for i in order]
    parents = [pos[p] if p >= 0 else -1 for p, _, _ in shuffled]
    got = layers.self_times(parents, [s for _, s, _ in shuffled],
                            [e for _, _, e in shuffled])
    assert [int(got[pos[i]]) for i in range(len(spans))] == want


def test_self_times_exact_at_clock_scale():
    base = 3 * 10 ** 15  # perf_counter_ns after weeks of uptime
    parents = [-1, 0, 0, 1]
    starts = [base, base + 1, base + 5, base + 2]
    ends = [base + 10, base + 4, base + 9, base + 3]
    assert layers.self_times(parents, starts, ends).tolist() == [3, 2, 4, 1]


def attributes():
    """Every attribute of the package's modules and classes, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "crosslearn" or name.startswith("crosslearn."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for k, v in vars(value).items():
                        out[(name, key, k)] = v
    return out


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_output_identical_and_rebinding_restored(tmp_path, workload):
    plan = tiny_plans(tmp_path)[workload]
    before = attributes()
    first = plan.fingerprint(plan.run().output)
    tracer = layers.Tracer()
    with tracer:
        assert crosslearn.harness.run_single is not before[("crosslearn.harness", "run_single")]
        traced = plan.fingerprint(plan.run().output)
    after = attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert traced == first
    assert plan.fingerprint(plan.run().output) == first
    spans, coverage = tracer.summary()
    assert spans["learner.step"]["calls"] == plan.rounds - sum(
        spans[s]["calls"] for s in ("baselines.known_nu.step", "baselines.exp3.step"))
    assert 0.75 < coverage <= 1.0


def test_clock_scales_by_the_mean_kernel(monkeypatch):
    kernels = iter([0.01, 0.05, 0.06])
    monkeypatch.setattr(run.hostspeed, "kernel_seconds", lambda: next(kernels))
    clock = run.Clock()
    assert clock(lambda: "out") == "out"
    clock(lambda: None)
    assert clock.kernels == [0.01, 0.05, 0.06] and len(clock.walls) == 2
    assert clock.scaled(3.0) == pytest.approx(3.0 * run.hostspeed.REFERENCE_S / 0.04)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_clocked_unit_times_every_run_and_keeps_its_output(tmp_path, workload):
    plan = tiny_plans(tmp_path)[workload]
    clock, outcome = run.clocked(plan)
    # one call per run of the serial unit, plus write_csv or audit_summary
    assert len(clock.walls) == len(plan.keys) + 1
    assert plan.fingerprint(outcome.output) == plan.fingerprint(plan.run().output)


# per workload: span names whose calls must be zero (the "(none)" column)
ABSENT = {
    "synthetic_grid": ["verify.round_played", "verify.estimate_recorded",
                       "verify.epoch_started"],
    "reductions_grid": ["simplex.ftrl_weights_batch", "verify.round_played",
                        "verify.estimate_recorded", "verify.epoch_started",
                        "baselines.known_nu.step", "baselines.probe_table"],
    "tuned_audit": ["baselines.known_nu.step", "baselines.probe_table",
                    "baselines.exp3.step", "envs.regret_update", "envs.regret",
                    "harness.run_single", "harness.write_csv"],
}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_layers_each_workload_bypasses(tmp_path, workload):
    plan = tiny_plans(tmp_path)[workload]
    tracer = layers.Tracer()
    with tracer:
        plan.run()
    spans, coverage = tracer.summary()
    metrics = layers.layer_metrics(spans, tracer.counters, tracer.learners, coverage)
    names = {name for name, _ in layers.PER_LAYER}
    assert set(metrics) == names - set(layers.FROM_UNTRACED)
    assert {name.split(".")[0] for name in names} == set(layers.LAYERS) | {"trace"}
    for span in ABSENT[workload]:
        assert spans[span]["calls"] == 0, span
    for span in ("simplex.ftrl_weights", "simplex.sample_index", "accumulator.add",
                 "learner.step", "learner.select", "envs.reveal"):
        assert spans[span]["calls"] > 0, span


def test_coverage_drops_when_a_hot_layer_is_not_wrapped(tmp_path, monkeypatch):
    plan = tiny_plans(tmp_path)["tuned_audit"]
    plan.run()  # first-call costs would lower the first coverage only

    def summaries():
        # several short traced units: one preemption would move a single one
        out = []
        for _ in range(5):
            tracer = layers.Tracer()
            with tracer:
                plan.run()
            out.append(tracer.summary())
        return out

    full_runs = summaries()
    full = statistics.median(c for _, c in full_runs)
    share = statistics.median(
        s["learner.step"]["self_s"] / s["verify.audit_run"]["total_s"] for s, _ in full_runs)
    targets = dict(layers.TARGETS)
    del targets["learner.step"]
    monkeypatch.setattr(layers, "TARGETS", targets)
    partial = statistics.median(c for _, c in summaries())
    # the unwrapped step's own time lands in audit_run's self time
    assert partial < full - share / 2


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS) == list(run.WORKLOADS)


def reference_for(plan, output):
    if isinstance(plan, wl.GridPlan):
        header, blocks = plan.outputs(output)
        return {"csv_header": header, plan.name: dict(blocks)}
    per_seed, _ = plan.fingerprint(output)
    return {plan.name: {key: {"digest": dg, "counts": counts}
                        for key, dg, counts in per_seed}}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_check_flags_changed_output(tmp_path, workload):
    plan = tiny_plans(tmp_path)[workload]
    outcome = plan.run()
    reference = reference_for(plan, outcome.output)
    assert wl.check(plan, outcome, reference) == 0
    if isinstance(plan, wl.GridPlan):
        lines = outcome.output.split("\n")
        lines[2] = lines[2][:-1] + ("1" if lines[2][-1] != "1" else "2")
        outcome.output = "\n".join(lines)
        assert wl.check(plan, outcome, reference) == 1
    else:
        per_seed, summary = outcome.output
        outcome.output = (per_seed, dict(summary, epochs=summary["epochs"] + 1))
        assert wl.check(plan, outcome, reference) == len(plan.keys)


def test_run_seeds_are_fixed_draws_from_the_pool():
    for workload in wl.WORKLOADS:
        seeds = wl.run_seeds(workload, 7)
        assert seeds == wl.run_seeds(workload, 7)
        assert len(set(seeds)) == wl.RUN_SEEDS[workload]
        assert all(0 <= s < wl.SEED_POOL for s in seeds)
