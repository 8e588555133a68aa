"""Self-tests of the benchmark.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from nlpcheck import arc, cli, cones, cq, expr, kkt, linalg, model, problems  # noqa: E402
from nlpcheck.model import load_problem  # noqa: E402
from tracing import SPANS, Tracer  # noqa: E402

MODULES = (arc, cli, cones, cq, expr, kkt, linalg, model, problems)


@pytest.fixture(autouse=True)
def _repo_root(monkeypatch):
    # generated problem files are referenced relative to the repository root
    monkeypatch.chdir(run.ROOT)


@pytest.mark.parametrize(
    "generator, arg, n",
    [(workloads.chain_text, 9, 9), (workloads.fanfree_text, 10, 5), (workloads.fan_text, 3, 3)],
)
def test_generators_are_deterministic(generator, arg, n):
    text = generator(arg)
    assert text == generator(arg)
    assert load_problem(text).n == n


def test_workload_instances_are_deterministic():
    for name in workloads.WORKLOADS:
        assert workloads.instances(name) == workloads.instances(name)


def test_tracer_wraps_every_binding_and_restores_it():
    before = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    with Tracer() as tracer:
        # from-imports are wrapped where their callers look them up
        assert cq.numerical_rank.__wrapped__ is before[("nlpcheck.linalg", "numerical_rank")]
        assert kkt.numerical_rank.__wrapped__ is before[("nlpcheck.linalg", "numerical_rank")]
        assert cli.evaluate_point.__wrapped__ is before[("nlpcheck.model", "evaluate_point")]
        cli.run(cli.RunConfig(problem="builtin:paper-example-1"))
    after = {(m.__name__, k): v for m in MODULES for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.stats["cli.run"].calls == 1
    assert tracer.binding_calls["cq.numerical_rank"] > 0
    assert set(tracer.stats) == set(SPANS)


def test_tracer_restores_bindings_when_the_analysis_raises():
    original = cli.run
    with pytest.raises(cli.InputError):
        with Tracer():
            cli.run(cli.RunConfig(problem="builtin:no-such-problem"))
    assert cli.run is original


def test_self_time_excludes_child_spans():
    with Tracer() as tracer:
        cli.run(cli.RunConfig(problem="builtin:circle"))
    total = tracer.stats["cli.run"]
    assert 0.0 < total.self_s < total.total_s
    covered = sum(st.self_s for st in tracer.stats.values())
    assert covered == pytest.approx(total.total_s, rel=1e-6)


@pytest.mark.parametrize("workload", ["fixtures", "rank-scan"])
def test_traced_and_untraced_reports_are_byte_identical(workload):
    inst = workloads.instances(workload)[0]
    (_, config), = run.prepare([inst], seed=3)
    plain = cli.report_to_json(cli.run(config))
    with Tracer():
        traced = cli.report_to_json(cli.run(config))
    assert traced == plain


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_workload_analyses_without_failure(workload):
    client = run.Client()
    for inst, config in run.prepare(workloads.instances(workload), seed=0):
        assert client.analyze(inst, config) is not None, client.failures
    assert client.failures == []


def test_rejected_verdict_counts_as_failure():
    inst = workloads.instances("fixtures")[0]
    wrong = workloads.Instance(inst.name, inst.problem, inst.text, {"licq": {"no-such-status"}})
    client = run.Client()
    (_, config), = run.prepare([wrong], seed=0)
    assert client.analyze(wrong, config) is None
    assert len(client.failures) == 1


@pytest.mark.parametrize(
    "label, prop", [("circle --arc-dir 0,1", "arc5"), ("paper-example-2 --arc-dir 1,0", "arc2")]
)
def test_wrong_arc_outcome_counts_as_failure(label, prop):
    inst = next(i for i in workloads.instances("fixtures") if i.name == label)
    (_, config), = run.prepare([inst], seed=0)
    report = cli.run(config)
    assert workloads.accepted_failures(inst, report) == []
    check = report["arcs"]["entries"][0]["properties"][prop]
    check["passed"] = not check["passed"]
    failures = workloads.accepted_failures(inst, report)
    assert len(failures) == 1 and f"{prop}=" in failures[0]
    report["arcs"]["entries"] = []  # no arc built at all
    assert len(workloads.accepted_failures(inst, report)) == len(workloads.ARC_PROPERTIES)


def test_metric_names_and_units_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    jobs = run.prepare(workloads.instances("fixtures")[:1], seed=0)
    _, _, layers, _ = run.measure_layers(run.Client(), jobs, seconds=1e-3)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == {
        k: unit for k, (_, unit) in layers.items()
    }
    _, speed, e2e, _ = run.measure_end_to_end(run.Client(), jobs, seconds=1e-3)
    assert speed > 0
    expected = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert expected == {**{k: unit for k, (_, unit) in e2e.items()},
                        "setup_s": "s", "peak_rss_mb": "MiB"}
