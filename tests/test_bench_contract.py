"""What the benchmark under ``bench/`` relies on in the package.

The traced benchmark run wraps otocap functions by name and reads a few
attributes off their arguments and results; a renamed or removed
function silently drops its per-layer metrics.  ``bench/layertrace.py``
and ``bench/workloads.py`` are read by path here and never edited.  A
second guard keeps ``import otocap`` lean, since its time is part of
every run's set-up.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import otocap as oc
import otocap.capacity
from otocap.cli import main, save_instance

ROOT = Path(__file__).resolve().parents[1]
# per-layer metrics that bench/run.py computes itself, not from the spans
COMPUTED_BY_RUNNER = {"matrices.unique_block_ratio", "cli.output_bytes",
                      "trace.overhead_frac", "trace.coverage"}


def load_bench(name):
    path = ROOT / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"{name}_under_test", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    lt = load_bench("layertrace")
    names = [(layer, fn) for kinds in (lt.SPANNED, lt.COUNTED)
             for layer, fns in kinds.items() for fn in fns]
    assert names
    for layer, fn in names:
        assert callable(getattr(getattr(oc, layer), fn, None)), f"otocap.{layer}.{fn}"


def test_sized_results_keep_their_attributes(monkeypatch):
    inst = oc.generate(oc.GenSpec(topology="diamond", relays=2, beta=0.1))
    space = oc.build_state_space(inst)
    assert len(space.patterns) > 1 and len(space.cuts) == 4

    seen = []

    def spy(problem, start=None):
        seen.append((problem, start))
        return oc.solve_maxmin(problem, start)

    monkeypatch.setattr(otocap.capacity, "solve_maxmin", spy)
    oc.verify_instance(inst)
    # the imperfect table has a column per pattern and its LP starts from
    # the maximal matchings; the ideal and TSN tables have one column per
    # maximal matching
    maximal = int(space.maximal.sum())
    assert maximal < len(space.patterns)
    assert [problem.values.shape for problem, _ in seen] == [
        (len(space.cuts), len(space.patterns)),
        (len(space.cuts), maximal),
        (len(space.cuts), maximal),
    ]
    assert seen[0][1].tolist() == space.maximal.nonzero()[0].tolist()
    assert seen[1][1] is None and seen[2][1] is None


def test_workload_block_count_matches_the_kernel():
    # the size cache iterates space.patterns, which builds patterns on access
    workloads = load_bench("workloads")
    inst = oc.generate(oc.GenSpec(topology="full", relays=3, channel="rayleigh", beta=0.3))
    space = oc.build_state_space(inst)
    assert workloads.distinct_blocks(space) == oc.cut_block_tables(inst, space).distinct_blocks


def test_traced_run_reports_every_layer(tmp_path):
    lt = load_bench("layertrace")
    inst = oc.generate(oc.GenSpec(topology="full", relays=2, channel="rayleigh", beta=0.3))
    path = tmp_path / "inst.json"
    save_instance(inst, str(path))
    commands = [["--model", "ideal"], ["--model", "all", "--format", "csv"]]
    rec = lt.Recorder()
    with lt.traced(rec, oc):
        rec.item = 0
        oc.verify_instance(inst)
        for item, flags in enumerate(commands, start=1):
            rec.item = item
            assert main(["capacity", str(path), *flags,
                         "-o", str(tmp_path / f"out{item}")]) == 0
    assert rec.absent == {}
    assert rec.sizer_errors == {}
    metrics = rec.summarize([0])
    for layer, fns in lt.SPANNED.items():
        for fn in fns:
            assert f"{layer}.{fn}.self_ms" in metrics
    # the per-pair block functions stay wrapped but the product path no
    # longer calls them; verify_instance builds the cut blocks once and
    # one linear table per linear model
    for layer, fns in lt.COUNTED.items():
        for fn in fns:
            assert metrics[f"{layer}.{fn}.calls"] == 0
    assert metrics["capacity.imperfect_value_table.calls"] == 1
    assert metrics["capacity.linear_value_table.calls"] == 2
    assert metrics["enumeration.patterns"] == len(oc.build_state_space(inst).patterns)
    # one enumeration per capacity command
    for item in range(1, len(commands) + 1):
        assert rec.summarize([item])["cli.build_state_space.calls"] == 1


# Each workload's items, as bench/workloads.py runs them: verify_instance
# alone (None), or the capacity commands of capacity_cli_full_n5 with one
# model each.
WORKLOAD_SHAPES = {
    "verify_instance": [None],
    "capacity_ideal_json_tsn_csv": [["--model", "ideal", "--format", "json"],
                                    ["--model", "tsn", "--format", "csv"]],
}


@pytest.mark.parametrize("shape", WORKLOAD_SHAPES)
def test_traced_run_yields_every_declared_per_layer_metric(tmp_path, shape):
    """A traced run of each workload shape after a traced generate reports
    every per-layer name BENCHMARK.json declares, sized metrics included.

    Metrics are summarised over the run's items alone, as bench/run.py
    does, so a route that skips a sized function drops its names.
    """
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert COMPUTED_BY_RUNNER <= declared
    lt = load_bench("layertrace")
    rec = lt.Recorder()
    path = tmp_path / "inst.json"
    items = WORKLOAD_SHAPES[shape]
    with lt.traced(rec, oc):
        rec.item = "setup"
        inst = oc.generate(oc.GenSpec(topology="full", relays=2, channel="rayleigh", beta=0.3))
        save_instance(inst, str(path))
        for item, flags in enumerate(items):
            rec.item = item
            if flags is None:
                oc.verify_instance(inst)
            else:
                assert main(["capacity", str(path), *flags, "-o", str(tmp_path / "out")]) == 0
    metrics = rec.summarize(range(len(items)))
    metrics["instancegen.generate.ms"] = rec.summarize(["setup"])["instancegen.generate.ms"]
    assert sorted(declared - COMPUTED_BY_RUNNER - metrics.keys()) == []


IMPORT_PROBE = """
import json, sys
import numpy as np
import otocap
mods = sorted(m for m in sys.modules
              if m.split(".")[0] in ("networkx", "mpmath", "hypothesis")
              or m == "scipy.stats" or m.startswith("scipy.stats."))
arrays = sorted(f"{name}.{attr}" for name, mod in sys.modules.items()
                if name == "otocap" or name.startswith("otocap.")
                for attr, value in vars(mod).items()
                if isinstance(value, np.ndarray) and value.size > 1)
print(json.dumps({"modules": mods, "arrays": arrays}))
"""


def test_import_loads_no_heavy_modules_and_precomputes_nothing():
    src = str(Path(oc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found == {"modules": [], "arrays": []}
