"""Command-line interface: subcommands, formats, exit codes."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import otocap as oc
import otocap.bounds
import otocap.cli
from otocap.cli import (
    REPORT_COLUMNS,
    InstanceFormatError,
    instance_from_doc,
    instance_to_json,
    load_instance,
    main,
    save_instance,
)


def write_instance(tmp_path, name="inst.json", **genspec_kwargs):
    inst = oc.generate(oc.GenSpec(**genspec_kwargs))
    path = tmp_path / name
    save_instance(inst, str(path))
    return inst, str(path)


def read_csv(text):
    return list(csv.DictReader(text.splitlines()))


# -- serialization ---------------------------------------------------------


def test_json_round_trip_is_exact(tmp_path):
    inst = oc.generate(oc.GenSpec(topology="full", relays=2, channel="rayleigh",
                                  seed=11, power=0.1 + 0.2, beta=1 / 3))
    path = tmp_path / "r.json"
    save_instance(inst, str(path))
    loaded = load_instance(str(path))
    assert np.array_equal(loaded.channel, inst.channel)
    assert loaded.power == inst.power
    assert loaded.beta == inst.beta
    # serializing again reproduces the file byte for byte
    assert instance_to_json(loaded) + "\n" == path.read_text()


def test_load_rejects_schema_violations():
    base = {"num_relays": 1, "power": 1.0, "alpha": 1.0, "beta": 0.0,
            "links": [{"from": 0, "to": 1, "re": 1.0, "im": 0.0}]}
    instance_from_doc(base)  # sanity: the template itself is fine

    with pytest.raises(InstanceFormatError, match="missing required field"):
        instance_from_doc({k: v for k, v in base.items() if k != "alpha"})
    with pytest.raises(InstanceFormatError, match="duplicate link"):
        instance_from_doc({**base, "links": base["links"] * 2})
    with pytest.raises(InstanceFormatError, match="outside valid index"):
        instance_from_doc({**base, "links": [{"from": 0, "to": 5, "re": 1.0, "im": 0.0}]})
    with pytest.raises(InstanceFormatError, match="malformed link entry"):
        instance_from_doc({**base, "links": [{"from": 0, "re": 1.0, "im": 0.0}]})
    with pytest.raises(InstanceFormatError, match="num_relays"):
        instance_from_doc({**base, "num_relays": -1})
    with pytest.raises(InstanceFormatError):
        instance_from_doc([base])
    with pytest.raises(InstanceFormatError, match="cannot read"):
        load_instance("/nonexistent/inst.json")


BOOL_FIELDS = ["num_relays", "power", "alpha", "beta", "from", "to", "re", "im"]


@pytest.mark.parametrize("field", BOOL_FIELDS)
def test_capacity_rejects_boolean_fields_exit_2(tmp_path, capsys, field):
    # isinstance(True, int) holds and float(True) is 1.0, so a boolean
    # would otherwise pass as the number 1: every field set to True here
    # held 1 (or a value that 1 also makes valid) before.
    doc = {"num_relays": 1, "power": 1.0, "alpha": 1.0, "beta": 0.0,
           "links": [{"from": 0, "to": 1, "re": 1.0, "im": 0.0},
                     {"from": 1, "to": 2, "re": 1.0, "im": 0.0}]}
    if field in doc:
        doc[field] = True
    else:
        doc["links"][1 if field == "from" else 0][field] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert main(["capacity", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("field", ["from", "to"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.9, 1e300, "1"],
                         ids=["nan", "inf", "-inf", "0.9", "1e300", "string"])
def test_capacity_rejects_non_integer_node_ids_exit_2(tmp_path, capsys, field, value):
    # int() took these before: 0.9 loaded as node 0, "1" as node 1, and
    # Infinity raised an uncaught OverflowError
    doc = {"num_relays": 1, "power": 1.0, "alpha": 1.0, "beta": 0.0,
           "links": [{"from": 0, "to": 1, "re": 1.0, "im": 0.0},
                     {"from": 1, "to": 2, "re": 1.0, "im": 0.0}]}
    doc["links"][0][field] = value
    path = tmp_path / "ids.json"
    path.write_text(json.dumps(doc))
    assert main(["capacity", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: malformed link entry")


@pytest.mark.parametrize("field,value,message", [
    ("links", 5, "links must be a JSON array"),
    ("links", None, "links must be a JSON array"),
    ("links", "ab", "links must be a JSON array"),
    ("links", {"from": 0, "to": 1}, "links must be a JSON array"),
    ("power", "1", "power must be a number"),
    ("alpha", "1", "alpha must be a number"),
    ("beta", "0.5", "beta must be a number"),
    ("beta", None, "beta must be a number"),
    ("power", [1.0], "power must be a number"),
    ("power", 10**400, "int too large to convert to float"),
    ("re", 10**400, "malformed link entry"),
    ("re", "1", "malformed link entry"),
    ("im", "0", "malformed link entry"),
    ("metadata", [1], "metadata must be a JSON object"),
    ("metadata", 3, "metadata must be a JSON object"),
    ("metadata", "note", "metadata must be a JSON object"),
], ids=["links-number", "links-null", "links-string", "links-object",
        "power-string", "alpha-string", "beta-string", "beta-null", "power-array",
        "power-huge-int", "re-huge-int", "re-string", "im-string",
        "metadata-array", "metadata-number", "metadata-string"])
def test_capacity_rejects_mistyped_fields_exit_2(tmp_path, capsys, field, value, message):
    # links 5 or null raised an uncaught TypeError and "ab" was iterated
    # by character; string scalars and gains and non-object metadata
    # loaded; huge integers raised an uncaught OverflowError
    doc = {"num_relays": 1, "power": 1.0, "alpha": 1.0, "beta": 0.0, "metadata": None,
           "links": [{"from": 0, "to": 1, "re": 1.0, "im": 0.0}]}
    assert instance_from_doc(doc).metadata == {}
    if field in ("re", "im"):
        doc["links"][0][field] = value
    else:
        doc[field] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    assert main(["capacity", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("relays", [oc.MAX_RELAYS + 1, 10**9])
def test_relay_count_over_limit_exit_2(tmp_path, capsys, relays):
    # checked before the dense (N+2)^2 channel or the O(N^2) link lists
    # of a generated topology are allocated
    with pytest.raises(ValueError, match="must be in"):
        oc.NetworkInstance.from_links(relays, {(0, 1): 1.0}, 1.0, 1.0, 0.0)
    doc = {"num_relays": relays, "power": 1.0, "alpha": 1.0, "beta": 0.0,
           "links": [{"from": 0, "to": 1, "re": 1.0, "im": 0.0}]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["capacity", str(path)]) == 2
    assert main(["gen", "--topology", "full", "--relays", str(relays)]) == 2
    assert main(["verify", "--topology", "full", "--relays", str(relays)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count(f"must be in [0, {oc.MAX_RELAYS}], got {relays}\n") == 3
    # the limit itself loads, and stops at the enumeration cap
    path.write_text(json.dumps({**doc, "num_relays": oc.MAX_RELAYS}))
    assert main(["capacity", str(path)]) == 3


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError, match="not valid JSON"):
        load_instance(str(path))


# -- gen -------------------------------------------------------------------


def test_gen_writes_json_to_stdout(capsys):
    assert main(["gen", "--topology", "diamond", "--relays", "2"]) == 0
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert doc["num_relays"] == 2
    assert len(doc["links"]) == 4
    assert err == ""


def test_gen_writes_file_and_reports_on_stderr(tmp_path, capsys):
    path = tmp_path / "g.json"
    rc = main(["gen", "--topology", "full", "--relays", "2", "--channel",
               "rayleigh", "--seed", "3", "-o", str(path)])
    assert rc == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert str(path) in err
    loaded = load_instance(str(path))
    reference = oc.generate(oc.GenSpec(topology="full", relays=2,
                                       channel="rayleigh", seed=3))
    assert np.array_equal(loaded.channel, reference.channel)


def test_gen_repeats_byte_identically(tmp_path):
    args = ["gen", "--topology", "random", "--relays", "3", "--channel",
            "rayleigh", "--edge-prob", "0.6", "--seed", "21"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_invalid_spec_exit_2(capsys):
    assert main(["gen", "--topology", "diamond", "--relays", "3"]) == 2
    _, err = capsys.readouterr()
    assert "error:" in err
    assert main(["gen", "--power", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: power must be positive, got -1.0\n"


# -- capacity --------------------------------------------------------------


def test_capacity_json_all_models(tmp_path, capsys):
    _, path = write_instance(tmp_path, topology="line", relays=1)
    assert main(["capacity", path]) == 0
    out, _ = capsys.readouterr()
    doc = json.loads(out)
    tags = [r["model"] for r in doc["results"]]
    assert tags == ["imperfect", "ideal", "tsn"]
    # unit line at beta=0: every route gives exactly 1 bit
    for r in doc["results"]:
        assert math.isclose(r["value_bits"], 1.0, abs_tol=1e-9)
        total = sum(s["weight"] for s in r["schedule"])
        assert math.isclose(total, 1.0, abs_tol=1e-9)


def test_capacity_json_schedules_in_canonical_pattern_order(tmp_path, capsys):
    inst, path = write_instance(tmp_path, topology="full", relays=3, channel="rayleigh",
                                beta=0.3, seed=4)
    assert main(["capacity", path, "--model", "all", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr()[0])
    canonical = oc.build_state_space(inst).patterns
    models = {"imperfect": oc.capacity_imperfect, "ideal": oc.capacity_ideal,
              "tsn": oc.rate_tsn}
    for r in doc["results"]:
        weights = models[r["model"]](inst).schedule.weights
        listed = [oc.AlignmentPattern(tuple(map(tuple, s["pattern"]))) for s in r["schedule"]]
        assert listed == [p for p in canonical if p in listed]
        assert listed == list(weights)
        for pattern, s in zip(listed, r["schedule"]):
            assert s["weight"] == weights[pattern]


def test_capacity_single_model_csv(tmp_path, capsys):
    _, path = write_instance(tmp_path, topology="line", relays=1)
    assert main(["capacity", path, "--model", "ideal", "--format", "csv"]) == 0
    out, _ = capsys.readouterr()
    rows = read_csv(out)
    assert len(rows) == 1
    assert rows[0]["model"] == "ideal"
    assert math.isclose(float(rows[0]["value_bits"]), 1.0, abs_tol=1e-9)
    assert int(rows[0]["support_size"]) >= 1
    assert "0-1" in rows[0]["schedule"]


def test_capacity_output_file(tmp_path, capsys):
    _, path = write_instance(tmp_path, topology="diamond", relays=2)
    report = tmp_path / "cap.json"
    assert main(["capacity", path, "-o", str(report)]) == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert str(report) in err
    doc = json.loads(report.read_text())
    assert doc["instance"] == path


def test_capacity_enumerates_once_per_command(tmp_path, capsys, monkeypatch):
    _, path = write_instance(tmp_path, topology="diamond", relays=2, beta=0.2)
    calls = []
    build = otocap.cli.build_state_space

    def counting(inst, *args, **kwargs):
        calls.append(inst)
        return build(inst, *args, **kwargs)

    monkeypatch.setattr(otocap.cli, "build_state_space", counting)
    for fmt in ("json", "csv"):
        calls.clear()
        assert main(["capacity", path, "--format", fmt]) == 0
        assert len(calls) == 1
    capsys.readouterr()


def test_capacity_missing_file_exit_2(tmp_path, capsys):
    assert main(["capacity", str(tmp_path / "nope.json")]) == 2
    _, err = capsys.readouterr()
    assert "error:" in err


def test_capacity_enumeration_cap_exit_3(tmp_path, capsys, monkeypatch):
    _, path = write_instance(tmp_path, topology="line", relays=6)
    assert main(["capacity", path]) == 3
    _, err = capsys.readouterr()
    assert "capped" in err

    monkeypatch.setenv("OTO_CAP_MAX_RELAYS", "6")
    assert main(["capacity", path]) == 0


def test_bad_cap_env_exit_3(tmp_path, capsys, monkeypatch):
    _, path = write_instance(tmp_path, topology="line", relays=1)
    monkeypatch.setenv("OTO_CAP_MAX_RELAYS", "many")
    assert main(["capacity", path]) == 3
    _, err = capsys.readouterr()
    assert "OTO_CAP_MAX_RELAYS" in err


# -- verify ----------------------------------------------------------------


def test_verify_summary_and_report(tmp_path, capsys):
    report = tmp_path / "report.csv"
    rc = main(["verify", "--trials", "3", "--topology", "full", "--relays", "2",
               "--channel", "rayleigh", "--seed", "10", "-o", str(report)])
    assert rc == 0
    out, _ = capsys.readouterr()
    summary = out.strip().splitlines()[-1]
    assert summary.startswith("trials=3 assumptions_passed=3")
    rows = read_csv(report.read_text())
    assert len(rows) == 3
    assert list(rows[0]) == REPORT_COLUMNS
    assert [r["seed"] for r in rows] == ["10", "11", "12"]
    for r in rows:
        # beta defaults to 0: exact model collapse, trivially inside bounds
        assert abs(float(r["ideal_gap"])) <= 1e-6
        assert r["main_lobe_stronger"] == "1"
        assert r["diagonally_dominant"] == "1"
        assert r["ratio_satisfied"] == "1"
        assert float(r["tsn_gap"]) <= float(r["tsn_gap_bound"]) + 1e-6
        assert float(r["wall_ms"]) >= 0.0


def test_verify_without_report_file(capsys):
    rc = main(["verify", "--trials", "2", "--topology", "line", "--relays", "1"])
    assert rc == 0
    out, err = capsys.readouterr()
    assert out.startswith("trials=2 ")
    assert err == ""


def test_verify_flags_injected_bug_with_exit_4(capsys, monkeypatch):
    real = oc.capacity_imperfect

    def inflated(instance, space=None):
        result = real(instance, space)
        return dataclasses.replace(result, value=result.value + 3.0)

    monkeypatch.setattr(otocap.bounds, "capacity_imperfect", inflated)
    rc = main(["verify", "--trials", "2", "--topology", "line", "--relays", "1",
               "--seed", "7"])
    assert rc == 4
    _, err = capsys.readouterr()
    assert "theorem violation at seed 7" in err


def test_verify_summary_counts_only_enforced_ideal_gap_bounds(capsys):
    # N = 1: the ideal-gap bound is reported but not enforced, so no trial
    # counts toward the ideal-gap fields and no negative margin shows.
    rc = main(["verify", "--topology", "full", "--relays", "1", "--beta", "0.1",
               "--trials", "2"])
    assert rc == 0
    out, _ = capsys.readouterr()
    (summary,) = out.splitlines()  # without -o, stdout is the summary alone
    fields = dict(item.split("=") for item in summary.split())
    assert fields["trials"] == "2" and fields["assumptions_passed"] == "0"
    assert fields["max_ideal_gap"] == fields["min_ideal_margin"] == "nan"
    assert float(fields["min_tsn_margin"]) > 0.0


@pytest.mark.parametrize("trials", ["-1", "0"])
def test_verify_trials_below_one_exit_2(capsys, trials):
    assert main(["verify", "--trials", trials]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: verify needs at least 1 trial\n"


# -- sweep -----------------------------------------------------------------


def test_sweep_beta_grid_and_monotone_tsn(tmp_path):
    _, path = write_instance(tmp_path, topology="diamond", relays=2)
    report = tmp_path / "sweep.csv"
    rc = main(["sweep", path, "--param", "beta", "--from", "0", "--to", "1",
               "--steps", "5", "-o", str(report)])
    assert rc == 0
    rows = read_csv(report.read_text())
    assert len(rows) == 5
    assert [r["sweep_param"] for r in rows] == ["beta"] * 5
    values = [float(r["sweep_value"]) for r in rows]
    assert values == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-12)
    assert [float(r["beta"]) for r in rows] == pytest.approx(values, abs=1e-12)
    tsn = [float(r["r_tsn"]) for r in rows]
    assert all(a >= b - 1e-9 for a, b in zip(tsn, tsn[1:]))
    for r in rows:
        assert float(r["tsn_gap"]) <= float(r["tsn_gap_bound"]) + 1e-6


def test_sweep_power_monotone_capacities(tmp_path):
    _, path = write_instance(tmp_path, topology="line", relays=2)
    report = tmp_path / "p.csv"
    rc = main(["sweep", path, "--param", "power", "--from", "0.5", "--to", "2",
               "--steps", "4", "-o", str(report)])
    assert rc == 0
    rows = read_csv(report.read_text())
    for col in ("c_imperfect", "c_ideal", "r_tsn"):
        series = [float(r[col]) for r in rows]
        assert all(a <= b + 1e-9 for a, b in zip(series, series[1:]))


def test_sweep_to_stdout_degenerate_range(tmp_path, capsys):
    _, path = write_instance(tmp_path, topology="line", relays=1)
    rc = main(["sweep", path, "--param", "beta", "--from", "0", "--to", "0",
               "--steps", "2"])
    assert rc == 0
    out, _ = capsys.readouterr()
    rows = read_csv(out)
    assert len(rows) == 2
    stable = [
        {k: v for k, v in row.items() if k not in ("row", "wall_ms")}
        for row in rows
    ]
    assert stable[0] == stable[1]


def test_sweep_bad_ranges_exit_2(tmp_path, capsys):
    _, path = write_instance(tmp_path, topology="line", relays=1)
    assert main(["sweep", path, "--param", "beta", "--from", "0", "--to", "1",
                 "--steps", "1"]) == 2
    assert main(["sweep", path, "--param", "beta", "--from", "1", "--to", "0",
                 "--steps", "3"]) == 2
    _, err = capsys.readouterr()
    assert "error:" in err


def test_sweep_flags_injected_bug_with_exit_4_and_keeps_earlier_rows(
        tmp_path, capsys, monkeypatch):
    _, path = write_instance(tmp_path, topology="diamond", relays=2)
    real = oc.rate_tsn

    def inflated(instance, space=None):
        result = real(instance, space)
        bump = 5.0 if instance.beta >= 0.5 else 0.0
        return dataclasses.replace(result, value=result.value + bump)

    monkeypatch.setattr(otocap.bounds, "rate_tsn", inflated)
    report = tmp_path / "sweep.csv"
    rc = main(["sweep", path, "--param", "beta", "--from", "0", "--to", "1",
               "--steps", "5", "-o", str(report)])
    assert rc == 4
    _, err = capsys.readouterr()
    assert "theorem violation at beta=0.5: tsn-dominated-by-ideal" in err
    rows = read_csv(report.read_text())
    assert [r["sweep_value"] for r in rows] == ["0", "0.25"]


def test_sweep_invalid_value_exit_2(tmp_path, capsys):
    _, path = write_instance(tmp_path, topology="line", relays=1)
    assert main(["sweep", path, "--param", "power", "--from", "0", "--to", "1"]) == 2
    _, err = capsys.readouterr()
    assert "sweep value 0 invalid" in err


@pytest.mark.parametrize("command", [
    ["gen"],
    ["capacity", "{instance}"],
    ["verify", "--trials", "1"],
    ["sweep", "{instance}", "--param", "beta", "--from", "0", "--to", "1"],
], ids=["gen", "capacity", "verify", "sweep"])
def test_unwritable_output_exit_2(tmp_path, capsys, command):
    _, path = write_instance(tmp_path, topology="line", relays=1)
    output = str(tmp_path / "missing" / "out")
    args = [arg.format(instance=path) for arg in command]
    assert main(args + ["-o", output]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and output in err


def test_argparse_rejections_raise_systemexit(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["capacity"])  # missing instance path
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    _, path = write_instance(tmp_path, topology="line", relays=1)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", path, "--param", "gamma", "--from", "0", "--to", "1"])
    assert exc.value.code == 2


def _run_module(*args):
    src = str(Path(oc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "otocap.cli", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_module_entry_point_prints_payload(tmp_path):
    inst, path = write_instance(tmp_path, topology="line", relays=1)
    proc = _run_module("capacity", path, "--model", "ideal")
    assert proc.returncode == 0, proc.stderr
    (result,) = json.loads(proc.stdout)["results"]
    assert result["model"] == "ideal"
    assert math.isclose(result["value_bits"], oc.capacity_ideal(inst).value,
                        rel_tol=1e-12)

    helped = _run_module("--help")
    assert helped.returncode == 0
    assert helped.stdout.startswith("usage: otocap")


def test_overflowing_gain_exit_2_names_its_inputs(tmp_path):
    # reported by validation, naming the inputs, before any value table
    # is built or numpy can warn about the overflow
    doc = {"num_relays": 1, "power": 1.0, "alpha": 1.0, "beta": 0.3,
           "links": [{"from": 0, "to": 1, "re": 1e200, "im": 0.0},
                     {"from": 1, "to": 2, "re": 1.0, "im": 0.0}]}
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    proc = _run_module("capacity", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: power * max(alpha, beta)^2 * sum |h|^2 overflows: power=1.0, "
        "alpha=1.0, beta=0.3, strongest link (0, 1) has |h|=1e+200\n"
    )
    assert "RuntimeWarning" not in proc.stderr
