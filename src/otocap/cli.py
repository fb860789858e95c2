"""Command-line front end: generate, solve, verify and sweep.

Exit codes are stable: 0 success, 2 malformed input or arguments or an
output file that cannot be written, 3 instance exceeds an enumeration
cap, 4 a computed gap violated a bound it should satisfy (always a bug,
never silently accepted).
Standard output carries only machine-readable payloads; everything
meant for humans goes to standard error.

Instance files are JSON with exact float round-tripping::

    {"num_relays": 2, "power": 1.0, "alpha": 1.0, "beta": 0.0,
     "links": [{"from": 0, "to": 1, "re": 1.0, "im": 0.0}, ...],
     "metadata": {...}}

Report files are CSV, one row per verified instance (or per sweep
point), floats at 12 significant digits.  Column order is fixed; see
REPORT_COLUMNS.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from contextlib import nullcontext
from dataclasses import replace

from .bounds import GapReport, TheoremViolationError, verify_instance
from .capacity import CapacityResult, capacity_ideal, capacity_imperfect, rate_tsn
from .enumeration import EnumerationCapError, build_state_space
from .instancegen import CHANNELS, TOPOLOGIES, GenSpec, generate
from .model import NetworkInstance

__all__ = [
    "InstanceFormatError",
    "load_instance",
    "save_instance",
    "instance_to_json",
    "main",
    "entry",
    "REPORT_COLUMNS",
]


class InstanceFormatError(ValueError):
    """An instance file does not match the documented schema."""


REPORT_COLUMNS = [
    "row",
    "seed",
    "sweep_param",
    "sweep_value",
    "relays",
    "power",
    "alpha",
    "beta",
    "max_degree",
    "c_imperfect",
    "c_ideal",
    "r_tsn",
    "support_imperfect",
    "support_ideal",
    "support_tsn",
    "ideal_gap",
    "ideal_gap_bound",
    "dominance_penalty",
    "max_rho",
    "main_lobe_stronger",
    "diagonally_dominant",
    "ratio",
    "ratio_threshold",
    "ratio_applicable",
    "ratio_satisfied",
    "tsn_gap",
    "tsn_gap_bound",
    "wall_ms",
]


# -- instance (de)serialization -------------------------------------------


def instance_to_json(inst: NetworkInstance) -> str:
    links = [
        {
            "from": i,
            "to": j,
            "re": float(inst.channel[j, i].real),
            "im": float(inst.channel[j, i].imag),
        }
        for i, j in inst.links()
    ]
    doc = {
        "num_relays": inst.num_relays,
        "power": inst.power,
        "alpha": inst.alpha,
        "beta": inst.beta,
        "links": links,
        "metadata": inst.metadata,
    }
    return json.dumps(doc, indent=2)


def save_instance(inst: NetworkInstance, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(instance_to_json(inst))
        fh.write("\n")


def instance_from_doc(doc: dict) -> NetworkInstance:
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance file must hold a JSON object")
    for key in ("num_relays", "power", "alpha", "beta", "links"):
        if key not in doc:
            raise InstanceFormatError(f"missing required field {key!r}")
    n = doc["num_relays"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise InstanceFormatError(f"num_relays must be a nonnegative integer, got {n!r}")
    for key in ("power", "alpha", "beta"):
        if isinstance(doc[key], bool) or not isinstance(doc[key], (int, float)):
            raise InstanceFormatError(f"{key} must be a number, got {doc[key]!r}")
    if not isinstance(doc["links"], list):
        raise InstanceFormatError(f"links must be a JSON array, got {doc['links']!r}")
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise InstanceFormatError(f"metadata must be a JSON object, got {metadata!r}")
    links: dict[tuple[int, int], complex] = {}
    for entry_ in doc["links"]:
        try:
            fields = [entry_[key] for key in ("from", "to", "re", "im")]
            if any(isinstance(v, bool) for v in fields):
                raise TypeError("booleans are not numbers here")
            i, j = fields[0], fields[1]
            if not (isinstance(i, int) and isinstance(j, int)):
                raise TypeError("node ids must be integers")
            if not all(isinstance(v, (int, float)) for v in fields[2:]):
                raise TypeError("gains must be numbers")
            gain = complex(float(fields[2]), float(fields[3]))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InstanceFormatError(f"malformed link entry {entry_!r}") from exc
        if (i, j) in links:
            raise InstanceFormatError(f"duplicate link ({i}, {j})")
        links[(i, j)] = gain
    try:
        return NetworkInstance.from_links(
            n, links, doc["power"], doc["alpha"], doc["beta"], metadata=metadata
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(str(exc)) from exc


def load_instance(path: str) -> NetworkInstance:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"{path} is not valid JSON: {exc}") from exc
    return instance_from_doc(doc)


# -- report rows ----------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    if value is None:
        return ""
    return str(value)


def report_row(
    inst: NetworkInstance,
    report: GapReport,
    row: int,
    wall_ms: float,
    seed: int | None = None,
    sweep_param: str | None = None,
    sweep_value: float | None = None,
) -> dict[str, str]:
    rc = report.ratio_condition
    values = {
        "row": row,
        "seed": seed,
        "sweep_param": sweep_param,
        "sweep_value": sweep_value,
        "relays": report.num_relays,
        "power": inst.power,
        "alpha": inst.alpha,
        "beta": inst.beta,
        "max_degree": report.max_degree,
        "c_imperfect": report.c_imperfect,
        "c_ideal": report.c_ideal,
        "r_tsn": report.r_tsn,
        "support_imperfect": report.schedule_supports["imperfect"],
        "support_ideal": report.schedule_supports["ideal"],
        "support_tsn": report.schedule_supports["tsn"],
        "ideal_gap": report.ideal_gap,
        "ideal_gap_bound": report.ideal_gap_bound,
        "dominance_penalty": report.dominance_penalty,
        "max_rho": report.assumptions.max_rho,
        "main_lobe_stronger": report.assumptions.main_lobe_stronger,
        "diagonally_dominant": report.assumptions.diagonally_dominant,
        "ratio": rc.ratio,
        "ratio_threshold": rc.threshold,
        "ratio_applicable": rc.applicable,
        "ratio_satisfied": rc.satisfied,
        "tsn_gap": report.tsn_gap,
        "tsn_gap_bound": report.tsn_gap_bound,
        "wall_ms": wall_ms,
    }
    return {k: _fmt(values[k]) for k in REPORT_COLUMNS}


def _verify_cases(cases, path: str | None, fallback=None) -> list[GapReport] | None:
    """Verify each ``(where, inst, row fields)`` case, one CSV row each.

    Rows go to ``path``, else to ``fallback`` (no rows when both are
    None).  On a theorem violation the case's ``where`` goes to stderr
    and None is returned; the rows before it stay written.
    """
    with open(path, "w", newline="") if path else nullcontext(fallback) as out:
        writer = None if out is None else csv.DictWriter(out, fieldnames=REPORT_COLUMNS)
        if writer:
            writer.writeheader()
        reports = []
        for k, (where, inst, fields) in enumerate(cases):
            start = time.perf_counter()
            try:
                report = verify_instance(inst)
            except TheoremViolationError as exc:
                print(f"theorem violation at {where}: {exc}", file=sys.stderr)
                return None
            wall_ms = (time.perf_counter() - start) * 1e3
            if writer:
                writer.writerow(report_row(inst, report, row=k, wall_ms=wall_ms, **fields))
            reports.append(report)
    return reports


# -- commands -------------------------------------------------------------


def _genspec(args, seed: int) -> GenSpec:
    """The generator spec that the shared gen/verify flags describe."""
    return GenSpec(
        topology=args.topology,
        relays=args.relays,
        channel=args.channel,
        power=args.power,
        alpha=args.alpha,
        beta=args.beta,
        seed=seed,
        edge_probability=args.edge_prob,
        scale=args.scale,
        spacing_m=args.spacing,
    )


def cmd_gen(args) -> int:
    inst = generate(_genspec(args, args.seed))
    if args.output:
        save_instance(inst, args.output)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(instance_to_json(inst))
    return 0


def _schedule_payload(result: CapacityResult) -> list[dict]:
    return [
        {"pattern": [list(pair) for pair in pattern.pairs], "weight": weight}
        for pattern, weight in result.schedule.weights.items()
    ]


def cmd_capacity(args) -> int:
    inst = load_instance(args.instance)
    space = build_state_space(inst)
    models = ["imperfect", "ideal", "tsn"] if args.model == "all" else [args.model]
    results = []
    for model in models:
        if model == "imperfect":
            results.append(capacity_imperfect(inst, space))
        elif model == "ideal":
            results.append(capacity_ideal(inst, space=space))
        else:
            results.append(rate_tsn(inst, space))

    if args.format == "json":
        doc = {
            "instance": args.instance,
            "results": [
                {
                    "model": r.model_tag,
                    "value_bits": r.value,
                    "schedule": _schedule_payload(r),
                }
                for r in results
            ],
        }
        out = json.dumps(doc, indent=2)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["model", "value_bits", "support_size", "schedule"])
        for r in results:
            packed = ";".join(
                "+".join(f"{i}-{j}" for i, j in entry_["pattern"]) + f"@{entry_['weight']:.12g}"
                for entry_ in _schedule_payload(r)
            )
            writer.writerow([r.model_tag, f"{r.value:.12g}", r.schedule.support_size, packed])
        out = buf.getvalue().rstrip("\n")

    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out + "\n")
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(out)
    return 0


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise InstanceFormatError("verify needs at least 1 trial")
    seeds = range(args.seed, args.seed + args.trials)
    cases = ((f"seed {s}", generate(_genspec(args, s)), {"seed": s}) for s in seeds)
    reports = _verify_cases(cases, args.output)
    if reports is None:
        return 4
    ideal = [r for r in reports if "ideal-gap-bound" in r.enforced]
    ideal_gaps = [r.ideal_gap for r in ideal]
    ideal_margins = [r.ideal_gap_bound - r.ideal_gap for r in ideal]
    tsn_gaps = [r.tsn_gap for r in reports]
    tsn_margins = [r.tsn_gap_bound - r.tsn_gap for r in reports]
    print(
        f"trials={args.trials} assumptions_passed={len(ideal)} "
        f"max_ideal_gap={_fmt(max(ideal_gaps, default=math.nan))} "
        f"min_ideal_margin={_fmt(min(ideal_margins, default=math.nan))} "
        f"max_tsn_gap={_fmt(max(tsn_gaps, default=math.nan))} "
        f"min_tsn_margin={_fmt(min(tsn_margins, default=math.nan))}"
    )
    return 0


def _sweep_cases(args, inst: NetworkInstance):
    for k in range(args.steps):
        value = args.start + (args.stop - args.start) * k / (args.steps - 1)
        try:
            swept = replace(inst, **{args.param: value})
        except ValueError as exc:
            raise InstanceFormatError(f"sweep value {value:.12g} invalid: {exc}") from exc
        fields = {"sweep_param": args.param, "sweep_value": value}
        yield f"{args.param}={value:.12g}", swept, fields


def cmd_sweep(args) -> int:
    inst = load_instance(args.instance)
    if args.steps < 2:
        raise InstanceFormatError("sweep needs at least 2 steps")
    if args.stop < args.start:
        raise InstanceFormatError("sweep range must have start <= stop")
    reports = _verify_cases(_sweep_cases(args, inst), args.output, sys.stdout)
    return 4 if reports is None else 0


# -- parser ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otocap",
        description="Capacity and gap-bound toolkit for 1-2-1 relay networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_genspec_flags(p, for_verify=False):
        p.add_argument("--topology", choices=TOPOLOGIES, default="line")
        p.add_argument("--relays", type=int, default=1)
        p.add_argument("--channel", choices=CHANNELS, default="unit")
        p.add_argument("--power", type=float, default=1.0)
        p.add_argument("--alpha", type=float, default=1.0)
        p.add_argument("--beta", type=float, default=0.0)
        p.add_argument("--seed", type=int, default=0,
                       help="base seed; trial k uses seed+k" if for_verify else "generator seed")
        p.add_argument("--edge-prob", type=float, default=1.0,
                       help="link keep probability for random topology")
        p.add_argument("--scale", type=float, default=1.0, help="rayleigh E|h|^2")
        p.add_argument("--spacing", type=float, default=10.0, help="los hop spacing in metres")

    p_gen = sub.add_parser("gen", help="generate an instance file")
    add_genspec_flags(p_gen)
    p_gen.add_argument("-o", "--output", help="write JSON here instead of stdout")
    p_gen.set_defaults(func=cmd_gen)

    p_cap = sub.add_parser("capacity", help="solve capacities of an instance file")
    p_cap.add_argument("instance")
    p_cap.add_argument("--model", choices=["imperfect", "ideal", "tsn", "all"], default="all")
    p_cap.add_argument("--format", choices=["json", "csv"], default="json")
    p_cap.add_argument("-o", "--output")
    p_cap.set_defaults(func=cmd_capacity)

    p_ver = sub.add_parser("verify", help="verify gap bounds over generated trials")
    p_ver.add_argument("--trials", type=int, default=10)
    add_genspec_flags(p_ver, for_verify=True)
    p_ver.add_argument("-o", "--output", help="write per-trial CSV report here")
    p_ver.set_defaults(func=cmd_verify)

    p_swp = sub.add_parser("sweep", help="sweep one parameter of an instance file")
    p_swp.add_argument("instance")
    p_swp.add_argument("--param", choices=["alpha", "beta", "power"], required=True)
    p_swp.add_argument("--from", dest="start", type=float, required=True)
    p_swp.add_argument("--to", dest="stop", type=float, required=True)
    p_swp.add_argument("--steps", type=int, default=5)
    p_swp.add_argument("-o", "--output", help="write CSV report here instead of stdout")
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EnumerationCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TheoremViolationError as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 4
    except (InstanceFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
