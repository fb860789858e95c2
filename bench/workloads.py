"""The benchmark's three closed-loop workloads over the otocap package.

Each workload builds a pool of items from the workload seed, runs one
item through otocap's public API, and checks the result: against the
recorded reference values when the seed has them, and against model
invariants always.  The pool is cycled by a single caller, so the next
item starts only when the previous one has returned.

Importing this module imports otocap from the ``src`` directory of the
checkout this file sits in, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import otocap  # noqa: E402
from otocap import cli  # noqa: E402

if not Path(otocap.__file__).resolve().is_relative_to(ROOT / "src"):
    raise ImportError(f"otocap imported from {otocap.__file__}, not from {ROOT / 'src'}")

# The relative tolerance the library certifies its LP values to
# (otocap.optimize.DUALITY_RTOL); a fixed constant here so that a change
# of the library's tolerance cannot loosen the benchmark's checks.
RTOL = 1e-7
REFERENCE_FILE = BENCH_DIR / "reference.json"
# The default workload seed and one held-out seed, on which a claimed
# gain is checked too; their values were recorded by make_reference.py
# at the commit that defined the benchmark.
REFERENCE_SEEDS = (0, 1)


def item_seed(seed: int, k: int) -> int:
    """Generator seed of pool item k under workload seed ``seed``."""
    return seed * 10_000 + k


def close(got: float, want: float) -> bool:
    """Equal within RTOL (relative, floored at 1), NaN equal to NaN."""
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= RTOL * max(1.0, abs(want))


@dataclass(frozen=True)
class Item:
    index: int  # position in the pool; reference values are stored by it
    inst: otocap.NetworkInstance
    path: str | None = None  # instance file, CLI workload only
    model: str | None = None
    fmt: str | None = None


class Workload:
    """A pool of items, how to run one, and how to check its result."""

    name: str

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        refs = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
        self.reference = refs.get(self.name, {}).get(str(seed))
        self.checks = ("reference values (seed %d) + invariants" % seed
                       if self.reference is not None else "invariants only")

    def build(self) -> list[Item]:
        raise NotImplementedError

    def run(self, item: Item):
        """The timed call: one item through otocap's public API."""
        raise NotImplementedError

    def collect(self, item: Item, raw):
        """Gather what the timed call left behind, outside the timing."""
        return raw

    def values(self, item: Item, result) -> list[float]:
        """The result's reference-checked values, in reference order."""
        raise NotImplementedError

    def invariant_errors(self, item: Item, result) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, result) -> str:
        """Exact text of a result, for the traced-versus-untraced check."""
        return repr(result)

    def check(self, item: Item, result) -> list[str]:
        errors = self.invariant_errors(item, result)
        if errors or self.reference is None:
            return errors
        want = [float(x) for x in self.reference[item.index]]
        got = self.values(item, result)
        return [
            f"item {item.index}: value {k} is {g!r}, reference {w!r}"
            for k, (g, w) in enumerate(zip(got, want))
            if not close(g, w)
        ]

    def output_bytes(self, result) -> int:
        return 0


class VerifyWorkload(Workload):
    """``otocap.verify_instance`` on generated instances."""

    def specs(self) -> list[otocap.GenSpec]:
        raise NotImplementedError

    def build(self) -> list[Item]:
        return [Item(k, otocap.generate(spec)) for k, spec in enumerate(self.specs())]

    def run(self, item: Item):
        return otocap.verify_instance(item.inst)

    def values(self, item: Item, report) -> list[float]:
        return [
            report.c_imperfect,
            report.c_ideal,
            report.r_tsn,
            report.assumptions.max_rho,
            report.ideal_gap_bound,
            report.tsn_gap_bound,
        ]

    def invariant_errors(self, item: Item, report) -> list[str]:
        errors = []
        if report.r_tsn > report.c_ideal + RTOL * max(1.0, abs(report.c_ideal)):
            errors.append(f"item {item.index}: TSN {report.r_tsn!r} > ideal {report.c_ideal!r}")
        if item.inst.beta == 0 and not close(report.c_imperfect, report.c_ideal):
            errors.append(
                f"item {item.index}: beta=0 but imperfect {report.c_imperfect!r} "
                f"!= ideal {report.c_ideal!r}"
            )
        return errors


class VerifyFullN4(VerifyWorkload):
    """Full-topology Rayleigh instances, N=4, beta=0.3: 888 patterns x 16 cuts."""

    name = "verify_full_n4"
    POOL = 24

    def specs(self):
        return [
            otocap.GenSpec(topology="full", relays=4, channel="rayleigh", beta=0.3,
                           seed=item_seed(self.seed, k))
            for k in range(self.POOL)
        ]


class VerifySmallMix(VerifyWorkload):
    """Many small instances, stratified so every seed has the same mix."""

    name = "verify_small_mix"
    TOPOLOGIES = (("line", 1), ("line", 2), ("line", 3), ("line", 4), ("diamond", 2),
                  ("full", 1), ("full", 2), ("random", 2), ("random", 3))
    CHANNELS = ("unit", "rayleigh")
    BETAS = (0.0, 0.1, 1.0)
    # Enough distinct instances that a 30 s run's slowest items (the tail)
    # come from several random topologies, not from one heavy draw.
    REPLICATES = 16

    def specs(self):
        combos = [(t, n, c, b) for t, n in self.TOPOLOGIES for c in self.CHANNELS
                  for b in self.BETAS]
        return [
            otocap.GenSpec(topology=t, relays=n, channel=c, beta=b, edge_probability=0.6,
                           seed=item_seed(self.seed, k))
            for k, (t, n, c, b) in enumerate(combos * self.REPLICATES)
        ]


class CapacityCliFullN5(Workload):
    """In-process ``otocap capacity`` on full Rayleigh N=5 instance files.

    Commands alternate (ideal, json) and (tsn, csv) on each file, so the
    TSN value of a file is checked against its ideal value.
    """

    name = "capacity_cli_full_n5"
    FILES = 40  # about one pass over the files in a 30 s run
    COMMANDS = (("ideal", "json"), ("tsn", "csv"))

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self._ideal_by_file: dict[int, float] = {}

    def build(self) -> list[Item]:
        items = []
        for f in range(self.FILES):
            inst = otocap.generate(otocap.GenSpec(topology="full", relays=5, channel="rayleigh",
                                                  beta=0.3, seed=item_seed(self.seed, f)))
            path = self.workdir / f"instance_{f:02d}.json"
            cli.save_instance(inst, str(path))
            for model, fmt in self.COMMANDS:
                items.append(Item(len(items), inst, str(path), model, fmt))
        return items

    def run(self, item: Item):
        out = self.workdir / f"out.{item.fmt}"
        argv = ["capacity", item.path, "--model", item.model, "--format", item.fmt, "-o", str(out)]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(stderr):
            code = otocap.cli.main(argv)
        return code, stderr.getvalue()

    def collect(self, item: Item, raw):
        code, stderr = raw
        text = ""
        if code == 0:
            # removed once read, so a command that writes nothing cannot
            # pass on the previous command's output
            out = self.workdir / f"out.{item.fmt}"
            text = out.read_text()
            out.unlink()
        return code, stderr, text

    def fingerprint(self, result) -> str:
        code, _, text = result
        return f"{code}\n{text}"

    def output_bytes(self, result) -> int:
        return len(result[2].encode())

    def _parse(self, item: Item, text: str) -> tuple[float, list[float]]:
        if item.fmt == "json":
            (entry,) = json.loads(text)["results"]
            return entry["value_bits"], [s["weight"] for s in entry["schedule"]]
        (row,) = csv.DictReader(io.StringIO(text))
        weights = [float(part.rsplit("@", 1)[1]) for part in row["schedule"].split(";")]
        return float(row["value_bits"]), weights

    def values(self, item: Item, result) -> list[float]:
        return [self._parse(item, result[2])[0]]

    def invariant_errors(self, item: Item, result) -> list[str]:
        code, stderr, text = result
        if code != 0:
            return [f"item {item.index}: exit code {code}: {stderr.strip()}"]
        try:
            value, weights = self._parse(item, text)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"item {item.index}: unreadable {item.fmt} output: {exc!r}"]
        errors = []
        if min(weights) < 0 or abs(sum(weights) - 1.0) > RTOL:
            errors.append(f"item {item.index}: schedule weights {weights} not a distribution")
        file_index = item.index // len(self.COMMANDS)
        if item.model == "ideal":
            self._ideal_by_file[file_index] = value
        else:
            ideal = self._ideal_by_file.get(file_index)
            if ideal is not None and value > ideal + RTOL * max(1.0, abs(ideal)):
                errors.append(f"item {item.index}: TSN {value!r} > ideal {ideal!r}")
        return errors


WORKLOADS = {w.name: w for w in (VerifyFullN4, CapacityCliFullN5, VerifySmallMix)}


def distinct_blocks(space) -> int:
    """Distinct (cut, aligned pairs crossing the cut) keys of a state space.

    A cut block depends only on these keys, so this is the number of
    blocks a deduplicating kernel would build for one sweep.
    """
    keys = set()
    for cut in space.cuts:
        omega = set(cut.omega)
        for pattern in space.patterns:
            keys.add((cut.omega, tuple(p for p in pattern.pairs
                                       if p[0] in omega and p[1] not in omega)))
    return len(keys)


class SizeCache:
    """Problem sizes per item, computed once per distinct link set."""

    def __init__(self):
        self._by_links: dict[tuple, dict] = {}

    def sizes(self, item: Item) -> dict:
        key = (item.inst.num_relays, tuple(item.inst.links()))
        if key not in self._by_links:
            space = otocap.build_state_space(item.inst)
            self._by_links[key] = {
                "patterns": len(space.patterns),
                "cuts": len(space.cuts),
                "distinct_blocks": distinct_blocks(space),
                "lp_rows": len(space.cuts) + 1,
                "lp_cols": len(space.patterns) + 1,
            }
        return self._by_links[key]
