"""Command-line front end.

Subcommands: tables, simulate, interpret, check-local, mixture-compare.
Exit codes: 0 success / statistical pass, 1 usage or input errors, 2 for a
negative analytic verdict (failed simulation comparison, behavior outside
the local polytope), 130 when interrupted (Ctrl-C).

All floats in JSON and text output carry at most 12 significant digits, and
output bytes depend only on the arguments, never on worker count or timing.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from typing import Any, BinaryIO, Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .experiment import (
    MODELS,
    Z_LIMIT,
    ExperimentConfig,
    FrequencyTable,
    compare_tables,
    count_codes,
    run_experiment,
    shard_codes,
)
from .locality import local_membership
from .qstate import (
    EQ_TOL,
    HARDY_SETTINGS,
    JOINT_OUTCOMES,
    Behavior,
    JointOutcome,
    Mixture,
    Outcome,
    ProductState,
    SettingPair,
    born_table,
    hardy_basis_change,
    hardy_behavior,
    hardy_state,
    mixture_behavior,
    phi_minus,
    phi_plus,
    quantum_behavior,
    rebase_state_to,
    zx_change,
)
from .realist import enumerate_preexisting, same_candidates

FORMAT_VERSION = 1
DIFF_TOL = 1e-9  # cells whose probabilities differ by more than this are reported

# Single-letter display names for the rebased-row coefficients; the (2,2)
# row runs g, h, j, k so the glyph i never appears in the tables.
_COEFF_LABELS: dict[str, dict[str, str]] = {
    "12": {"RG": "a", "GR": "b", "RR": "c"},
    "21": {"RG": "d", "GR": "e", "RR": "f"},
    "22": {"RG": "g", "GR": "h", "RR": "j", "GG": "k"},
}

_STATES = {
    "phi-plus": phi_plus,
    "phi-minus": phi_minus,
    "hardy": hardy_state,
}
_BASIS_CHOICES = ("zz", "zx", "xz", "xx", "11", "12", "21", "22")


# ===========================================================================
# shared formatting helpers
# ===========================================================================

def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(obj: Any) -> Any:
    """Clamp every float in a JSON-ready structure to 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def _print_json(obj: Any) -> None:
    print(json.dumps(_round12(obj), indent=2))


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """json object_pairs_hook: a repeated key is an error, not a silent overwrite."""
    data: dict[str, Any] = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"behavior file repeats the key {key!r}")
        data[key] = value
    return data


def parse_behavior_json(text: str) -> Behavior:
    """Parse the behavior file schema, naming the offending cell on errors."""
    try:
        data = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"behavior file is not valid JSON: {exc}") from None
    if not isinstance(data, dict) or not data:
        raise ValueError("behavior file must be a non-empty JSON object keyed by setting")
    table: dict[SettingPair, dict[JointOutcome, float]] = {}
    for key, row in data.items():
        if not isinstance(key, str) or len(key) != 2:
            raise ValueError(
                f"bad setting key {key!r}: expected two basis labels, e.g. \"12\"")
        if not isinstance(row, dict):
            raise ValueError(f"setting {key!r} must map outcome names to probabilities")
        unknown = set(row) - {c.value for c in JOINT_OUTCOMES}
        if unknown:
            raise ValueError(f"setting {key!r} has unknown cells {sorted(unknown)}")
        cells: dict[JointOutcome, float] = {}
        for cell in JOINT_OUTCOMES:
            if cell.value not in row:
                raise ValueError(f"cell {key}:{cell.value} is missing")
            value = row[cell.value]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"cell {key}:{cell.value} has non-numeric value {value!r}")
            try:
                cells[cell] = float(value)
            except OverflowError:
                raise ValueError(f"cell {key}:{cell.value} is too large for a float") from None
        table[SettingPair(key[0], key[1])] = cells
    return Behavior(table)


@functools.cache
def _digit_groups(digits: int) -> np.ndarray:
    """The last `digits` (at most 4) ASCII digits of 0, ..., 9999."""
    return np.array([f"{i:04d}"[4 - digits:] for i in range(10_000)], dtype=f"S{digits}")


class _LogRows:
    """Trial-log row builder whose buffers are allocated once, for `rows` rows of
    at most `digits` index digits.

    Row start + r is the trial index in ASCII digits, then table[codes[r]].
    The rows are built segment by segment. A segment ends at the last code,
    the next multiple of 10 000 or the next power of ten, so its indices
    share one width and one string of digits above the last four, which
    comes from Python's str and is exact at any index; the last four are one
    slice of a table of the 10 000 four-digit groups.
    """

    def __init__(self, table: np.ndarray, rows: int, digits: int):
        self.suffix = table.view(f"S{table.shape[1]}").ravel()
        self.buf = np.empty(rows * (digits + self.suffix.itemsize), dtype=np.uint8)
        self.codes = np.empty(rows, dtype=np.intp)  # take and the tally read intp as is

    def __call__(self, start: int, codes: np.ndarray) -> memoryview:
        """The rows of trials start, start + 1, ... with outcome codes `codes`,
        as one view of the buffer, valid until the next call.

        Each segment is one record view of the buffer whose high-digit,
        low-digit and suffix fields are each filled by one assignment.
        """
        end, a, stop = 0, start, start + len(codes)
        while a < stop:
            index, skip = str(a), a % 10_000
            b = min(stop, a - skip + 10_000, 10 ** len(index))
            high, low = index[:-4].encode(), _digit_groups(min(len(index), 4))
            fields = [("high", f"S{len(high)}")] if high else []
            fields += [("low", low.dtype), ("suffix", self.suffix.dtype)]
            rec = np.ndarray(b - a, dtype=fields, buffer=self.buf, offset=end)
            if high:
                rec["high"] = high
            rec["low"] = low[skip:skip + b - a]
            rec["suffix"] = self.suffix.take(codes[a - start:b - start])
            end += rec.nbytes
            a = b
        return self.buf.data[:end]

    def write(self, fh: BinaryIO, shards: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
        """Write each shard's rows to fh, indices running on across shards, and
        yield the intp copy of its codes, valid until the next shard."""
        start = 0
        for shard in shards:
            codes = self.codes[:len(shard)]
            codes[...] = shard
            fh.write(self(start, codes))
            start += len(codes)
            yield codes


def _write_trial_log(path: str, config: ExperimentConfig, behavior: Behavior,
                     workers: int) -> FrequencyTable:
    """Run the trials, writing the per-trial CSV log shard by shard; return the counts.

    Each row is the trial index joined to one of the equal-width row
    suffixes, one per outcome code; rows end in \\r\\n, as csv.writer's
    default dialect writes them. One _LogRows, sized for a full shard of
    the widest rows, builds every shard in its one row buffer, and each
    shard is written with one binary write straight from it. No array is
    sized per shard; each segment's suffix gather is at most 10 000 suffixes.
    """
    suffixes = [f",{s.left},{s.right},{c.left.value},{c.right.value}\r\n".encode()
                for s, c, _ in behavior.cells()]
    if len({len(s) for s in suffixes}) != 1:
        raise ValueError("trial log needs setting and outcome labels of equal length")
    table = np.frombuffer(b"".join(suffixes), dtype=np.uint8).reshape(len(suffixes), -1)
    rows = _LogRows(table, config.shard_size, len(str(config.trials - 1)))
    shards = shard_codes(config, behavior, workers=workers)  # raises before open() truncates the log
    with open(path, "wb") as fh:
        fh.write(b"trial,setting_l,setting_r,outcome_l,outcome_r\r\n")
        return count_codes(behavior, rows.write(fh, shards))


# ===========================================================================
# subcommands
# ===========================================================================

def cmd_tables(args: argparse.Namespace) -> int:
    state = hardy_state()
    change = hardy_basis_change()
    rows = []
    for setting in HARDY_SETTINGS:
        rebased = rebase_state_to(state, setting, [change])
        probs = born_table(rebased)
        labels = _COEFF_LABELS.get(setting.key, {})
        cells = []
        for cell in JOINT_OUTCOMES:
            amp = rebased.amplitude(cell)
            if abs(amp) < EQ_TOL:  # display the structural zeros as such
                amp = 0.0
            cells.append({
                "outcome": cell.value,
                "label": labels.get(cell.value),
                "amplitude": amp,
                "probability": probs[cell],
            })
        rows.append({"setting": setting.key, "cells": cells})

    if args.format == "json":
        _print_json({"format_version": FORMAT_VERSION, "settings": rows})
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["setting", "outcome", "label", "amplitude", "probability"])
        for block in rows:
            for cell in block["cells"]:
                writer.writerow([block["setting"], cell["outcome"], cell["label"] or "",
                                 _fmt(cell["amplitude"]), _fmt(cell["probability"])])
    else:
        print("Joint-outcome tables for the two-detector state (R = +, G = -)")
        for block in rows:
            setting = block["setting"]
            print(f"\nsetting ({setting[0]},{setting[1]})")
            print(f"  {'outcome':<8} {'label':<6} {'amplitude':<16} probability")
            for cell in block["cells"]:
                print(f"  {cell['outcome']:<8} {cell['label'] or '-':<6} "
                      f"{_fmt(cell['amplitude']):<16} {_fmt(cell['probability'])}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    behavior = hardy_behavior()
    config = ExperimentConfig(trials=args.trials, seed=args.seed, model=args.model)
    if args.log is None:
        freq, _ = run_experiment(config, behavior, workers=args.workers)
    else:
        freq = _write_trial_log(args.log, config, behavior, args.workers)
    report = compare_tables(freq, behavior)

    if args.format == "json":
        _print_json({
            "format_version": FORMAT_VERSION,
            "model": config.model,
            "trials": config.trials,
            "seed": config.seed,
            "setting_totals": {s.key: freq.setting_total(s) for s in behavior.settings},
            "report": report.to_jsonable(),
        })
    else:
        structural = all(c.ok for c in report.cells if c.z is None)
        totals = "  ".join(f"{s.key}={freq.setting_total(s)}" for s in behavior.settings)
        print(f"model: {config.model}")
        print(f"trials: {config.trials}")
        print(f"seed: {config.seed}")
        print(f"setting totals: {totals}")
        print(f"max |z|: {_fmt(report.max_abs_z)} (limit {_fmt(Z_LIMIT)})")
        print(f"chi-square: {_fmt(report.chi_square)} (dof {report.dof}, "
              f"limit {_fmt(report.chi_square_limit)})")
        print(f"structural zero cells: {'clean' if structural else 'VIOLATED'}")
        if report.empty_settings:
            print("empty settings: " + " ".join(s.key for s in report.empty_settings))
        print(f"verdict: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 2


def cmd_interpret(args: argparse.Namespace) -> int:
    state = _STATES[args.state]()
    setting = SettingPair(args.basis[0], args.basis[1])
    changes = (zx_change(), hardy_basis_change())
    rebased = rebase_state_to(state, setting, changes)
    candidates = enumerate_preexisting(rebased)

    against_block = None
    if args.against is not None:
        other = _STATES[args.against]()
        other_candidates = enumerate_preexisting(rebase_state_to(other, setting, changes))
        against_block = {
            "state": args.against,
            "candidates": [{"outcome": cell.value, "probability": p}
                           for cell, p in other_candidates.items()],
            "same_candidates": same_candidates(candidates, other_candidates),
        }

    if args.format == "json":
        _print_json({
            "format_version": FORMAT_VERSION,
            "state": args.state,
            "basis": args.basis,
            "candidates": [{"outcome": cell.value, "probability": p}
                           for cell, p in candidates.items()],
            "against": against_block,
        })
    else:
        print(f"state: {args.state}")
        print(f"basis: ({setting.left},{setting.right})")
        print("pre-existing outcome candidates (R = +, G = -):")
        for cell, p in candidates.items():
            print(f"  {cell.value}  p = {_fmt(p)}")
        if against_block is not None:
            print(f"against: {args.against}")
            for c in against_block["candidates"]:
                print(f"  {c['outcome']}  p = {_fmt(c['probability'])}")
            verdict = "same" if against_block["same_candidates"] else "different"
            print(f"candidate sets: {verdict}")
    return 0


def cmd_check_local(args: argparse.Namespace) -> int:
    with open(args.behavior, "r", encoding="utf-8") as fh:
        behavior = parse_behavior_json(fh.read())
    result = local_membership(behavior)

    if args.format == "json":
        _print_json({"format_version": FORMAT_VERSION, **result.to_jsonable()})
    else:
        print(f"verdict: {result.verdict}")
        print(f"residual: {_fmt(result.residual)}")
        if result.weights is not None:
            print("strategy weights (nonzero):")
            for idx, w in enumerate(result.weights):
                if w > EQ_TOL:
                    print(f"  {idx:2d}: {_fmt(w)}")
        if result.witness is not None:
            print(f"witness value: {_fmt(result.witness.value)}")
            print(f"witness deterministic max: {_fmt(result.witness.deterministic_max)}")
            print(f"witness margin: {_fmt(result.witness.margin)}")
            print("witness coefficients:")
            for (setting, cell), coef in result.witness.coefficients.items():
                print(f"  {setting.key}:{cell.value} = {_fmt(coef)}")
    return 0 if result.verdict == "feasible" else 2


def cmd_mixture_compare(args: argparse.Namespace) -> int:
    entangled = quantum_behavior(phi_plus(), zx_change())
    mixture = Mixture((
        (0.5, ProductState("z", "z", Outcome.R, Outcome.R)),
        (0.5, ProductState("z", "z", Outcome.G, Outcome.G)),
    ))
    targets = (SettingPair("z", "z"), SettingPair("x", "x"))
    mixed = mixture_behavior(mixture, targets, [zx_change()])

    comparisons = []
    for setting in targets:
        ent_row = entangled.row(setting)
        mix_row = mixed.row(setting)
        diffs = []
        for cell in JOINT_OUTCOMES:
            delta = ent_row[cell] - mix_row[cell]
            if abs(delta) > DIFF_TOL:
                diffs.append({
                    "outcome": cell.value,
                    "entangled": ent_row[cell],
                    "mixture": mix_row[cell],
                    "difference": delta,
                })
        comparisons.append({
            "basis": setting.key,
            "entangled": {c.value: ent_row[c] for c in JOINT_OUTCOMES},
            "mixture": {c.value: mix_row[c] for c in JOINT_OUTCOMES},
            "differing_cells": diffs,
        })

    if args.format == "json":
        _print_json({"format_version": FORMAT_VERSION, "comparisons": comparisons})
    else:
        print("entangled pair vs 50/50 same-outcome product mixture (R = +, G = -)")
        for comp in comparisons:
            basis = comp["basis"]
            n_diff = len(comp["differing_cells"])
            headline = "rows agree" if n_diff == 0 else f"{n_diff} differing cells"
            print(f"\nbasis ({basis[0]},{basis[1]}): {headline}")
            print(f"  {'outcome':<8} {'entangled':<12} {'mixture':<12} difference")
            deltas = {d["outcome"]: d["difference"] for d in comp["differing_cells"]}
            for cell in JOINT_OUTCOMES:
                ent = comp["entangled"][cell.value]
                mix = comp["mixture"][cell.value]
                print(f"  {cell.value:<8} {_fmt(ent):<12} {_fmt(mix):<12} "
                      f"{_fmt(deltas.get(cell.value, 0.0))}")
    return 0


# ===========================================================================
# parser and entry point
# ===========================================================================

class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _bounded_int(text: str, low: int, high: float, message: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if not low <= value < high:
        raise argparse.ArgumentTypeError(message)
    return value


def _positive_int(text: str) -> int:
    return _bounded_int(text, 1, float("inf"), "must be at least 1")


def _seed_int(text: str) -> int:
    return _bounded_int(text, 0, 2 ** 64, "must fit in an unsigned 64-bit integer")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The hardylab parser, built once per process: main() only reads it."""
    parser = _Parser(
        prog="hardylab",
        description="Joint-outcome tables for the Hardy state, a "
                    "measurement-as-reveal sampler, and Bell-locality checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tables", help="print amplitude and probability tables "
                                      "for all four detector settings")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("simulate", help="run seeded trials and compare "
                                        "frequencies with the predicted rows")
    p.add_argument("--trials", type=_positive_int, default=100000)
    p.add_argument("--seed", type=_seed_int, default=0)
    p.add_argument("--model", choices=MODELS, default="realist")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="shard executors; output is identical for any value")
    p.add_argument("--log", metavar="PATH", default=None,
                   help="write a per-trial CSV log to PATH")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("interpret", help="list the pre-existing outcome "
                                         "candidates of a named state")
    p.add_argument("--state", choices=sorted(_STATES), required=True)
    p.add_argument("--basis", choices=_BASIS_CHOICES, required=True)
    p.add_argument("--against", choices=sorted(_STATES), default=None,
                   help="also report whether another state's candidate set matches")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_interpret)

    p = sub.add_parser("check-local", help="test a behavior file for "
                                           "membership in the local polytope")
    p.add_argument("--behavior", metavar="PATH", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_check_local)

    p = sub.add_parser("mixture-compare", help="entangled pair vs the matching "
                                               "classical mixture, per basis")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_mixture_compare)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except ImportError as exc:
        # scipy is imported on check-local's first LP, not at start-up
        print(f"error: {args.command} could not import {exc.name}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
