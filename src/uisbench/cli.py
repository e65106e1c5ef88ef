"""Command-line front end: generate distributions, run the bench, query the oracle.

Every command is a pure function of its flags and input files, so reruns with
identical arguments produce byte-identical artifacts (including under
different --jobs values). Configuration can also come from a JSON file via
--config; explicit flags override file values. Diagnostics go to stderr, data
to files or stdout; the exit status is 0 only if nothing went wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .bench import (
    _model_kind,
    check_bench_args,
    format_summary_table,
    read_report_csv,
    run_bench,
    summarize,
    write_report_csv,
    write_summary_json,
)
from .dist import read_atoms_csv, read_dists_csv, sample_cond_indep, sample_uniform, write_dists_csv
from .models import ModelKind
from .optim import OptimSettings
# standard_answer is not called here, but perfbench's tracer wraps it (test_every_traced_attribute_exists)
from .oracle import DEFAULT_GRID, EvidenceGrid, _batch_answers, standard_answer  # noqa: F401

__all__ = ["RunConfig", "main"]

FAMILIES = ("uniform", "cond_indep")
DEFAULT_MODELS = (ModelKind.LINR, ModelKind.WRST, ModelKind.INDP, ModelKind.PRSP, ModelKind.PWR)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    n_dists: int = 109
    family: str = "uniform"
    grid: EvidenceGrid = DEFAULT_GRID
    models: tuple[ModelKind, ...] = DEFAULT_MODELS
    optim: OptimSettings = OptimSettings()
    out: str | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        for name, low in (("seed", 0), ("n_dists", 1), ("jobs", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.out is not None and type(self.out) is not str:
            raise ValueError(f"out must be a string, got {self.out!r}")


def _parse_models(names: list[str]) -> tuple[ModelKind, ...]:
    kinds = []
    for token in names:
        token = token.strip().upper()
        kind = _model_kind(token)
        if kind in kinds:
            raise ValueError(f"model {token} is listed more than once")
        kinds.append(kind)
    return tuple(kinds)


def _parse_grid(text: str) -> EvidenceGrid:
    return EvidenceGrid(tuple(float(v) for v in text.split(",")))


def _flag_type(parse):
    """``parse`` as an argparse ``type=``: argparse prints the message of an
    ``ArgumentTypeError`` but replaces that of a ``ValueError`` with its own."""

    def parse_flag(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse_flag


def _load_config(path: str | None) -> RunConfig:
    config = RunConfig()
    if path is None:
        return config
    with open(path) as f:
        raw = json.load(f)
    if type(raw) is not dict:
        raise ValueError(f"{path}: config must be a JSON object, got {raw!r}")
    known = {"seed", "n_dists", "family", "grid", "models", "optim", "out", "jobs"}
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    updates: dict = {k: raw[k] for k in ("seed", "n_dists", "family", "out", "jobs") if k in raw}
    if "grid" in raw:
        levels = raw["grid"]
        if type(levels) is not list or any(type(v) not in (int, float) for v in levels):
            raise ValueError(f"grid must be a list of numbers, got {levels!r}")
        updates["grid"] = EvidenceGrid(tuple(float(v) for v in levels))
    if "models" in raw:
        names = raw["models"]
        if type(names) is not list or any(type(v) is not str for v in names):
            raise ValueError(f"models must be a list of model names, got {names!r}")
        updates["models"] = _parse_models(names)
    if "optim" in raw:
        if type(raw["optim"]) is not dict:
            raise ValueError(f"optim must be a JSON object of settings, got {raw['optim']!r}")
        valid = sorted(f.name for f in fields(OptimSettings))
        unknown = set(raw["optim"]) - set(valid)
        if unknown:
            raise ValueError(f"unknown optim config keys: {sorted(unknown)}; valid keys: {valid}")
        updates["optim"] = OptimSettings(**raw["optim"])
    return replace(config, **updates)


def _merge_flags(config: RunConfig, args: argparse.Namespace) -> RunConfig:
    updates: dict = {}
    for key in ("seed", "n_dists", "family", "out", "jobs"):
        value = getattr(args, key, None)
        if value is not None:
            updates[key] = value
    if getattr(args, "grid", None) is not None:
        updates["grid"] = args.grid
    if getattr(args, "models", None) is not None:
        updates["models"] = args.models
    return replace(config, **updates)


def _resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    try:
        return _merge_flags(_load_config(getattr(args, "config", None)), args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable") from exc


def _write(write, path, data) -> bool:
    """``write(path, data)``; an ``OSError`` is reported on stderr, and the result says whether it wrote."""
    try:
        write(path, data)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def cmd_gen(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    config = _resolve_config(args, parser)
    out = Path(config.out or "dists.csv")
    sampler = sample_uniform if config.family == "uniform" else sample_cond_indep
    if not _write(write_dists_csv, out, sampler(config.seed, config.n_dists)):
        return 1
    print(out)
    return 0


def cmd_bench(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    config = _resolve_config(args, parser)
    try:
        dists = read_dists_csv(args.dists)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        check_bench_args(dists, config.models, config.grid)
    except ValueError as exc:
        parser.error(str(exc))
    out_dir = Path(config.out or ".")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)  # before the run, which a bad path would waste
    except OSError as exc:
        print(f"error: cannot write {out_dir}: {exc}", file=sys.stderr)
        return 1

    reports = run_bench(dists, config.models, config.grid, config.optim, config.seed, config.jobs)
    if not _write(write_report_csv, out_dir / "report.csv", reports):
        return 1

    failed = [r for r in reports if r.error is not None]
    for r in failed:
        print(f"dist {r.dist_id}: {r.error}", file=sys.stderr)
    if failed:
        print(f"{len(failed)} of {len(reports)} distributions failed", file=sys.stderr)

    try:
        table = summarize(reports)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not _write(write_summary_json, out_dir / "summary.json", table):
        return 1
    print(format_summary_table(table))
    return 1 if failed else 0


def cmd_oracle(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    for name, value in (("--e1", args.e1), ("--e2", args.e2)):
        if not (0.0 <= value <= 1.0):
            parser.error(f"{name} must lie in [0, 1], got {value}")
    try:
        atoms = read_atoms_csv(args.dists)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    n = len(atoms)
    if not n:
        parser.error("dists must be non-empty")
    answers, errors = _batch_answers(atoms, [args.e1] * n, [args.e2] * n)
    answered = (f"{i} {answer:.12g}\n" for i, (answer, exc) in enumerate(zip(answers, errors)) if exc is None)
    sys.stdout.write("".join(answered))
    failed = "".join(f"dist {i}: {exc}\n" for i, exc in enumerate(errors) if exc is not None)
    sys.stderr.write(failed)
    return 1 if failed else 0


def cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        reports = read_report_csv(args.report)
        table = summarize(reports)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json is not None and not _write(write_summary_json, args.json, table):
        return 1
    print(format_summary_table(table))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uisbench",
        description="Benchmark evidence-combination models against the minimum-cross-entropy oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a distribution CSV")
    gen.add_argument("--family", choices=FAMILIES, default=None)
    gen.add_argument("--n", dest="n_dists", type=int, default=None, help="number of distributions")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default=None, help="output CSV path (default dists.csv)")
    gen.add_argument("--config", default=None, help="JSON run-config file; flags override it")
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="fit models on a distribution file and summarize eta")
    bench.add_argument("--dists", required=True, help="distribution CSV produced by gen")
    models = _flag_type(lambda text: _parse_models(text.split(",")))
    bench.add_argument("--models", type=models, default=None, help="comma-separated model list")
    bench.add_argument("--grid", type=_flag_type(_parse_grid), default=None, help="comma-separated evidence levels")
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--jobs", type=int, default=None, help="parallel workers (output is identical)")
    bench.add_argument("--out", default=None, help="output directory (default .)")
    bench.add_argument("--config", default=None, help="JSON run-config file; flags override it")
    bench.set_defaults(func=cmd_bench)

    oracle = sub.add_parser("oracle", help="print the oracle posterior of C per distribution")
    oracle.add_argument("--dists", required=True)
    oracle.add_argument("--e1", type=float, required=True)
    oracle.add_argument("--e2", type=float, required=True)
    oracle.set_defaults(func=cmd_oracle)

    report = sub.add_parser("report", help="re-summarize a report CSV")
    report.add_argument("--report", required=True, help="report CSV produced by bench")
    report.add_argument("--json", default=None, help="also write the summary JSON here")
    report.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
