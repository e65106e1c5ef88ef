"""Command-line front end: generate distributions, run the bench, query the oracle.

Every command is a pure function of its flags and input files, so reruns with
identical arguments produce byte-identical artifacts (including under
different --jobs values). A run's settings are the ``RunConfig`` defaults,
then the values of a JSON file given by --config, then the flags given.
Diagnostics go to stderr, data to files or stdout; the exit status is 0 only
if nothing went wrong.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .bench import (
    DEFAULT_MODELS,
    _check_unique,
    _model_kind,
    check_bench_args,
    format_summary_table,
    read_report_csv,
    run_bench,
    summarize,
    write_report_csv,
    write_summary_json,
)
from .dist import _utf8_text, read_atoms_csv, read_dists_csv, sample_cond_indep, sample_uniform, write_dists_csv
from .models import ModelKind
# standard_answer is not called here, but perfbench's tracer wraps it (test_every_traced_attribute_exists)
from .oracle import DEFAULT_GRID, EvidenceGrid, _batch_answers, _evidence, standard_answer  # noqa: F401

__all__ = ["RunConfig", "main"]

SAMPLERS = {"uniform": sample_uniform, "cond_indep": sample_cond_indep}  # the families gen draws from


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    n_dists: int = 109
    family: str = "uniform"
    grid: EvidenceGrid = DEFAULT_GRID
    models: tuple[ModelKind, ...] = DEFAULT_MODELS
    out: str | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        for name, low in (("seed", 0), ("n_dists", 1), ("jobs", 1)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.family not in tuple(SAMPLERS):  # a tuple, so an unhashable value is named too
            raise ValueError(f"family must be one of {tuple(SAMPLERS)}, got {self.family!r}")
        if self.out is not None and type(self.out) is not str:
            raise ValueError(f"out must be a string, got {self.out!r}")


def _parse_models(names: list[str]) -> tuple[ModelKind, ...]:
    kinds: tuple[ModelKind, ...] = ()
    for token in names:
        kinds += (_model_kind(token.strip().upper()),)
        _check_unique(kinds)  # before the next name is read, so the first fault in list order is named
    return kinds


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


def _resolve_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    """The defaults, then the ``--config`` file's values, then the flags given; every value is checked."""
    try:
        values = {}
        if args.config is not None:
            with _utf8_text(args.config, csv=False) as f:
                try:
                    values = json.load(f)
                except json.JSONDecodeError as exc:  # named as the decode error names its place
                    raise ValueError(f"{args.config}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None
            if type(values) is not dict:
                raise ValueError(f"{args.config}: config must be a JSON object, got {values!r}")
        unknown = set(values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "grid" in values:
            levels = values["grid"]
            if type(levels) is not list or any(type(v) not in (int, float) for v in levels):
                raise ValueError(f"grid must be a list of numbers, got {levels!r}")
            values["grid"] = EvidenceGrid(tuple(float(v) for v in levels))
        if "models" in values:
            names = values["models"]
            if type(names) is not list or any(type(v) is not str for v in names):
                raise ValueError(f"models must be a list of model names, got {names!r}")
            values["models"] = _parse_models(names)
        config = RunConfig(**values)  # checked before the flags, so one given for a bad file value does not hide it
        flags = {f.name: getattr(args, f.name, None) for f in fields(RunConfig)}
        return replace(config, **{name: value for name, value in flags.items() if value is not None})
    except (ValueError, TypeError, OSError) as exc:
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


def _summary(reports, json_path) -> int:
    """Summarize ``reports``, write ``summary.json`` to ``json_path`` unless it is ``None`` and print the
    table; returns the exit status, 1 if the summary cannot be made or written."""
    try:
        rows = summarize(reports)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if json_path is not None and not _write(write_summary_json, json_path, rows):
        return 1
    print(format_summary_table(rows))
    return 0


def cmd_gen(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    config = _resolve_config(args, parser)
    out = Path(config.out or "dists.csv")
    if not _write(write_dists_csv, out, SAMPLERS[config.family](config.seed, config.n_dists)):
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

    reports = run_bench(dists, config.models, config.grid, config.seed, config.jobs)
    if not _write(write_report_csv, out_dir / "report.csv", reports):
        return 1

    failed = [r for r in reports if r.error is not None]
    for r in failed:
        print(f"dist {r.dist_id}: {r.error}", file=sys.stderr)
    if failed:
        print(f"{len(failed)} of {len(reports)} distributions failed", file=sys.stderr)
    status = _summary(reports, out_dir / "summary.json")
    return 1 if failed else status


def cmd_oracle(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    for name, value in (("--e1", args.e1), ("--e2", args.e2)):
        if not (0.0 <= value <= 1.0):
            parser.error(f"{name} must lie in [0, 1], got {value}")
    try:
        atoms = read_atoms_csv(args.dists)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not len(atoms):
        parser.error("dists must be non-empty")
    answers, errors = _batch_answers(atoms, _evidence([args.e1], [args.e2]))
    answers = answers[:, 0].tolist()
    answered = (f"{i} {answer:.12g}\n" for i, (answer, exc) in enumerate(zip(answers, errors)) if exc is None)
    sys.stdout.write("".join(answered))
    failed = "".join(f"dist {i}: {exc}\n" for i, exc in enumerate(errors) if exc is not None)
    sys.stderr.write(failed)
    return 1 if failed else 0


def cmd_report(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        reports = read_report_csv(args.report)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _summary(reports, args.json)


def _gen_arguments(gen: argparse.ArgumentParser) -> None:
    gen.add_argument("--family", choices=SAMPLERS, default=None)
    gen.add_argument("--n", dest="n_dists", type=int, default=None, help="number of distributions")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", default=None, help="output CSV path (default dists.csv)")
    gen.add_argument("--config", default=None, help="JSON run-config file; flags override it")


def _bench_arguments(bench: argparse.ArgumentParser) -> None:
    bench.add_argument("--dists", required=True, help="distribution CSV produced by gen")
    models = _flag_type(lambda text: _parse_models(text.split(",")))
    bench.add_argument("--models", type=models, default=None, help="comma-separated model list")
    bench.add_argument("--grid", type=_flag_type(_parse_grid), default=None, help="comma-separated evidence levels")
    bench.add_argument("--seed", type=int, default=None)
    bench.add_argument("--jobs", type=int, default=None,
                       help="parallel workers, at most the CPU count (output is identical)")
    bench.add_argument("--out", default=None, help="output directory (default .)")
    bench.add_argument("--config", default=None, help="JSON run-config file; flags override it")


def _oracle_arguments(oracle: argparse.ArgumentParser) -> None:
    oracle.add_argument("--dists", required=True)
    oracle.add_argument("--e1", type=float, required=True)
    oracle.add_argument("--e2", type=float, required=True)


def _report_arguments(report: argparse.ArgumentParser) -> None:
    report.add_argument("--report", required=True, help="report CSV produced by bench")
    report.add_argument("--json", default=None, help="also write the summary JSON here")


# name -> (help, the function that adds the command's arguments to its parser, the command)
COMMANDS = {
    "gen": ("generate a distribution CSV", _gen_arguments, cmd_gen),
    "bench": ("fit models on a distribution file and summarize eta", _bench_arguments, cmd_bench),
    "oracle": ("print the oracle posterior of C per distribution", _oracle_arguments, cmd_oracle),
    "report": ("re-summarize a report CSV", _report_arguments, cmd_report),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uisbench",
        description="Benchmark evidence-combination models against the minimum-cross-entropy oracle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_arguments, command) in COMMANDS.items():
        command_parser = sub.add_parser(name, help=summary)
        add_arguments(command_parser)
        command_parser.set_defaults(func=command, parser=command_parser)
    return parser


def _parse_argv(argv: list[str]):
    """The command that ``argv`` runs, its arguments and its parser, which a usage error found later names.

    When ``argv`` starts with a command's name, only that command's parser is
    built: it is the parser ``build_parser`` adds for the command, so it
    prints the same help and errors. Arguments it does not know are reported
    by the full parser, with the full usage, as are an argv that names no
    command, ``-h`` and ``--``.
    """
    if argv and argv[0] in COMMANDS:
        _, add_arguments, command = COMMANDS[argv[0]]
        parser = argparse.ArgumentParser(prog=f"uisbench {argv[0]}")
        add_arguments(parser)
        args, extras = parser.parse_known_args(argv[1:])
        if not extras:
            return command, args, parser
    args = build_parser().parse_args(argv)
    return args.func, args, args.parser


def main(argv: list[str] | None = None) -> int:
    command, args, parser = _parse_argv(sys.argv[1:] if argv is None else argv)
    return command(args, parser)


if __name__ == "__main__":
    sys.exit(main())
