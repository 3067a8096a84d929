"""``python -m repro.suite`` — the suite runner's command line.

Subcommands:

* ``run spec.json`` — execute a suite: ``--store`` / ``--artifacts`` for
  persistence, ``--connect`` (repeatable — several URLs make a fleet) for
  a remote service, ``--experiment`` / ``--machine`` / ``--seed``
  (repeatable) to narrow the run.
* ``validate spec.json`` — validate and summarise a spec without running.
* ``describe spec.json`` — summarise a spec plus the resolved connect
  target(s) the run would use (spec ``connect`` key, overridden by
  ``--connect``).
* ``experiments`` — list the registered experiment kinds.

Exit codes: 0 on success, 1 when any unit failed, 2 on a spec/usage error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.suite.figures import experiment_kinds, kind_baselines
from repro.suite.spec import SpecError, load_spec

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.suite",
        description="Run declarative experiment suites (see DESIGN.md section 14).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a suite spec")
    run.add_argument("spec", help="path to the suite spec JSON file")
    run.add_argument(
        "--store",
        default="memory",
        help="campaign store: 'memory', 'none', or a directory path (default: memory)",
    )
    run.add_argument(
        "--artifacts",
        default=None,
        help="output directory for CSV/JSONL/figure sinks and the manifest",
    )
    run.add_argument(
        "--backend",
        default=None,
        help="execution backend preset (serial, batched, multiprocess)",
    )
    run.add_argument(
        "--connect",
        action="append",
        default=None,
        metavar="URL",
        help=(
            "run through a remote campaign service (tcp://host:port or "
            "unix://path); repeat to stripe over a fleet of servers"
        ),
    )
    run.add_argument(
        "--experiment",
        action="append",
        default=None,
        help="run only this experiment id (repeatable)",
    )
    run.add_argument(
        "--machine",
        action="append",
        default=None,
        help="run only this machine id (repeatable)",
    )
    run.add_argument(
        "--seed",
        action="append",
        type=int,
        default=None,
        help="run only this seed (repeatable)",
    )
    run.add_argument(
        "--quiet", action="store_true", help="suppress the per-unit summary"
    )

    validate = sub.add_parser("validate", help="validate a spec without running it")
    validate.add_argument("spec", help="path to the suite spec JSON file")

    describe = sub.add_parser(
        "describe", help="summarise a spec and its resolved connect target(s)"
    )
    describe.add_argument("spec", help="path to the suite spec JSON file")
    describe.add_argument(
        "--connect",
        action="append",
        default=None,
        metavar="URL",
        help="override the spec's connect target(s) (repeatable)",
    )

    sub.add_parser("experiments", help="list the available experiment kinds")
    return parser


def _resolve_connect(flag_urls, spec) -> "list[str]":
    """The connect target list a run would use: ``--connect`` beats the spec."""
    if flag_urls:
        return list(flag_urls)
    return list(spec.connect)


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.suite.api import suite

    run = suite(
        args.spec,
        store=args.store,
        backend=args.backend,
        artifacts=args.artifacts,
        connect=args.connect,
    )
    result = run.run(
        experiments=args.experiment, machines=args.machine, seeds=args.seed
    )
    if not args.quiet:
        print(result.describe())
    return 0 if result.ok else 1


def _cmd_validate(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    print(spec.describe())
    print(f"spec hash: {spec.spec_hash()}")
    for experiment in spec.experiments:
        baselines = ", ".join(kind_baselines(experiment.kind)) or "(none)"
        print(f"  {experiment.id}: kind={experiment.kind}, baselines: {baselines}")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    spec = load_spec(args.spec)
    print(spec.describe())
    print(f"spec hash: {spec.spec_hash()}")
    targets = _resolve_connect(args.connect, spec)
    if not targets:
        print("connect: (none — in-process sessions)")
    elif len(targets) == 1:
        print(f"connect: {targets[0]} (remote session)")
    else:
        print(f"connect: fleet of {len(targets)} member(s)")
        for url in targets:
            print(f"  - {url}")
    for experiment in spec.experiments:
        baselines = ", ".join(kind_baselines(experiment.kind)) or "(none)"
        print(f"  {experiment.id}: kind={experiment.kind}, baselines: {baselines}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    for kind in experiment_kinds():
        baselines = ", ".join(kind_baselines(kind)) or "(none)"
        print(f"{kind}: baselines: {baselines}")
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "describe": _cmd_describe,
        "experiments": _cmd_experiments,
    }
    try:
        return handlers[args.command](args)
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
