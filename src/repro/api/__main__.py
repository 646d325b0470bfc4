"""Command-line interface to the solver façade.

Examples::

    python -m repro.api list
    python -m repro.api solve --task mis --graph gnp:n=500,p=0.02 --seed 7
    python -m repro.api solve --task matching --backend pregel \\
        --graph file:graph.edges --json
    python -m repro.api sweep --tasks mis,matching --backends all \\
        --graphs gnp:n=200,p=0.05 gnp:n=400,p=0.02 --seeds 1,2,3 \\
        --jsonl reports.jsonl

Graph specs are ``kind:key=value,...``:

* ``gnp:n=500,p=0.02`` — Erdős–Rényi G(n, p)
* ``gnm:n=500,m=2000`` — uniform G(n, m)
* ``ba:n=500,attachment=3`` — Barabási–Albert preferential attachment
* ``grid:rows=20,cols=30`` — 2-D grid
* ``complete:n=40`` / ``cycle:n=50`` / ``path:n=50`` / ``star:leaves=30``
* ``wrandom:n=200,p=0.05`` — random weighted graph (weighted tasks)
* ``file:PATH`` — whitespace-separated edge list

The same console script is installed as ``repro`` (see ``setup.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.api import registry, solve, solve_many, sweep
from repro.analysis.tables import format_table
from repro.graph import generators
from repro.graph.graph import Graph
from repro.graph.io import read_edge_list

_GENERATORS = {
    "gnp": lambda n, p, seed=0: generators.gnp_random_graph(
        int(n), float(p), seed=int(seed)
    ),
    "gnm": lambda n, m, seed=0: generators.gnm_random_graph(
        int(n), int(m), seed=int(seed)
    ),
    "ba": lambda n, attachment, seed=0: generators.barabasi_albert(
        int(n), int(attachment), seed=int(seed)
    ),
    "grid": lambda rows, cols: generators.grid_graph(int(rows), int(cols)),
    "complete": lambda n: generators.complete_graph(int(n)),
    "cycle": lambda n: generators.cycle_graph(int(n)),
    "path": lambda n: generators.path_graph(int(n)),
    "star": lambda leaves: generators.star_graph(int(leaves)),
    "wrandom": lambda n, p, seed=0, max_weight=100.0: generators.random_weighted_graph(
        int(n), float(p), max_weight=float(max_weight), seed=int(seed)
    ),
}


def parse_graph_spec(spec: str) -> Any:
    """Build a graph from a ``kind:key=value,...`` spec string."""
    kind, _, params = spec.partition(":")
    if kind == "file":
        if not params:
            raise ValueError("file: spec needs a path, e.g. file:graph.edges")
        return read_edge_list(params)
    builder = _GENERATORS.get(kind)
    if builder is None:
        raise ValueError(
            f"unknown graph kind {kind!r}; known: "
            f"{', '.join(sorted(_GENERATORS))}, file"
        )
    kwargs: Dict[str, str] = {}
    if params:
        for item in params.split(","):
            key, _, value = item.partition("=")
            if not _ or not key:
                raise ValueError(f"malformed graph parameter {item!r} in {spec!r}")
            kwargs[key] = value
    try:
        return builder(**kwargs)
    except TypeError as error:
        raise ValueError(f"bad parameters for {kind!r}: {error}") from None


def _parse_config(text: Optional[str]) -> Optional[Dict[str, Any]]:
    """Parse ``--config`` as JSON (e.g. '{"epsilon": 0.05}')."""
    if text is None:
        return None
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("--config must be a JSON object")
    return payload


def _parse_fault_policy(text: Optional[str]):
    """Parse ``--fault-policy`` as FaultPolicy fields (e.g. '{"max_retries": 1}').

    The empty object ``'{}'`` opts into supervision with the default
    policy.
    """
    if text is None:
        return None
    from repro.dist import FaultPolicy

    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("--fault-policy must be a JSON object")
    try:
        return FaultPolicy(**payload)
    except TypeError as error:
        raise ValueError(f"bad --fault-policy: {error}") from None


def _parse_fault_plan(text: Optional[str]):
    """Parse ``--fault-plan`` as FaultPlan JSON ('{"specs": [...]}')."""
    if text is None:
        return None
    from repro.dist import FaultPlan

    payload = json.loads(text)
    try:
        return FaultPlan.from_dict(payload)
    except (TypeError, ValueError) as error:
        raise ValueError(f"bad --fault-plan: {error}") from None


def _parse_governance(text: Optional[str]) -> Any:
    """Parse ``--governance`` as GovernancePolicy fields (e.g. '{"watermark": 0.8}').

    The empty object ``'{}'`` opts in with the default policy; ``'off'``
    (or omitting the flag) leaves governance disabled.
    """
    if text is None or text == "off":
        return None
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("--governance must be a JSON object (or 'off')")
    from repro.govern import GovernancePolicy

    try:
        return GovernancePolicy.from_any(payload) or True
    except TypeError as error:
        raise ValueError(f"bad --governance: {error}") from None


def _cmd_list(_: argparse.Namespace) -> int:
    rows = [
        {
            "task": entry.task,
            "backend": entry.backend,
            "auto": "*" if registry.resolve(entry.task) is entry else "",
            "description": entry.description,
        }
        for entry in registry.entries()
    ]
    print(format_table(rows, title="Registered (task, backend) solvers"))
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    graph = parse_graph_spec(args.graph)
    report = solve(
        args.task,
        graph,
        backend=args.backend,
        config=_parse_config(args.config),
        seed=args.seed,
        budget=args.budget,
        verify=args.verify,
        executor=args.executor,
        workers=args.workers,
        fault_policy=_parse_fault_policy(args.fault_policy),
        fault_plan=_parse_fault_plan(args.fault_plan),
        governance=_parse_governance(args.governance),
    )
    if args.json:
        print(report.to_json(indent=2))
    else:
        row = report.summary_row()
        row.update({k: v for k, v in report.metrics.items() if k != "size"})
        print(format_table([row], title=f"{report.task} via {report.backend}"))
        if args.verify and not report.verified:
            failed = [
                check["name"]
                for check in report.verification.get("checks", [])
                if not check["passed"]
            ]
            print(f"verification FAILED: {', '.join(failed)}", file=sys.stderr)
    ok = report.valid and (report.verified or not args.verify)
    return 0 if ok else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    graphs = [parse_graph_spec(spec) for spec in args.graphs]
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else [None]
    backends: Any = args.backends
    if backends not in ("auto", "all"):
        backends = backends.split(",")
    specs = sweep(
        args.tasks.split(","),
        graphs,
        backends=backends,
        seeds=seeds,
        configs=(_parse_config(args.config),),
        budget=args.budget,
        governance=_parse_governance(args.governance),
    )
    result = solve_many(
        specs, processes=args.processes, jsonl_path=args.jsonl
    )
    print(format_table(result.rows(), title=f"sweep: {len(result)} runs"))
    if result.failures:
        print(f"\n{len(result.failures)} failures:", file=sys.stderr)
        for failure in result.failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    if args.jsonl:
        print(f"\nwrote {len(result)} reports to {args.jsonl}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unified solver façade for the PODC'18 MPC reproduction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show registered (task, backend) pairs")

    solve_p = sub.add_parser("solve", help="run one task on one graph")
    solve_p.add_argument("--task", required=True, choices=registry.tasks())
    solve_p.add_argument("--backend", default="auto")
    solve_p.add_argument("--graph", required=True, help="graph spec (see module doc)")
    solve_p.add_argument("--seed", type=int, default=None)
    solve_p.add_argument("--budget", type=float, default=None)
    solve_p.add_argument("--config", default=None, help="JSON config overrides")
    solve_p.add_argument("--json", action="store_true", help="print the full report")
    solve_p.add_argument(
        "--executor",
        default=None,
        choices=("parallel",),
        help="run the solver's repro.dist kernels on a worker pool",
    )
    solve_p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for --executor (default 2)",
    )
    solve_p.add_argument(
        "--fault-policy",
        default=None,
        metavar="JSON",
        help=(
            "supervise --executor parallel: FaultPolicy fields as JSON "
            "('{}' = defaults; e.g. '{\"max_retries\": 1, "
            "\"step_timeout_s\": 10}')"
        ),
    )
    solve_p.add_argument(
        "--fault-plan",
        default=None,
        metavar="JSON",
        help=(
            "inject deterministic faults (chaos testing): FaultPlan JSON, "
            "e.g. '{\"specs\": [{\"kind\": \"crash\", \"worker\": 1}]}'"
        ),
    )
    solve_p.add_argument(
        "--governance",
        default=None,
        metavar="JSON",
        help=(
            "govern the memory envelope (repro.govern): GovernancePolicy "
            "fields as JSON ('{}' = defaults; e.g. '{\"watermark\": 0.8, "
            "\"max_chunks\": 32}')"
        ),
    )
    solve_p.add_argument(
        "--verify",
        action="store_true",
        help="attach a repro.verify certificate; non-zero exit if it fails",
    )

    sweep_p = sub.add_parser("sweep", help="run a batch sweep")
    sweep_p.add_argument("--tasks", required=True, help="comma-separated tasks")
    sweep_p.add_argument(
        "--backends", default="auto", help="'auto', 'all', or comma-separated names"
    )
    sweep_p.add_argument(
        "--graphs", required=True, nargs="+", help="one or more graph specs"
    )
    sweep_p.add_argument("--seeds", default=None, help="comma-separated ints")
    sweep_p.add_argument("--budget", type=float, default=None)
    sweep_p.add_argument(
        "--governance",
        default=None,
        metavar="JSON",
        help="sweep-wide GovernancePolicy JSON ('{}' = defaults)",
    )
    sweep_p.add_argument("--config", default=None, help="JSON config overrides")
    sweep_p.add_argument("--processes", type=int, default=None)
    sweep_p.add_argument("--jsonl", default=None, help="stream reports to this file")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"list": _cmd_list, "solve": _cmd_solve, "sweep": _cmd_sweep}
    try:
        return handlers[args.command](args)
    except (ValueError, KeyError, TypeError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
