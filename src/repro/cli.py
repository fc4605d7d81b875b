"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``exact``      exact minimum cut via any registered exact solver
               (default: the paper's Thorup packing + 1-respecting
               cuts; optional congest mode with round accounting).
``approx``     approximate minimum cut via any registered approx solver
               (default: the paper's (1+ε) Karger-sampling algorithm).
``rounds``     measure Theorem 2.1's distributed rounds over a size
               sweep of one family and fit the scaling exponent.
``compare``    run every applicable registered solver on one instance
               and print the agreement table.
``sweep``      solve a generated batch of instances through
               ``solve_batch`` (execution backend + result cache knobs);
               with ``--stream OPSFILE`` it instead drives one evolving
               instance through a :class:`repro.dynamic.DynamicSession`,
               replaying a mutation ops file with certificate-gated
               re-solves.
``solvers``    list the solver registry with capability metadata.
``bounds``     certified λ interval from edge-disjoint tree packings.
``serve``      run the JSON-over-HTTP service (:mod:`repro.service`)
               sharing one result cache across connections (optionally
               warm-started from merged cache stores).
``client``     talk to a running service (health, solvers, solve,
               batch round trips) — the CI smoke job's tool.
``cache``      result-cache tooling for segment stores
               (:mod:`repro.store`): ``merge`` worker stores (or
               legacy schema <= 2 files) into one warm-start store,
               ``stats`` a cache's contents, ``compact`` under a
               retention policy, ``gc`` dead records, ``segments``
               breakdown.
``config``     show the effective configuration (defaults + config
               file + environment) as JSON — the debugging tool for
               the precedence chain.

All algorithm dispatch goes through :mod:`repro.api` — the commands
iterate the solver registry instead of hard-coding algorithm lists, so
a newly registered solver is immediately selectable with ``--solver``
and shows up in ``compare`` and ``solvers``.  ``compare`` and ``sweep``
additionally expose the execution engine (:mod:`repro.exec`): pick a
backend with ``--backend serial|process|remote`` (default from
``$REPRO_BACKEND``) and enable result caching with ``--cache`` /
``--cache-file``.

Configuration follows one precedence rule everywhere
(:mod:`repro.config`): **CLI flag > environment > config file >
default**.  ``repro --config repro.toml <command>`` (or
``$REPRO_CONFIG``) loads ``[engine]``/``[serve]``/``[remote]``/
``[cache]`` sections; any flag you pass on top still wins.

Examples
--------
::

    python -m repro exact --family gnp --n 128 --mode congest
    python -m repro exact --family grid --n 64 --solver stoer_wagner
    python -m repro approx --family complete --n 64 --epsilon 0.5 --mode congest
    python -m repro rounds --family grid --sizes 64,144,324
    python -m repro compare --file mygraph.edges --backend process
    python -m repro sweep --family gnp --n 64 --count 16 --backend process
    python -m repro sweep --family grid --n 49 --count 8 --cache --repeat 2
    python -m repro sweep --stream ops.txt --family grid --n 49 --cache
    python -m repro solvers --json
    python -m repro serve --port 8137 --cache-file service_store
    python -m repro client solve --url http://127.0.0.1:8137 --family gnp --n 48
    python -m repro cache merge --out merged_store w1_store w2_store
    python -m repro cache merge --out migrated_store old_cache.json
    python -m repro cache compact merged_store --max-entries 5000
    python -m repro serve --port 8137 --warm-start merged_store
    python -m repro serve --port 8101 --register http://127.0.0.1:8100
    python -m repro --config repro.toml sweep --family gnp --n 64 \\
        --count 16 --backend remote
    python -m repro --config repro.toml config show
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Union, get_args, get_origin, get_type_hints

from .api.registry import default_registry
from .config import (
    BACKENDS,
    MODES,
    REQUEST_BACKENDS,
    CacheConfig,
    ServeConfig,
    load_config,
)
from .errors import ReproError

if TYPE_CHECKING:
    from .api.engine import Engine
    from .api.result import CutResult
    from .exec.cache import ResultCache
    from .graphs.graph import WeightedGraph

# A command imports what only it runs (engine, generators, analysis,
# core, store, dynamic, service) in its handler, so ``repro exact``
# never loads the service and ``repro serve`` loads neither the paper's
# pipeline nor the graph generators.


class _Families:
    """``--family`` choices: the names in ``FAMILY_BUILDERS``, read (and
    the generators imported) only when a family is checked or listed."""

    def __iter__(self):
        from .graphs.generators import FAMILY_BUILDERS

        return iter(sorted(FAMILY_BUILDERS))

    def __contains__(self, name: object) -> bool:
        return name in list(self)


def _add_family_argument(parser: argparse.ArgumentParser, note: str = "") -> None:
    # Without a metavar argparse would list the choices (importing the
    # generators) as it builds the parser.
    parser.add_argument(
        "--family",
        choices=_Families(),
        default="gnp",
        metavar="FAMILY",
        help="generated graph family: %(choices)s" + note,
    )


def _load_graph(args: argparse.Namespace) -> WeightedGraph:
    if args.file:
        from .graphs.io import read_edge_list

        graph = read_edge_list(args.file)
    else:
        from .graphs.generators import build_family

        graph = build_family(args.family, args.n, seed=args.seed)
    graph.require_connected()
    return graph


def _add_instance_arguments(parser: argparse.ArgumentParser) -> None:
    _add_family_argument(parser, " (ignored with --file)")
    parser.add_argument("--n", type=int, default=64, help="approximate size")
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    parser.add_argument(
        "--file", default=None, help="edge-list file (overrides --family)"
    )


def _add_solver_argument(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--solver",
        choices=sorted(default_registry().names()),
        default=default,
        help=f"registered solver to run (default: {default})",
    )


def _add_execution_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="execution backend (default: $REPRO_BACKEND or serial)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="enable the in-memory result cache for this run",
    )
    parser.add_argument(
        "--cache-file",
        default=None,
        metavar="PATH",
        help="persistent result cache: a segment-store directory, "
             "created if missing (implies --cache)",
    )


def _add_section_flags(parser, section, choices=None) -> None:
    """One ``--field-name`` flag per field of a config ``section``.

    Type, default, help and metavar come from the field; a tuple field
    is a repeatable flag.  Every flag defaults to ``None``: an omitted
    flag defers to the config file (then the field default), a given
    one beats both — the one precedence rule.
    """
    hints = get_type_hints(section)
    for spec in dataclasses.fields(section):
        kind = hints[spec.name]
        if get_origin(kind) is Union:  # Optional[X]
            kind = get_args(kind)[0]
        repeat = get_origin(kind) is tuple
        parser.add_argument(
            "--" + spec.name.replace("_", "-"),
            type=get_args(kind)[0] if repeat else kind,
            action="append" if repeat else "store",
            default=None,
            choices=(choices or {}).get(spec.name),
            metavar=spec.metadata["metavar"],
            help=spec.metadata["help"],
        )


def _section_flags(args: argparse.Namespace, section) -> dict:
    """The flag layer for ``section``: its fields' values from ``args``."""
    return {spec.name: getattr(args, spec.name) for spec in dataclasses.fields(section)}


def _build_engine(args: argparse.Namespace, **knobs) -> Engine:
    """One :class:`Engine` from the precedence chain.

    :func:`repro.config.load_config` supplies the file + environment
    layers (``--config`` / ``$REPRO_CONFIG``, ``$REPRO_BACKEND``); the
    execution flags and the ``[engine]`` ``knobs`` a command's flags
    set (``None`` when not given) are overlaid on top, so a flag the
    user typed always beats the file and the env.  With
    ``backend = "remote"`` and a ``[remote]`` section naming workers or
    a manager, the engine comes back with a ready
    :class:`~repro.exec.remote.RemoteExecutor` attached.
    """
    from .api.engine import Engine
    from .exec.backends import Executor, resolve_backend

    config = load_config(args.config).merged(
        engine={
            "backend": args.backend,
            "cache": args.cache_file or (True if args.cache else None),
            **knobs,
        }
    )
    engine = Engine.from_config(config)
    if not isinstance(engine.backend, Executor):
        engine.backend = resolve_backend(engine.backend)
    return engine


def _print_cache_stats(cache: Optional[ResultCache]) -> None:
    if cache is not None:
        stats = cache.stats()
        print(
            f"cache             : {stats['hits']} hit(s), "
            f"{stats['misses']} miss(es), {stats['memory_entries']} in memory, "
            f"{stats['disk_entries']} on disk"
        )


def _print_metrics(result: CutResult) -> None:
    if result.metrics is not None:
        summary = result.metrics.summary()
        print(
            f"rounds            : {summary['total_rounds']} "
            f"({summary['measured_rounds']} measured + "
            f"{summary['charged_rounds']} charged), "
            f"{summary['messages']} messages, "
            f"{summary['wall_time']:.3f}s in run_phase"
        )


def _cmd_exact(args: argparse.Namespace) -> int:
    from .api.facade import solve

    graph = _load_graph(args)
    options = {}
    if args.trees is not None:
        options["tree_count"] = args.trees
    result = solve(
        graph, solver=args.solver, mode=args.mode, seed=args.seed, **options
    )
    print(f"minimum cut value : {result.value:g}")
    print(f"witness side size : {len(result.side)} of {graph.number_of_nodes}")
    if "trees_used" in result.extras:
        print(
            f"packing trees used: {result.extras['trees_used']} "
            f"(winner: #{result.extras['tree_index']})"
        )
    _print_metrics(result)
    return 0


def _cmd_approx(args: argparse.Namespace) -> int:
    from .api.facade import solve

    graph = _load_graph(args)
    result = solve(
        graph,
        solver=args.solver,
        epsilon=args.epsilon,
        mode=args.mode,
        seed=args.seed,
    )
    if "used_sampling" in result.extras:
        path = "sampling" if result.extras["used_sampling"] else "exact (small lambda)"
        detail = f"[eps={args.epsilon}, via {path}]"
    else:
        detail = f"[eps={args.epsilon}]"
    print(f"({result.guarantee}) cut value : {result.value:g}   {detail}")
    print(f"witness side size : {len(result.side)} of {graph.number_of_nodes}")
    if result.extras.get("used_sampling"):
        print(
            f"sampling rate p   : {result.extras['probability']:.4f}  "
            f"(skeleton min cut {result.extras['skeleton_value']:g})"
        )
    _print_metrics(result)
    return 0


def _cmd_rounds(args: argparse.Namespace) -> int:
    from .analysis.rounds import fit_power_law
    from .analysis.tables import format_table
    from .core.one_respect_congest import one_respecting_min_cut_congest
    from .graphs.generators import build_family, random_spanning_tree
    from .graphs.properties import diameter

    sizes = [int(s) for s in args.sizes.split(",")]
    rows = []
    xs, ys = [], []
    for n in sizes:
        graph = build_family(args.family, n, seed=args.seed)
        tree = random_spanning_tree(graph, seed=args.seed)
        outcome = one_respecting_min_cut_congest(graph, tree)
        d = diameter(graph)
        actual = graph.number_of_nodes
        measured = outcome.metrics.measured_rounds
        xs.append(math.sqrt(actual) + d)
        ys.append(measured)
        rows.append(
            [actual, d, measured, outcome.metrics.charged_rounds,
             round(measured / (math.sqrt(actual) + d), 2)]
        )
    print(
        format_table(
            ["n", "D", "measured", "charged", "measured/(sqrt(n)+D)"],
            rows,
            title=f"Theorem 2.1 rounds — family '{args.family}'",
        )
    )
    if len(sizes) >= 2:
        fit = fit_power_law(xs, ys)
        print(
            f"\nfit: rounds ~ (sqrt(n)+D)^{fit.exponent:.2f} "
            f"(R^2={fit.r_squared:.3f})"
        )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .analysis.tables import format_cut_results

    graph = _load_graph(args)
    # One session object owns backend + cache for the whole compare
    # fan-out; `Engine.compare` guarantees the ground-truth row.
    engine = _build_engine(args)
    results = engine.compare(
        graph,
        epsilon=args.epsilon,
        seed=args.seed,
        names=args.solver or None,
        include_heavy=args.heavy,
    )
    if args.solver:
        skipped = sorted(set(args.solver) - {r.solver for r in results})
        if skipped:
            print(
                f"note: skipped (not applicable to this instance): "
                f"{', '.join(skipped)}",
                file=sys.stderr,
            )
    truth = results[0]  # compare() puts the ground-truth solver first
    print(
        format_cut_results(
            results,
            truth=truth.value,
            registry=engine.registry,
            title=f"n={graph.number_of_nodes}, m={graph.number_of_edges}",
        )
    )
    _print_cache_stats(engine.cache)
    return 0


def _cmd_sweep_stream(args: argparse.Namespace, engine: Engine) -> int:
    from .analysis.tables import format_table
    from .dynamic import parse_stream
    from .graphs.generators import build_family

    graph = build_family(args.family, args.n, seed=args.seed)
    graph.require_connected()
    session = engine.dynamic_session(
        graph, seed=args.seed, copy=False, validate=args.validate
    )
    with open(args.stream) as handle:
        events = list(parse_stream(handle))

    rows: list[list] = []

    def record_solve(lineno: int) -> None:
        result = session.solve()
        certificate = result.extras.get("certificate")
        if certificate is not None:
            note = ",".join(dict.fromkeys(certificate["kinds"])) or "no-change"
        else:
            note = f"solver:{result.solver}"
        info = result.extras.get("cache")
        cache_note = "-" if info is None else ("hit" if info["hit"] else "miss")
        rows.append(
            [lineno, "solve", session.graph.number_of_nodes,
             session.graph.number_of_edges,
             session.graph.content_hash()[:12], "-",
             f"{result.value:g}", note, cache_note]
        )

    since_solve = 0
    started = time.perf_counter()
    for lineno, directive, op in events:
        if directive == "solve":
            record_solve(lineno)
            since_solve = 0
            continue
        if directive == "undo":
            ack = session.undo()
            action = f"undo {ack['op']['op']}"
        else:
            ack = session.apply(op)
            action = ack["applied"]
        rows.append(
            [lineno, action, ack["n"], ack["m"], ack["graph_hash"][:12],
             ack["index"], "-", "-", "-"]
        )
        if directive == "op":
            since_solve += 1
            if args.solve_every and since_solve >= args.solve_every:
                record_solve(lineno)
                since_solve = 0
    elapsed = time.perf_counter() - started

    stats = session.stats()
    print(
        format_table(
            ["line", "action", "n", "m", "hash", "index", "cut value",
             "certificate", "cache"],
            rows,
            title=(
                f"stream — {args.stream} over family '{args.family}' "
                f"(n={args.n}, seed={args.seed})"
            ),
        )
    )
    mutations = stats["ops"] + stats["undos"]
    rate = mutations / elapsed if elapsed > 0 else float("inf")
    print(
        f"\nstream            : {stats['ops']} op(s), {stats['undos']} "
        f"undo(s), {stats['solves']} solve(s) in {elapsed:.3f}s "
        f"({rate:.1f} mutations/sec)"
    )
    print(
        f"solves            : {stats['certified']} certified skip(s), "
        f"{stats['solver_runs']} solver run(s), "
        f"{stats['cache_hits']} cache hit(s)"
    )
    index_stats = stats["index"]
    print(
        f"index maintenance : {index_stats['patched']} patched, "
        f"{index_stats['rebuilt']} rebuilt, {index_stats['noops']} noop(s)"
    )
    _print_cache_stats(engine.cache)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    engine = _build_engine(
        args, solver=args.solver, epsilon=args.epsilon, budget=args.budget
    )
    if args.stream:
        return _cmd_sweep_stream(args, engine)
    from .analysis.tables import format_table
    from .graphs.generators import build_family

    graphs = [
        build_family(args.family, args.n, seed=args.seed + i)
        for i in range(args.count)
    ]
    backend = engine.backend
    results: list[CutResult] = []
    for _ in range(max(1, args.repeat)):
        results = engine.solve_batch(graphs, seed=args.seed)
    rows = []
    for index, (graph, result) in enumerate(zip(graphs, results)):
        note = "-"
        info = result.extras.get("cache")
        if info is not None:
            note = "hit" if info["hit"] else "miss"
        rows.append(
            [
                index,
                graph.number_of_nodes,
                graph.number_of_edges,
                result.solver,
                result.value,
                f"{result.wall_time:.4f}",
                note,
            ]
        )
    print(
        format_table(
            ["#", "n", "m", "solver", "cut value", "time (s)", "cache"],
            rows,
            title=(
                f"sweep — family '{args.family}', {args.count} instance(s), "
                f"backend {backend.name}"
            ),
        )
    )
    plan = getattr(backend, "last_plan", None)
    if plan:
        line = (
            f"pack plan         : {plan.get('plan', 'cost')} — "
            f"{plan['tasks']} task(s) in {plan['bins']} bin(s), "
            f"predicted makespan {plan['makespan']:g} "
            f"(balance {plan['balance']:g})"
        )
        if plan.get("actual_makespan") is not None:
            line += f", actual {plan['actual_makespan']:g}s"
        if plan.get("stolen"):
            line += (
                f"; streamed {plan.get('chunks', 0)} chunk(s), "
                f"{plan['stolen']} re-packed"
            )
        print(line)
    _print_cache_stats(engine.cache)
    return 0


def _cmd_solvers(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table

    registry = default_registry()
    if args.json:
        solvers = [
            {
                "name": spec.name,
                "kind": spec.kind,
                "guarantee": spec.guarantee,
                "congest": spec.supports_congest,
                "randomized": spec.randomized,
                "heavy": spec.heavy,
                "max_nodes": spec.max_nodes,
                "cost_at_100_300": (
                    int(spec.cost_model(100, 300))
                    if spec.cost_model
                    and (spec.max_nodes is None or spec.max_nodes >= 100)
                    else None
                ),
                "summary": spec.summary,
            }
            for spec in registry
        ]
        print(json.dumps({"solvers": solvers}, indent=2, sort_keys=True))
        return 0
    yn = {True: "yes", False: "-"}
    rows = []
    for spec in registry:
        rows.append([
            spec.name,
            spec.kind,
            spec.guarantee,
            yn[spec.supports_congest],
            yn[spec.randomized],
            spec.max_nodes if spec.max_nodes is not None else "-",
            # Expected-cost model sampled at a reference instance — the
            # relative ordering `solve(..., budget=...)` trades on.
            # Solvers capped below the reference size show "-": their
            # cost there is not a number anyone can act on.
            int(spec.cost_model(100, 300))
            if spec.cost_model and (spec.max_nodes is None or spec.max_nodes >= 100)
            else "-",
            spec.summary,
        ])
    print(
        format_table(
            [
                "name", "kind", "guarantee", "congest", "random", "max n",
                "cost@(100,300)", "summary",
            ],
            rows,
            title=f"{len(registry)} registered solvers (use with --solver NAME)",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service import create_server

    sc = load_config(args.config).merged(
        serve=_section_flags(args, ServeConfig)
    ).serve
    server = create_server(sc)
    if sc.warm_start:
        print(
            f"warm start: adopted {server.service.warm_start_adopted} "
            f"cached result(s) from {len(sc.warm_start)} source(s)",
            flush=True,
        )
    # The resolved URL is printed before blocking (and flushed) so
    # wrappers that pass --port 0 can scrape the picked port.
    print(f"repro service listening on {server.url}", flush=True)
    heartbeat = None
    if sc.register:
        # Join a worker pool: heartbeat our advertised URL to the
        # manager until shutdown, then withdraw it.  Only a registering
        # worker loads the pool and its HTTP client.
        from .service import Heartbeat

        advertise = sc.advertise or server.url
        heartbeat = Heartbeat(
            sc.register, advertise, interval=sc.heartbeat
        ).start()
        print(
            f"registering with {sc.register} as {advertise} "
            f"every {sc.heartbeat:g}s",
            flush=True,
        )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if heartbeat is not None:
            heartbeat.stop()
        server.server_close()
    return 0


def _cmd_config(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    print(json.dumps(config.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
    from .graphs.generators import build_family
    from .service import ServiceClient

    client = ServiceClient(args.url, timeout=args.timeout)
    if args.action == "health":
        print(json.dumps(client.health(), indent=2, sort_keys=True))
        return 0
    if args.action == "solvers":
        solvers = client.solvers()
        rows = [
            [spec["name"], spec["kind"], spec["guarantee"],
             "yes" if spec["heavy"] else "-", spec["summary"]]
            for spec in solvers
        ]
        print(
            format_table(
                ["name", "kind", "guarantee", "heavy", "summary"],
                rows,
                title=f"{len(solvers)} solvers served by {args.url}",
            )
        )
        return 0
    if args.action == "solve":
        graph = _load_graph(args)
        result = client.solve(
            graph,
            solver=args.solver,
            epsilon=args.epsilon,
            mode=args.mode,
            seed=args.seed,
        )
        print(f"minimum cut value : {result.value:g}  [{result.solver}, "
              f"{result.guarantee}]")
        print(f"witness side size : {len(result.side)} of {graph.number_of_nodes}")
        info = result.extras.get("cache")
        if info is not None:
            print(
                f"server cache      : {'hit' if info['hit'] else 'miss'} "
                f"({info['hits']} hit(s), {info['misses']} miss(es))"
            )
        return 0
    # args.action == "batch"
    graphs = [
        build_family(args.family, args.n, seed=args.seed + i)
        for i in range(args.count)
    ]
    results = client.solve_batch(
        graphs,
        solver=args.solver,
        epsilon=args.epsilon,
        seed=args.seed,
        backend=args.backend,
    )
    rows = []
    for index, (graph, result) in enumerate(zip(graphs, results)):
        info = result.extras.get("cache")
        note = "-" if info is None else ("hit" if info["hit"] else "miss")
        rows.append(
            [index, graph.number_of_nodes, graph.number_of_edges,
             result.solver, result.value, note]
        )
    print(
        format_table(
            ["#", "n", "m", "solver", "cut value", "cache"],
            rows,
            title=f"remote batch — family '{args.family}' via {args.url}",
        )
    )
    return 0


def _print_compaction(report, *, header: str) -> None:
    print(
        f"{header}: kept {report.kept_entries} "
        f"entr{_ies(report.kept_entries)}, dropped "
        f"{report.dropped_entries} entr{_ies(report.dropped_entries)} "
        f"and {report.dropped_records - report.dropped_entries} dead "
        f"record(s); {report.segments_before} -> "
        f"{report.segments_after} segment(s), {report.bytes_before} -> "
        f"{report.bytes_after} bytes"
        + (
            f"; removed {report.orphans_removed} orphan file(s)"
            if report.orphans_removed
            else ""
        )
    )


def _cmd_cache(args: argparse.Namespace) -> int:
    from .analysis.tables import format_table
    from .exec.cache import CACHE_SCHEMA_VERSION, ResultCache, load_cache_file
    from .store import STORE_SCHEMA_VERSION, SegmentStore

    if args.action == "merge":
        out = ResultCache(path=args.out)
        already = out.stats()["disk_entries"]
        added = kept = skipped_files = 0
        for source in args.inputs:
            try:
                counts = out.merge_from(source, flush=False)
            except ReproError as exc:
                # Typically a newer-schema file this version refuses to
                # read; report it instead of aborting a batch merge.
                print(f"{source}: skipped ({exc})")
                skipped_files += 1
                continue
            print(
                f"{source}: added {counts.added} "
                f"entr{_ies(counts.added)}, kept ours for "
                f"{counts.kept_ours}"
                + (f", skipped {counts.skipped} malformed" if counts.skipped else "")
            )
            added += counts.added
            kept += counts.kept_ours
        out.flush()
        total = out.stats()["disk_entries"]
        print(
            f"wrote {args.out}: {total} entr{_ies(total)} (store schema "
            f"{STORE_SCHEMA_VERSION}; "
            f"{already} already present, {added} added, {kept} kept ours, "
            f"{skipped_files} input(s) skipped)"
        )
        return 0 if skipped_files < len(args.inputs) else 2

    if args.action in ("compact", "gc"):
        store = SegmentStore(args.path, create=False)
        if args.action == "compact":
            policy = load_config(args.config).merged(
                cache=_section_flags(args, CacheConfig)
            ).cache
            report = store.compact(policy)
        else:
            report = store.gc()
        if args.json:
            payload = dataclasses.asdict(report)
            payload["path"] = args.path
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            _print_compaction(report, header=f"{args.action} {args.path}")
        return 0

    if args.action == "segments":
        store = SegmentStore(args.path, create=False)
        infos = store.segment_infos()
        if args.json:
            print(
                json.dumps(
                    {"path": args.path, "segments": infos},
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        print(f"{args.path}: {len(infos)} segment(s)")
        rows = [
            [
                info["name"],
                "sealed" if info["sealed"] else "active",
                str(info["records"]),
                str(info["puts"]),
                str(info["hit_records"]),
                str(info["bytes"]),
            ]
            for info in infos
        ]
        print(
            format_table(
                ["segment", "state", "records", "puts", "hits", "bytes"], rows
            )
        )
        return 0

    # args.action == "stats"
    if Path(args.path).is_dir():
        store = SegmentStore(args.path, create=False)
        entries = store.entries()
        payload = {"schema": STORE_SCHEMA_VERSION, "store": store.stats()}
        now = time.time()
        for name, ts in (
            ("newest", store.newest_ts()), ("oldest", store.oldest_ts())
        ):
            age = None if ts is None else max(0.0, now - ts)
            payload["store"][f"{name}_entry_age"] = age
    else:  # a legacy single-file cache: read-only
        entries = load_cache_file(args.path)
        payload = {"schema": CACHE_SCHEMA_VERSION}
    by_solver: dict[str, int] = {}
    for entry in entries.values():
        solver = entry.get("solver")
        name = solver if isinstance(solver, str) else "<unknown>"
        by_solver[name] = by_solver.get(name, 0) + 1
    payload.update(path=args.path, entries=len(entries), by_solver=by_solver)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    store_stats = payload.get("store")
    if store_stats is None:
        print(
            f"{args.path}: {len(entries)} entr{_ies(len(entries))} "
            f"(legacy schema <= {CACHE_SCHEMA_VERSION} file, read-only; "
            f"migrate with `repro cache merge --out DIR {args.path}`)"
        )
    else:
        print(
            f"{args.path}: {len(entries)} live entr{_ies(len(entries))} "
            f"(store schema {STORE_SCHEMA_VERSION})\n"
            f"  segments          : {store_stats['segments']} "
            f"({store_stats['store_bytes']} bytes on disk)\n"
            f"  records           : {store_stats['live_entries']} live, "
            f"{store_stats['dead_records']} dead "
            f"({store_stats['compactions']} compaction(s) so far)"
        )
        if store_stats["oldest_entry_age"] is not None:
            print(
                f"  entry age         : newest "
                f"{store_stats['newest_entry_age']:.1f}s, oldest "
                f"{store_stats['oldest_entry_age']:.1f}s"
            )
    for name in sorted(by_solver):
        print(f"  {name:20s} {by_solver[name]}")
    return 0


def _ies(count: int) -> str:
    return "y" if count == 1 else "ies"


def _cmd_bounds(args: argparse.Namespace) -> int:
    from .packing import certified_cut_bounds

    graph = _load_graph(args)
    bounds = certified_cut_bounds(graph)
    print(f"certified interval : [{bounds.lower:g}, {bounds.upper:g}]")
    print(f"edge-disjoint trees: {bounds.disjoint_trees} (proves λ ≥ {bounds.lower:g})")
    print(f"upper-bound witness: side of {len(bounds.upper_witness)} node(s)")
    if bounds.is_tight:
        print("interval is tight — λ is determined without any exact solver")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed minimum cut (Nanongkai, PODC 2014) — reproduction CLI",
    )
    parser.add_argument(
        "--config", default=None, metavar="PATH",
        help="TOML or JSON config file with [engine]/[serve]/[remote]/"
             "[cache] sections (default: $REPRO_CONFIG); any flag passed "
             "on the command line still wins",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="exact minimum cut")
    _add_instance_arguments(p_exact)
    p_exact.add_argument("--mode", choices=MODES, default="reference")
    p_exact.add_argument("--trees", type=int, default=None, help="pin the packing size")
    _add_solver_argument(p_exact, default="exact")
    p_exact.set_defaults(handler=_cmd_exact)

    p_approx = sub.add_parser("approx", help="(1+eps)-approximate minimum cut")
    _add_instance_arguments(p_approx)
    p_approx.add_argument("--epsilon", type=float, default=0.5)
    p_approx.add_argument(
        "--mode", choices=MODES, default="reference"
    )
    _add_solver_argument(p_approx, default="approx")
    p_approx.set_defaults(handler=_cmd_approx)

    p_rounds = sub.add_parser("rounds", help="measure Theorem 2.1 round scaling")
    _add_family_argument(p_rounds)
    p_rounds.add_argument("--sizes", default="64,144,256")
    p_rounds.add_argument("--seed", type=int, default=0)
    p_rounds.set_defaults(handler=_cmd_rounds)

    p_compare = sub.add_parser("compare", help="all registered solvers on one instance")
    _add_instance_arguments(p_compare)
    p_compare.add_argument("--epsilon", type=float, default=0.5)
    p_compare.add_argument(
        "--solver",
        action="append",
        choices=sorted(default_registry().names()),
        help="restrict to these solvers (repeatable; default: all applicable)",
    )
    p_compare.add_argument(
        "--heavy",
        action="store_true",
        help="include heavy solvers (full CONGEST pipelines)",
    )
    _add_execution_arguments(p_compare)
    p_compare.set_defaults(handler=_cmd_compare)

    p_sweep = sub.add_parser(
        "sweep", help="batch-solve generated instances via solve_batch"
    )
    _add_family_argument(p_sweep)
    p_sweep.add_argument("--n", type=int, default=64, help="approximate size")
    p_sweep.add_argument(
        "--count", type=int, default=8, help="number of instances to generate"
    )
    p_sweep.add_argument(
        "--seed", type=int, default=0,
        help="base seed (instance i uses seed + i, for generation and solving)",
    )
    p_sweep.add_argument(
        "--solver",
        choices=["auto"] + sorted(default_registry().names()),
        default=None,
        help="registered solver to run on every instance (default: "
             "[engine] solver, else auto)",
    )
    p_sweep.add_argument(
        "--epsilon", type=float, default=None,
        help="approximation parameter (switches auto to approx solvers; "
             "default: [engine] epsilon)",
    )
    p_sweep.add_argument(
        "--budget", type=int, default=None,
        help="per-solver effort cap (default: [engine] budget)",
    )
    p_sweep.add_argument(
        "--repeat", type=int, default=1,
        help="run the batch this many times (with --cache, later passes hit)",
    )
    p_sweep.add_argument(
        "--stream", default=None, metavar="OPSFILE",
        help="dynamic mode: replay a mutation ops file against one "
             "generated instance through a DynamicSession (one op per "
             "line, plus bare 'solve'/'undo' directives; '#' comments)",
    )
    p_sweep.add_argument(
        "--solve-every", type=int, default=None, metavar="N",
        help="with --stream: also solve after every N applied ops "
             "(besides explicit 'solve' lines)",
    )
    p_sweep.add_argument(
        "--validate", action="store_true",
        help="with --stream: cross-check every patched index and "
             "certified solve against a from-scratch rebuild (slow)",
    )
    _add_execution_arguments(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_solvers = sub.add_parser("solvers", help="list the solver registry")
    p_solvers.add_argument(
        "--json", action="store_true",
        help="emit the registry as JSON instead of a table",
    )
    p_solvers.set_defaults(handler=_cmd_solvers)

    p_serve = sub.add_parser(
        "serve", help="run the JSON-over-HTTP solve service"
    )
    _add_section_flags(p_serve, ServeConfig, choices={"backend": BACKENDS})
    p_serve.set_defaults(handler=_cmd_serve)

    p_config = sub.add_parser(
        "config", help="inspect the effective configuration"
    )
    config_sub = p_config.add_subparsers(dest="action", required=True)
    p_show = config_sub.add_parser(
        "show",
        help="print the effective config (defaults + file + env) as JSON",
    )
    p_show.set_defaults(handler=_cmd_config)

    p_client = sub.add_parser(
        "client", help="talk to a running repro service"
    )
    client_sub = p_client.add_subparsers(dest="action", required=True)
    for action, help_text in (
        ("health", "GET /healthz"),
        ("solvers", "GET /solvers"),
        ("solve", "POST /solve with a generated or file instance"),
        ("batch", "POST /solve_batch with generated instances"),
    ):
        p_action = client_sub.add_parser(action, help=help_text)
        p_action.add_argument(
            "--url", required=True, help="service base URL, e.g. http://127.0.0.1:8000"
        )
        p_action.add_argument(
            "--timeout", type=float, default=60.0, help="per-request timeout (s)"
        )
        if action == "solve":
            _add_instance_arguments(p_action)
            p_action.add_argument("--solver", default="auto")
            p_action.add_argument("--epsilon", type=float, default=None)
            p_action.add_argument(
                "--mode", choices=MODES, default="reference"
            )
        elif action == "batch":
            _add_family_argument(p_action)
            p_action.add_argument("--n", type=int, default=64)
            p_action.add_argument("--count", type=int, default=8)
            p_action.add_argument("--seed", type=int, default=0)
            p_action.add_argument("--solver", default="auto")
            p_action.add_argument("--epsilon", type=float, default=None)
            p_action.add_argument(
                "--backend", choices=REQUEST_BACKENDS, default=None,
                help="server-side execution backend for the fan-out",
            )
        p_action.set_defaults(handler=_cmd_client)

    p_cache = sub.add_parser(
        "cache",
        help="result-cache tooling (merge, stats, compact, gc, segments)",
    )
    cache_sub = p_cache.add_subparsers(dest="action", required=True)
    p_merge = cache_sub.add_parser(
        "merge",
        help="merge cache stores (or legacy schema <= 2 files) into "
             "one warm-start store (existing entries in --out win on "
             "conflict)",
    )
    p_merge.add_argument(
        "--out", required=True, metavar="PATH",
        help="store directory to write (created if missing)",
    )
    p_merge.add_argument(
        "inputs", nargs="+", metavar="CACHE",
        help="store directories or legacy cache files to merge in",
    )
    p_merge.set_defaults(handler=_cmd_cache)
    p_stats = cache_sub.add_parser(
        "stats",
        help="entry count, per-solver breakdown, and (for a store "
             "directory) segment/byte/age counters",
    )
    p_stats.add_argument(
        "path", metavar="CACHE",
        help="store directory or legacy cache file"
    )
    p_stats.add_argument(
        "--json", action="store_true",
        help="emit the stats as JSON instead of text",
    )
    p_stats.set_defaults(handler=_cmd_cache)
    p_compact = cache_sub.add_parser(
        "compact",
        help="fold a store's segments into one under the retention "
             "policy ([cache] config section; flags below win)",
    )
    p_compact.add_argument(
        "path", metavar="STORE", help="segment-store directory"
    )
    _add_section_flags(p_compact, CacheConfig)
    p_compact.add_argument(
        "--json", action="store_true",
        help="emit the compaction report as JSON",
    )
    p_compact.set_defaults(handler=_cmd_cache)
    p_gc = cache_sub.add_parser(
        "gc",
        help="drop dead records and orphan segment files, keeping "
             "every live entry",
    )
    p_gc.add_argument("path", metavar="STORE", help="segment-store directory")
    p_gc.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    p_gc.set_defaults(handler=_cmd_cache)
    p_segments = cache_sub.add_parser(
        "segments", help="per-segment breakdown of a store directory"
    )
    p_segments.add_argument(
        "path", metavar="STORE", help="segment-store directory"
    )
    p_segments.add_argument(
        "--json", action="store_true", help="emit the breakdown as JSON"
    )
    p_segments.set_defaults(handler=_cmd_cache)

    p_bounds = sub.add_parser("bounds", help="certified minimum-cut interval")
    _add_instance_arguments(p_bounds)
    p_bounds.set_defaults(handler=_cmd_bounds)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
