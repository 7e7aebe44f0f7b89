"""Command-line interface: analyze, encode and generate Petri nets.

Subcommands
-----------

``generate <family> <size>``
    Emit a benchmark net in the ``.pnet`` text format.

``info <net.pnet>``
    Structure report: sizes, class predicates, P/T-invariants, SMCs.

``encode <net.pnet>``
    Build an encoding and print its variable/code summary.

``analyze <net.pnet>``
    Symbolic reachability + deadlock check under a chosen encoding.

``batch <requests.jsonl>``
    Run a batch of analysis requests through the
    :class:`~repro.service.AnalysisService` (result cache, in-flight
    dedupe, warm worker pool) and emit one JSON response line per
    request with per-request cache telemetry.

``serve``
    The same loop, long-lived, over stdin/stdout: one JSONL request in,
    one JSON response out, until EOF.

Request lines for ``batch``/``serve`` name a net by file or family and
optionally override spec fields::

    {"id": "q1", "net": "muller4.pnet"}
    {"id": "q2", "family": "phil", "n": 6, "spec": {"backend": "zdd"}}

Examples
--------

::

    python -m repro.cli generate muller 4 -o muller4.pnet
    python -m repro.cli info muller4.pnet
    python -m repro.cli encode muller4.pnet --scheme improved
    python -m repro.cli analyze muller4.pnet --scheme improved --engine bdd
    python -m repro.cli analyze muller4.pnet --image saturation
    python -m repro.cli analyze muller4.pnet --engine zdd --image chained
    python -m repro.cli analyze --net phil --n 6 --backend portfolio
    python -m repro.cli analyze --net phil --n 8 --checkpoint run.ckpt
    python -m repro.cli analyze --net phil --n 8 --checkpoint run.ckpt \
        --resume

``analyze`` exit codes: 0 success, 1 portfolio race failure, 2 bad
spec, 3 partial result (a ``--node-budget`` / ``--deadline`` resource
budget was exhausted; the printed marking count is a lower bound).
``batch``/``serve`` exit 0 when every request succeeded, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from . import analysis as analysis_api
from .analysis import (DEFAULT_PORTFOLIO_MEMBERS, PORTFOLIO_MEMBERS,
                       STRATEGIES, ZDD_RELATIONAL_ENGINES, Analysis,
                       AnalysisSpec, SpecError)
from .encoding import DenseEncoding, ImprovedEncoding, SparseEncoding
from .encoding.improved import encoding_variable_summary
from .petri import find_smcs
from .petri.generators import (dme_circuit, dme_spec, figure1_net,
                               jj_register, muller, philosophers,
                               slotted_ring)

FAMILIES = {
    "muller": muller,
    "phil": philosophers,
    "slot": slotted_ring,
    "dmespec": dme_spec,
    "dmecir": dme_circuit,
}
SCHEMES = {
    "sparse": SparseEncoding,
    "dense": DenseEncoding,
    "improved": ImprovedEncoding,
}


def _service_workers(value: str):
    """Parse a service ``--workers``: a non-negative integer or
    ``auto`` (0 skips worker processes; every miss solves serially)."""
    if value == "auto":
        return "auto"
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer or 'auto', got {value!r}")
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"workers must be >= 0, got {count}")
    return count


def _add_service_arguments(sub) -> None:
    sub.add_argument("--cache-dir", default=None, metavar="DIR",
                     help="persistent result-cache directory (omitted: "
                          "memory-only cache for this run); entries are "
                          "never pruned, so pruning the directory is the "
                          "caller's job")
    sub.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="per-key checkpoint directory: cache misses "
                          "run with an injected checkpoint path and "
                          "resume=True, so a re-solved key resumes its "
                          "finished fixpoint instead of cold-starting")
    sub.add_argument("--workers", type=_service_workers, default="auto",
                     help="worker-pool size (a non-negative integer or "
                          "'auto' for the CPU count; 0 solves every "
                          "request serially in-process)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Symbolic Petri-net analysis with dense SMC encodings "
                    "(Pastor & Cortadella, DATE 1998)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a benchmark net")
    gen.add_argument("family", choices=sorted(FAMILIES) + ["jjreg"])
    gen.add_argument("size", type=int,
                     help="family size (cells/stations/stages; bits for "
                          "jjreg)")
    gen.add_argument("-o", "--output", default=None,
                     help="output path (stdout when omitted)")
    gen.add_argument("--variant", default="a", choices=["a", "b"],
                     help="jjreg variant")

    info = sub.add_parser("info", help="structural report for a .pnet file")
    info.add_argument("net", help="path to a .pnet file")
    info.add_argument("--invariants", action="store_true",
                      help="also enumerate minimal P- and T-invariants")

    enc = sub.add_parser("encode", help="print an encoding summary")
    enc.add_argument("net", help="path to a .pnet file")
    enc.add_argument("--scheme", default="improved",
                     choices=sorted(SCHEMES))

    ana = sub.add_parser("analyze", help="symbolic reachability analysis")
    ana.add_argument("net_file", nargs="?", default=None,
                     metavar="net.pnet",
                     help="path to a .pnet file (or generate a "
                          "benchmark in-process with --net/--n)")
    ana.add_argument("--net", default=None, metavar="FAMILY",
                     choices=sorted(FAMILIES) + ["figure1", "jjreg"],
                     help="generate a benchmark family instead of "
                          "reading a file (size via --n)")
    ana.add_argument("--n", type=int, default=None, metavar="SIZE",
                     help="family size for --net (cells/stations/"
                          "stages; bits for jjreg; ignored for figure1)")
    ana.add_argument("--scheme", default="improved",
                     choices=sorted(SCHEMES))
    ana.add_argument("--engine", "--backend", dest="engine",
                     default="bdd", choices=["bdd", "zdd", "portfolio"],
                     help="solver backend: a decision-diagram family, "
                          "or 'portfolio' to race heterogeneous member "
                          "configurations in worker processes and "
                          "answer with the first verdict")
    ana.add_argument("--strategy", default=None, choices=STRATEGIES,
                     help="functional BDD fixpoint schedule; when "
                          "omitted, AnalysisSpec's default applies")
    ana.add_argument("--image", default=None,
                     # The BDD's relational engines are a subset.
                     choices=["functional"] + list(ZDD_RELATIONAL_ENGINES),
                     help="image computation: the renaming-free functional "
                          "operators or a relational engine: 'saturation' "
                          "fires each transition in place, one kernel "
                          "recursion per band of levels (with --engine "
                          "zdd, 'chained' sweeps one sparse relation per "
                          "transition and 'functional' selects the "
                          "classic per-transition rewrite); when "
                          "omitted, each backend's default from "
                          "AnalysisSpec applies (functional for bdd, "
                          "saturation for zdd)")
    ana.add_argument("--portfolio-members", default=None,
                     metavar="M1,M2,...",
                     help="comma-separated member ids for the portfolio "
                          "race (default: "
                          + ",".join(DEFAULT_PORTFOLIO_MEMBERS) + "; "
                          "available: " + ",".join(PORTFOLIO_MEMBERS)
                          + ")")
    ana.add_argument("--timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="global wall-clock budget for the portfolio "
                          "race; past it the race fails with every "
                          "member's status")
    ana.add_argument("--member-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-worker wall-clock budget for the "
                          "portfolio race; a member past it is "
                          "terminated and the race continues with the "
                          "survivors")
    ana.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="checkpoint the fixpoint state to this file "
                          "(written atomically at safe points; with "
                          "--engine portfolio each member checkpoints "
                          "to PATH.<member>)")
    ana.add_argument("--checkpoint-every", type=int, default=None,
                     metavar="N",
                     help="checkpoint at most once per N completed "
                          "iterations (default 1 with --checkpoint)")
    ana.add_argument("--resume", action="store_true",
                     help="resume from the checkpoint at --checkpoint "
                          "PATH when it matches this net and "
                          "configuration; any damaged or mismatched "
                          "checkpoint falls back to a cold start "
                          "(reported, never fatal)")
    ana.add_argument("--node-budget", type=int, default=None,
                     metavar="N",
                     help="abort at a safe point once the manager holds "
                          "more than N live nodes even after forced GC "
                          "and reordering; the run returns a partial "
                          "result (exit code 3) and, with --checkpoint, "
                          "a final checkpoint to resume from")
    ana.add_argument("--deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="wall-clock budget for a single-engine run, "
                          "checked at safe points; past it the run "
                          "returns a partial result (exit code 3); "
                          "for the portfolio race use --timeout / "
                          "--member-timeout instead")
    ana.add_argument("--k-bound", type=int, default=None, metavar="K",
                     help="analyze the net as k-bounded with "
                          "ceil(log2(k+1)) count bits per place (the "
                          "paper's unsafe-net extension; BDD backend "
                          "only)")
    ana.add_argument("--no-reorder", action="store_true",
                     help="disable dynamic variable reordering (the BDD "
                          "and ZDD managers share one sifting kernel and "
                          "both sift at traversal safe points by default; "
                          "ZDD relational engines sift in current/next "
                          "pair groups)")
    ana.add_argument("--deadlocks", action="store_true",
                     help="also report reachable deadlocks")

    batch = sub.add_parser(
        "batch", help="run a JSONL request batch through the analysis "
                      "service (cache + dedupe + worker pool)")
    batch.add_argument("requests", metavar="requests.jsonl",
                       help="request file, one JSON object per line "
                            "('-' reads stdin)")
    batch.add_argument("-o", "--output", default=None,
                       help="response file (stdout when omitted)")
    _add_service_arguments(batch)
    batch.add_argument("--kill-worker-after", type=int, default=None,
                       metavar="N",
                       help="fault-injection hook: after N responses "
                            "have been emitted, SIGKILL one live pool "
                            "worker (the batch must still complete via "
                            "respawn or serial fallback)")

    serve = sub.add_parser(
        "serve", help="long-lived service loop: JSONL requests on "
                      "stdin, JSON responses on stdout, until EOF")
    _add_service_arguments(serve)
    return parser


def _cmd_generate(args) -> int:
    from .petri.parser import dumps
    if args.family == "jjreg":
        net = jj_register(args.variant, bits=args.size)
    else:
        net = FAMILIES[args.family](args.size)
    text = dumps(net)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {net.name!r} ({len(net.places)} places, "
              f"{len(net.transitions)} transitions) to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_info(args) -> int:
    from .petri.classes import classify
    from .petri.invariants import (invariant_support,
                                   minimal_semipositive_invariants,
                                   minimal_semipositive_t_invariants)
    from .petri.parser import load
    net = load(args.net)
    net.validate()
    print(f"net {net.name!r}: {len(net.places)} places, "
          f"{len(net.transitions)} transitions, "
          f"{sum(1 for _ in net.arcs())} arcs")
    print(f"initial marking: {net.initial_marking!r}")
    for label, value in classify(net).items():
        print(f"  {label}: {value}")
    components = find_smcs(net)
    covered = set()
    for component in components:
        covered.update(component.places)
    print(f"single-token SMCs: {len(components)} "
          f"(covering {len(covered)}/{len(net.places)} places)")
    for component in components:
        print(f"  {component!r}")
    if args.invariants:
        print("minimal semi-positive P-invariants:")
        for weights in minimal_semipositive_invariants(net):
            print(f"  {invariant_support(net, weights)}")
        print("minimal semi-positive T-invariants:")
        for weights in minimal_semipositive_t_invariants(net):
            support = tuple(t for t, w in zip(net.transitions, weights)
                            if w > 0)
            print(f"  {support}")
    return 0


def _cmd_encode(args) -> int:
    from .petri.parser import load
    net = load(args.net)
    encoding = SCHEMES[args.scheme](net)
    print(f"{args.scheme} encoding of {net.name!r}: "
          f"{encoding.num_variables} variables for "
          f"{len(net.places)} places")
    if hasattr(encoding, "components"):
        print(encoding_variable_summary(encoding))
    else:
        print(encoding.describe())
    return 0


def _resolve_analyze_net(args):
    """The analyzed net: a ``.pnet`` file or an in-process generator."""
    if args.net_file is not None and args.net is not None:
        raise SpecError("give either a net.pnet file or --net, not both")
    if args.net_file is not None:
        from .petri.parser import load
        return load(args.net_file)
    if args.net is None:
        raise SpecError("no net given: pass a net.pnet file or "
                        "--net FAMILY [--n SIZE]")
    if args.net == "figure1":
        return figure1_net()
    if args.n is None:
        raise SpecError(f"--net {args.net} needs a size (--n)")
    if args.net == "jjreg":
        return jj_register("a", bits=args.n)
    return FAMILIES[args.net](args.n)


def _cmd_analyze(args) -> int:
    try:
        net = _resolve_analyze_net(args)
        spec = AnalysisSpec.from_args(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.deadlocks and spec.engine_id != "functional":
        print("deadlocks: only supported with --engine bdd "
              "--image functional", file=sys.stderr)
        return 2
    # Inapplicable options come back as structured SpecWarning objects;
    # rendering them is the CLI's job, not the spec's.
    for warning in spec.warnings():
        print(f"warning: {warning.render()}", file=sys.stderr)
    analysis = Analysis(net, spec)
    try:
        result = analysis.run()
    # The clause looks the name up only once something is raised, so
    # the portfolio module loads only where its error is caught.
    except analysis_api.PortfolioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for failure in exc.failures:
            member = failure.member or "<queue>"
            print(f"  {member}: {failure.kind} — {failure.detail}",
                  file=sys.stderr)
        return 1
    # Every BDD run applies the scheme (the relational engines encode
    # with it too); only zdd and k-bounded build their own encoding.
    scheme = f"scheme={spec.scheme} " \
        if spec.backend == "bdd" and spec.k_bound is None else ""
    print(f"engine={spec.backend} {scheme}image={result.engine} "
          f"variables={result.variables} "
          f"markings={result.markings} "
          f"nodes={result.final_nodes} "
          f"peak={result.peak_nodes} "
          f"iterations={result.iterations} "
          f"time={result.seconds:.2f}s "
          f"spec={spec.semantic_fingerprint()}")
    resume = result.extras.get("resume")
    if resume is not None:
        if resume["status"] == "resumed":
            print(f"resume: continued from {resume['path']} at "
                  f"iteration {resume['iteration']}")
        else:
            print(f"resume: cold start ({resume['reason']}: "
                  f"{resume['error']})", file=sys.stderr)
    if spec.backend == "portfolio":
        race = result.extras["portfolio"]
        print(f"portfolio: winner={race['winner']} mode={race['mode']}")
        for member in race["members"]:
            clock = (f" {member['seconds']:.2f}s"
                     if member["seconds"] is not None else "")
            attempts = (f" (attempt {member['attempts']})"
                        if member.get("attempts", 1) > 1 else "")
            print(f"  {member['member']}: {member['outcome']}"
                  f"{clock}{attempts}")
        for retry in race.get("retries", ()):
            print(f"  {retry['member']}: retried after "
                  f"{retry['reason']} — resuming attempt "
                  f"{retry['attempt'] + 1} from {retry['checkpoint']}")
        for failure in race["failures"]:
            member = failure["member"] or "<queue>"
            print(f"  {member}: {failure['kind']} — {failure['detail']}")
    if result.status == "partial":
        budget = result.extras.get("budget", {})
        ladder = []
        if budget.get("gc_freed") is not None:
            ladder.append(f"gc freed {budget['gc_freed']}")
        if budget.get("reorder_forced"):
            ladder.append("forced reorder")
        tried = f" after {', '.join(ladder)}" if ladder else ""
        print(f"partial: {budget.get('kind', 'budget')} budget "
              f"exhausted{tried}; the marking count is a lower bound"
              + (f"; resume from {spec.checkpoint_path}"
                 if spec.checkpoint_path else ""),
              file=sys.stderr)
    if args.deadlocks:
        report = analysis.checker().find_deadlocks()
        if report.holds:
            print(f"deadlocks: {report.detail}; witness "
                  f"{sorted(report.witness.support)}")
        else:
            print("deadlocks: none reachable")
    return 3 if result.status == "partial" else 0


# ----------------------------------------------------------------------
# The service front ends: batch and serve
# ----------------------------------------------------------------------

def _request_net(request: Dict[str, Any]):
    """Resolve one request line's net: a ``.pnet`` path or a family."""
    if "net" in request:
        from .petri.parser import load
        return load(request["net"])
    family = request.get("family")
    if family == "figure1":
        return figure1_net()
    if family == "jjreg":
        return jj_register(request.get("variant", "a"),
                           bits=int(request["n"]))
    if family in FAMILIES:
        if "n" not in request:
            raise SpecError(f"family {family!r} needs a size ('n')")
        return FAMILIES[family](int(request["n"]))
    raise SpecError(
        f"request names no net: give 'net' (a .pnet path) or 'family' "
        f"(one of {sorted(FAMILIES) + ['figure1', 'jjreg']})")


def _parse_request(line: str, index: int):
    """One JSONL request line -> (id, net, spec)."""
    request = json.loads(line)
    if not isinstance(request, dict):
        raise SpecError("request line must be a JSON object")
    request_id = request.get("id", index)
    spec_fields = request.get("spec") or {}
    if not isinstance(spec_fields, dict):
        raise SpecError("'spec' must be a JSON object of field "
                        "overrides")
    return request_id, _request_net(request), \
        AnalysisSpec.from_dict(spec_fields)


def _request_line_id(line: str, index: int):
    """The id a failed request line should be reported under.

    The user-supplied ``"id"`` whenever the line parses as a JSON
    object carrying one — a missing net file or bad spec must not
    break request/response correlation — and the positional
    ``line-{index}`` fallback only when the JSON itself is unusable.
    """
    try:
        request = json.loads(line)
    except ValueError:
        return f"line-{index}"
    if isinstance(request, dict) and "id" in request:
        return request["id"]
    return f"line-{index}"


def _error_response(request_id, kind: str, detail: str) -> Dict[str, Any]:
    return {"id": request_id, "status": "error",
            "error": {"kind": kind, "detail": detail}}


def _resolve_response(request_id, handle) -> Dict[str, Any]:
    """Block on one handle; wrap the outcome in a response envelope.

    Service telemetry rides in the envelope, never inside ``result`` —
    a cache hit's payload stays bit-identical to the original solve's.
    """
    from .service import ServiceError
    try:
        payload = handle.result_dict()
    except ServiceError as exc:
        response = _error_response(request_id, exc.kind, str(exc))
        response["service"] = handle.info
        return response
    return {"id": request_id, "status": "ok", "service": handle.info,
            "result": payload}


def _kill_one_worker(service) -> Optional[int]:
    """SIGKILL one live pool worker (the batch fault-injection hook)."""
    import os
    import signal
    pids = service.pool.worker_pids()
    if not pids:
        return None
    os.kill(pids[0], signal.SIGKILL)
    return pids[0]


def _cmd_batch(args) -> int:
    from .service import AnalysisService
    if args.requests == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(args.requests, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    out = open(args.output, "w", encoding="utf-8") if args.output \
        else sys.stdout
    failed = 0
    try:
        with AnalysisService(cache_dir=args.cache_dir,
                             workers=args.workers,
                             checkpoint_dir=args.checkpoint_dir) \
                as service:
            # Submit everything first: duplicates within the batch
            # dedupe against the in-flight solve instead of waiting
            # for its cache entry.
            handles = []
            for index, line in enumerate(lines):
                if not line.strip():
                    continue
                try:
                    request_id, net, spec = _parse_request(line, index)
                except (ValueError, SpecError, OSError, KeyError) as exc:
                    error_id = _request_line_id(line, index)
                    handles.append((error_id, None,
                                    _error_response(
                                        error_id,
                                        type(exc).__name__, str(exc))))
                    continue
                try:
                    handles.append(
                        (request_id, service.submit(net, spec), None))
                except Exception as exc:
                    handles.append((request_id, None,
                                    _error_response(
                                        request_id, type(exc).__name__,
                                        str(exc))))
            if args.kill_worker_after == 0:
                _kill_one_worker(service)
            emitted = 0
            for request_id, handle, response in handles:
                if response is None:
                    response = _resolve_response(request_id, handle)
                if response["status"] != "ok":
                    failed += 1
                out.write(json.dumps(response, sort_keys=True) + "\n")
                out.flush()
                emitted += 1
                if args.kill_worker_after == emitted:
                    _kill_one_worker(service)
            stats = service.stats()
            print(f"batch: {emitted} responses, {failed} failed; "
                  f"cache hits {stats['cache_hits']} "
                  f"(memory {stats['cache']['hits_memory']}, "
                  f"disk {stats['cache']['hits_disk']}), "
                  f"dedup {stats['dedup_hits']}, "
                  f"pool solves {stats['pool_solves']}, "
                  f"serial solves {stats['serial_solves']}, "
                  f"pool mode {stats['pool']['mode']}",
                  file=sys.stderr)
    finally:
        if out is not sys.stdout:
            out.close()
    return 1 if failed else 0


def _cmd_serve(args) -> int:
    from .service import AnalysisService
    failed = 0
    with AnalysisService(cache_dir=args.cache_dir, workers=args.workers,
                         checkpoint_dir=args.checkpoint_dir) as service:
        for index, line in enumerate(sys.stdin):
            if not line.strip():
                continue
            try:
                request_id, net, spec = _parse_request(line, index)
                response = _resolve_response(request_id,
                                             service.submit(net, spec))
            except (ValueError, SpecError, OSError, KeyError) as exc:
                response = _error_response(
                    _request_line_id(line, index),
                    type(exc).__name__, str(exc))
            if response["status"] != "ok":
                failed += 1
            sys.stdout.write(json.dumps(response, sort_keys=True) + "\n")
            sys.stdout.flush()
        stats = service.stats()
        print(f"serve: {stats['submits']} requests, {failed} failed; "
              f"cache hits {stats['cache_hits']}, "
              f"dedup {stats['dedup_hits']}", file=sys.stderr)
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "info": _cmd_info,
        "encode": _cmd_encode,
        "analyze": _cmd_analyze,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
