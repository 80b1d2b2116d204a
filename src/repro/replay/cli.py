"""CLI faces of the time-travel debugger: ``replay`` and ``live``.

Installed under ``dse-experiments``::

    # record a run, save the manifest, then jump to a simulated instant
    dse-experiments replay --workload gauss-seidel --record run.replay \\
        --at 0.002

    # re-load a manifest and jump to the worst p999 outlier's moment
    dse-experiments replay --load run.replay --worst api.gm_read

    # seek, then resume to completion and assert bit-identity
    dse-experiments replay --at 0.001 --resume

    # REPL-ish inspection (state / queues / gmem / spans / step / ...)
    dse-experiments replay --at 0.001 --interactive

    # stream a run's vitals as JSON lines while it executes
    dse-experiments live --workload gauss-seidel --out live.jsonl --every 0.001
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import ConfigurationError, ReplayError, ReproError
from ..experiments.cli import PLATFORM, PROCESSORS, SEED, cluster_config, command
from .config import ReplayConfig
from .recording import Recording, WorkloadSpec, record
from .session import ReplaySession

__all__ = ["replay_main", "live_main"]

#: workload key -> replayable WorkloadSpec (ck-style entries also support
#: the snapshot-restore fast path)
_REPLAY_WORKLOADS = {
    "gauss-seidel": WorkloadSpec(
        module="repro.resilience.workloads",
        attr="resilient_gauss_seidel",
        args=(48, 3, 7, True),
        ck_style=True,
        label="gauss-seidel",
    ),
    "knights-tour": WorkloadSpec(
        module="repro.apps.knights_tour",
        attr="knights_tour_worker",
        args=(6,),
        label="knights-tour",
    ),
    "dct2": WorkloadSpec(
        module="repro.apps.dct2",
        attr="dct2_worker",
        args=(32, 8, 0.25, 11, False),
        label="dct2",
    ),
}

_CLUSTER_FLAGS = (PROCESSORS, PLATFORM, SEED)


def _print_recording(recording: Recording) -> None:
    final = recording.final
    kept = [(s.seq, s.time) for s in recording.slots]
    print(
        f"recorded: elapsed {final['elapsed']:.6f}s simulated, "
        f"end t={final['end_time']:.6f}s, {final['sim_events']} events"
    )
    print(
        f"checkpoint ring: {len(recording.waypoints)} commits, "
        f"{len(recording.slots)} retained "
        f"{[f's{q} @{t:.5f}' for q, t in kept]}, "
        f"{recording.evictions} evicted"
    )
    print(
        f"spans: {len(recording.spans)} recorded"
        + (f" ({recording.spans_dropped} dropped)" if recording.spans_dropped else "")
    )
    if not recording.spans:
        print(
            "hint: no spans were recorded, so --span/--worst cannot anchor "
            "a seek — drop --no-obs to record spans"
        )


def _print_state(session: ReplaySession) -> None:
    state = session.state()
    nxt = state["next_event_time"]
    nxt_text = "none (drained)" if nxt == float("inf") else f"t={nxt:.9g}"
    print(
        f"at t={state['now']:.9g} / {state['end_time']:.9g} "
        f"[{state['mode']}] "
        f"{state['events_processed']} events processed, next {nxt_text}"
        + (" — run complete" if state["done"] else "")
    )


def _print_queues(session: ReplaySession, limit: int = 10) -> None:
    rows = session.queues(limit)
    if not rows:
        print("event queue: empty")
        return
    print(f"event queue (next {len(rows)}):")
    for when, priority, seq, label in rows:
        print(f"  t={when:.9f} prio={priority} seq={seq} {label}")


def _print_tail(session: ReplaySession, limit: int = 8) -> None:
    tail = session.tail()
    if not tail:
        print("event-log tail: empty")
        return
    print(f"event-log tail (last {min(limit, len(tail))} of {len(tail)}):")
    for entry in tail[-limit:]:
        print(f"  t={entry['time']:.9f} {entry['kind']} {entry['detail']}")


def _print_spans(session: ReplaySession, name: Optional[str] = None) -> None:
    spans = session.spans(name=name, window=0.0005, limit=10)
    if not spans:
        print("no recorded spans near this instant")
        return
    print(f"spans near t={session.now:.9g}:")
    for s in spans:
        end = s["end"] if s["end"] is not None else s["start"]
        print(
            f"  #{s['id']} {s['name']} [{s['start']:.9f}, {end:.9f}] "
            f"({(end - s['start']) * 1e6:.1f}us) pid={s['pid']} tid={s['tid']}"
        )


def _interact(session: ReplaySession) -> None:
    """The REPL-ish inspector loop (stdin commands, one per line)."""
    print(
        "commands: state | queues [n] | gmem RANK [OFF [N]] | spans [NAME] "
        "| tail | seek T | step [N] | continue-to T | finish | quit"
    )
    while True:
        try:
            line = input("(replay) ").strip()
        except EOFError:
            return
        if not line:
            continue
        cmd, *rest = line.split()
        try:
            if cmd in ("quit", "exit", "q"):
                return
            elif cmd == "state":
                _print_state(session)
            elif cmd == "queues":
                _print_queues(session, int(rest[0]) if rest else 10)
            elif cmd == "gmem":
                rank = int(rest[0]) if rest else 0
                offset = int(rest[1]) if len(rest) > 1 else 0
                nwords = int(rest[2]) if len(rest) > 2 else 8
                print(session.gmem(rank, offset, nwords))
            elif cmd == "spans":
                _print_spans(session, rest[0] if rest else None)
            elif cmd == "tail":
                _print_tail(session)
            elif cmd == "seek":
                session.seek(float(rest[0]))
                _print_state(session)
            elif cmd == "step":
                ran = session.step(int(rest[0]) if rest else 1)
                print(f"stepped {ran} event(s)")
                _print_state(session)
            elif cmd == "continue-to":
                session.continue_to(float(rest[0]))
                _print_state(session)
            elif cmd == "finish":
                result = session.finish()
                print(
                    f"finished: elapsed {result.elapsed:.6f}s simulated "
                    "(bit-identical to the recording)"
                )
            else:
                print(f"unknown command {cmd!r}")
        except (ReproError, ValueError, IndexError) as exc:
            print(f"error: {exc}")


def replay_main(argv: List[str]) -> int:
    parser = command(
        "replay",
        "Record a workload, then seek/inspect/resume any simulated instant "
        "of it (see docs/debugging.md).",
        _CLUSTER_FLAGS,
        workloads=_REPLAY_WORKLOADS,
        seed=1999,
    )
    parser.add_argument(
        "--ring", type=int, default=4, help="checkpoint ring size (default 4)"
    )
    parser.add_argument(
        "--interval", type=float, default=0.0,
        help="min simulated seconds between retained snapshots (default: all)",
    )
    parser.add_argument(
        "--charge-bps", type=float, default=0.0,
        help="model checkpoint I/O at this bandwidth (default: free)",
    )
    parser.add_argument(
        "--no-obs", action="store_true",
        help="skip span recording (disables --span/--worst anchors)",
    )
    parser.add_argument(
        "--record", metavar="PATH", default=None,
        help="save the recording manifest to PATH",
    )
    parser.add_argument(
        "--load", metavar="PATH", default=None,
        help="load a recording manifest instead of recording fresh",
    )
    parser.add_argument(
        "--at", type=float, default=None, help="seek to this simulated time"
    )
    parser.add_argument(
        "--span", type=int, default=None, help="seek to this span id's start"
    )
    parser.add_argument(
        "--worst", metavar="NAME", default=None,
        help="seek to the longest recorded span with this name (p999 jump)",
    )
    parser.add_argument(
        "--restore", action="store_true",
        help="jump via snapshot restore (solution-exact) instead of "
        "deterministic re-execution (timing-exact)",
    )
    parser.add_argument(
        "--step", type=int, default=0, help="then process N more events"
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue to completion and verify bit-identity",
    )
    parser.add_argument(
        "--no-verify", action="store_true",
        help="skip the bit-identity check on --resume",
    )
    parser.add_argument(
        "--interactive", action="store_true", help="drop into the inspector REPL"
    )
    args = parser.parse_args(argv)

    try:
        if args.load:
            recording = Recording.load(args.load)
            print(f"loaded {args.load}")
        else:
            replay = ReplayConfig(
                ring_size=args.ring,
                snapshot_interval=args.interval,
                charge_bps=args.charge_bps,
            )
            config = cluster_config(
                args, seed=args.seed, obs_trace=not args.no_obs, replay=replay
            )
            recording = record(config, spec=_REPLAY_WORKLOADS[args.workload])
        _print_recording(recording)
        if args.record:
            recording.save(args.record)
            print(f"wrote manifest to {args.record}")

        session = ReplaySession(recording)
        target: Optional[float] = args.at
        if args.worst is not None:
            worst = recording.worst_span(args.worst)
            end = worst["end"] if worst["end"] is not None else worst["start"]
            print(
                f"worst {args.worst!r}: span #{worst['id']} "
                f"[{worst['start']:.9f}, {end:.9f}] "
                f"({(end - worst['start']) * 1e6:.1f}us)"
            )
            anchor = session.seek_span(worst["id"])
            print(
                f"anchored at snapshot "
                f"{'s%d' % anchor.slot_seq if anchor.slot_seq is not None else '(none)'}"
                f" + {anchor.offset:.9f}s"
            )
            target = None
        elif args.span is not None:
            anchor = session.seek_span(args.span)
            print(
                f"span #{anchor.span_id} {anchor.name!r} starts at "
                f"t={anchor.time:.9f} (snapshot "
                f"{'s%d' % anchor.slot_seq if anchor.slot_seq is not None else '(none)'}"
                f" + {anchor.offset:.9f}s)"
            )
            target = None
        if target is not None:
            if args.restore:
                session.restore(at=target)
            else:
                session.seek(target)
        elif args.span is None and args.worst is None and (
            args.step or args.resume or args.interactive
        ):
            session.seek(0.0)

        if session._launched is not None:
            _print_state(session)
            _print_queues(session, 5)
            _print_tail(session, 5)
        if args.step:
            ran = session.step(args.step)
            print(f"stepped {ran} event(s)")
            _print_state(session)
        if args.interactive:
            _interact(session)
        if args.resume:
            result = session.finish(verify=not args.no_verify)
            suffix = (
                "" if args.no_verify or session.restored
                else " — bit-identical to the recording"
            )
            print(f"resumed to completion: elapsed {result.elapsed:.6f}s{suffix}")
    except ReplayError as exc:
        # reported on stderr, exit 2, by the dse-experiments dispatcher
        raise ConfigurationError(str(exc)) from exc
    return 0


def live_main(argv: List[str]) -> int:
    from .live import LiveSink, live_run

    parser = command(
        "live",
        "Run a workload while streaming metrics/topology/span summaries as "
        "JSON lines (file and/or local TCP).",
        _CLUSTER_FLAGS,
        workloads=_REPLAY_WORKLOADS,
        seed=1999,
    )
    parser.add_argument(
        "--out", default=None, help="JSONL output path (tail -f friendly)"
    )
    parser.add_argument(
        "--port", type=int, default=None,
        help="also serve the stream to TCP clients on 127.0.0.1:PORT "
        "(0 picks a free port)",
    )
    parser.add_argument(
        "--every", type=float, default=0.001,
        help="sample period in simulated seconds (default 1 ms)",
    )
    parser.add_argument(
        "--no-obs", action="store_true", help="skip span recording"
    )
    args = parser.parse_args(argv)
    if not args.out and args.port is None:
        parser.error("nothing to stream to: pass --out PATH and/or --port N")

    spec = _REPLAY_WORKLOADS[args.workload]
    config = cluster_config(
        args, seed=args.seed, obs_trace=not args.no_obs, replay=ReplayConfig()
    )
    sink = LiveSink(path=args.out, port=args.port)
    if sink.port is not None:
        print(f"serving live stream on 127.0.0.1:{sink.port}")
    try:
        result = live_run(
            config, spec.make_entry(None), args=spec.args,
            sink=sink, every=args.every,
        )
    finally:
        sink.close()
    print(
        f"{args.workload} p={args.processors}: elapsed {result.elapsed:.6f}s "
        f"simulated, {sink.lines} stream lines"
        + (f" -> {args.out}" if args.out else "")
    )
    return 0
