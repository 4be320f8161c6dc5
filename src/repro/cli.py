"""Command-line interface.

``python -m repro <command>`` (or the ``repro`` console script) exposes
the library's main workflows without writing Python:

=============  ==========================================================
command        what it does
=============  ==========================================================
``info``       show the device registry (Table 1) and the configuration
``run``        regenerate study artifacts (tables/figures) at any scale
``warm``       pre-populate the content-addressed artifact store
``acquire``    synthesize a subject's impression → INCITS 378 file
``inspect``    decode an INCITS 378 file and summarize its minutiae
``match``      match two INCITS 378 files and print the score
``predict``    answer the paper's FNM-probability question for a pair
``stats``      pretty-print a run manifest written by ``run``
``serve``      run the online verification/identification HTTP server
``top``        live per-endpoint dashboard for a running ``serve``
``enroll``     add a template to a serving gallery (file or synthesized)
``keys``       mint/list/revoke API keys for ``serve --keys``
=============  ==========================================================

Every command honours ``REPRO_SUBJECTS`` / ``REPRO_WORKERS`` plus the
explicit ``--subjects`` / ``--workers`` flags (flags win).  Observability
switches: ``--log-level`` (or ``REPRO_LOG_LEVEL``) turns on JSON logs,
and ``run --manifest-out FILE`` enables telemetry for the run and writes
the span/counter manifest to ``FILE`` (see ``docs/observability.md``).

Failures print one ``repro: <ErrorType>: <message>`` line to stderr and
exit with a family-specific nonzero code (see :data:`EXIT_CODE_BY_ERROR`)
so scripts and CI can branch on *what* failed without parsing
tracebacks; ``run`` additionally offers ``--resume`` (continue an
interrupted run from its chunk checkpoints) and ``--no-fail-fast``
(record permanently failed batches as skips instead of aborting) — see
``docs/robustness.md``.
"""

from __future__ import annotations

import os
import sys

#: Variables through which an operator picks numpy's BLAS thread count;
#: the CLI's one-thread default yields to any of them.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _default_blas_threads() -> str:
    """Default numpy's BLAS to one thread unless the operator chose.

    OpenBLAS reads its thread count once, when numpy loads, so this runs
    before this module imports numpy; the workers ``run`` and ``serve``
    fork inherit the setting.  On small hosts idle BLAS threads only
    compete with the event loop and the matcher (``docs/performance.md``,
    "BLAS threads").  An empty variable counts as unset, as it does for
    OpenBLAS.  Returns the effective setting as ``serve`` reports it.
    """
    for name in BLAS_THREAD_VARIABLES:
        value = os.environ.get(name)
        if value:
            return value if name == "OPENBLAS_NUM_THREADS" else f"{name}={value}"
    if "numpy" in sys.modules:
        # Too late to reach this process's BLAS; say so rather than claim it.
        return "default (numpy loaded first)"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    return "1"


#: The BLAS thread setting this process runs with.
BLAS_THREADS = _default_blas_threads()

# Everything below may load numpy, so it follows the default above.
import argparse
import functools
from pathlib import Path
from typing import List, Optional

import numpy as np

from . import __version__
from .api import StudyConfig
from .runtime.errors import (
    AcquisitionError,
    CacheError,
    CalibrationError,
    ConfigurationError,
    MatcherError,
    PermanentError,
    ReproError,
    SynthesisError,
    TemplateFormatError,
    TransientError,
)

#: Exit code per failure family; first match wins, so subclasses must
#: precede their bases (every code here is distinct from 0 and from
#: argparse's own 2-adjacent usage errors only by the stderr line).
EXIT_CODE_BY_ERROR = (
    (ConfigurationError, 2),
    (TemplateFormatError, 3),
    (MatcherError, 4),
    (AcquisitionError, 5),
    (SynthesisError, 5),
    (CalibrationError, 6),
    (CacheError, 7),
    (PermanentError, 8),
    (TransientError, 9),
)

#: Exit code of a :class:`ReproError` outside every family above.
GENERIC_ERROR_EXIT = 10


def exit_code_for(exc: ReproError) -> int:
    """The process exit code one library failure maps to."""
    for error_type, code in EXIT_CODE_BY_ERROR:
        if isinstance(exc, error_type):
            return code
    return GENERIC_ERROR_EXIT

#: Artifact names accepted by ``run --only``.
ARTIFACTS = (
    "fig1", "table1", "table3", "fig2", "fig3", "fig4",
    "table4", "table5", "table6", "fig5",
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Interoperability in Fingerprint Recognition: "
            "A Large-Scale Empirical Study' (DSN 2013)."
        ),
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--log-level", default=None,
        choices=("debug", "info", "warning", "error"),
        help="emit structured JSON logs to stderr at this level "
             "(default: REPRO_LOG_LEVEL, else off)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show devices (Table 1) and configuration")

    run = sub.add_parser("run", help="regenerate study tables and figures")
    run.add_argument("--subjects", type=int, default=None,
                     help="population size (default 48; paper scale 494)")
    run.add_argument("--workers", type=int, default=None,
                     help="process-pool width for score generation")
    run.add_argument("--seed", type=int, default=None, help="master seed")
    run.add_argument("--cache-dir", default=".repro_cache",
                     help="score cache directory ('' disables caching)")
    run.add_argument("--artifact-dir", default=None,
                     help="content-addressed artifact store for acquired "
                          "impressions; warm runs skip acquisition entirely "
                          "(default: off; '' also disables)")
    run.add_argument("--only", choices=ARTIFACTS, action="append",
                     help="limit output to specific artifacts (repeatable)")
    run.add_argument("--out", default=None,
                     help="also write each artifact to <OUT>/<name>.txt")
    run.add_argument("--manifest-out", default=None,
                     help="enable telemetry and write the run manifest "
                          "(spans, counters, cache stats) to this JSON file")
    run.add_argument("--resume", action="store_true",
                     help="resume an interrupted run from its chunk "
                          "checkpoints (requires the same --cache-dir; "
                          "a completed run makes this a no-op)")
    run.add_argument("--fail-fast", dest="fail_fast", action="store_true",
                     default=True,
                     help="abort on the first permanently failed batch "
                          "(default)")
    run.add_argument("--no-fail-fast", dest="fail_fast",
                     action="store_false",
                     help="skip permanently failed batches instead of "
                          "aborting; skips are counted in the manifest "
                          "and the affected score rows are absent")

    stats = sub.add_parser(
        "stats", help="summarize a run manifest written by 'run --manifest-out'"
    )
    stats.add_argument("manifest", help="the manifest .json file")

    warm = sub.add_parser(
        "warm",
        help="pre-populate the artifact store so later runs skip acquisition",
    )
    warm.add_argument("--subjects", type=int, default=None,
                      help="population size (default 48; paper scale 494)")
    warm.add_argument("--workers", type=int, default=None,
                      help="process-pool width for parallel acquisition")
    warm.add_argument("--seed", type=int, default=None, help="master seed")
    warm.add_argument("--artifact-dir", default=".repro_artifacts",
                      help="artifact store directory to populate")
    warm.add_argument("--clear", action="store_true",
                      help="drop every existing entry before warming")

    acquire = sub.add_parser(
        "acquire", help="synthesize an impression and write an INCITS 378 file"
    )
    acquire.add_argument("--subject", type=int, default=0, help="subject id")
    acquire.add_argument("--device", default="D0", help="capture device (D0..D4)")
    acquire.add_argument("--set", dest="set_index", type=int, default=0,
                         choices=(0, 1), help="impression set")
    acquire.add_argument("--finger", default="right_index",
                         choices=("right_index", "right_middle"))
    acquire.add_argument("--seed", type=int, default=None, help="master seed")
    acquire.add_argument("--out", required=True, help="output .fmr path")

    inspect = sub.add_parser("inspect", help="decode and summarize an INCITS file")
    inspect.add_argument("path", help="the .fmr file")

    match = sub.add_parser("match", help="match two INCITS 378 template files")
    match.add_argument("probe", help="probe .fmr file")
    match.add_argument("gallery", help="gallery .fmr file")
    match.add_argument("--matcher", default="bioengine",
                       choices=("bioengine", "ridgecount"))

    render = sub.add_parser(
        "render", help="render a subject's finger as a PGM ridge image"
    )
    render.add_argument("--subject", type=int, default=0)
    render.add_argument("--finger", default="right_index",
                        choices=("right_index", "right_middle"))
    render.add_argument("--seed", type=int, default=None,
                        help="master seed (selects the subject's identity)")
    render.add_argument("--render-seed", type=int, default=0,
                        help="impression seed (speckle/noise); vary this to "
                             "get a second impression of the same finger")
    render.add_argument("--moisture", type=float, default=0.5,
                        help="0=soaked, 0.5=ideal, 1=bone dry")
    render.add_argument("--pixels-per-mm", type=float, default=8.0)
    render.add_argument("--out", required=True, help="output .pgm path")

    extract = sub.add_parser(
        "extract", help="extract a minutiae template from a PGM ridge image"
    )
    extract.add_argument("image", help="input .pgm ridge image")
    extract.add_argument("--pixels-per-mm", type=float, default=8.0)
    extract.add_argument("--out", required=True, help="output .fmr path")

    dataset = sub.add_parser(
        "dataset", help="acquire a collection and print its summary statistics"
    )
    dataset.add_argument("--subjects", type=int, default=None)
    dataset.add_argument("--workers", type=int, default=None)
    dataset.add_argument("--seed", type=int, default=None)

    predict = sub.add_parser(
        "predict",
        help="P(false non-match) for a (gallery device, probe device) pair",
    )
    predict.add_argument("gallery_device", help="enrollment device (D0..D4)")
    predict.add_argument("probe_device", help="verification device (D0..D4)")
    predict.add_argument("--subjects", type=int, default=None)
    predict.add_argument("--workers", type=int, default=None)
    predict.add_argument("--fmr", type=float, default=1e-3,
                         help="fixed FMR of the operating point")
    predict.add_argument("--cache-dir", default=".repro_cache")

    serve = sub.add_parser(
        "serve", help="run the online verification/identification server"
    )
    serve.add_argument("--gallery-dir", default=".repro_gallery",
                       help="persistent gallery root (per-device shards)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8799,
                       help="listen port (0 binds an ephemeral port)")
    serve.add_argument("--matcher", default="bioengine",
                       choices=("bioengine", "ridgecount"))
    serve.add_argument("--threshold", type=float, default=None,
                       help="accept/reject score threshold "
                            "(default: REPRO_SERVE_THRESHOLD, else 7.5)")
    serve.add_argument("--max-nfiq", type=int, default=4,
                       help="worst NFIQ level accepted at enrollment (1-5)")
    serve.add_argument("--max-batch", type=int, default=None,
                       help="micro-batch size cap (REPRO_SERVE_MAX_BATCH)")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="admission queue bound "
                            "(REPRO_SERVE_QUEUE_DEPTH); overflow answers 503")
    serve.add_argument("--no-batching", action="store_true",
                       help="disable cross-request micro-batching "
                            "(REPRO_SERVE_BATCHING=0)")
    serve.add_argument("--manifest-out", default=None,
                       help="enable telemetry and write a run manifest "
                            "(with the service rollup) on shutdown")
    serve.add_argument("--reqlog", default=None,
                       help="append one JSON line per request to this file "
                            "(REPRO_SERVE_REQLOG; size-rotated)")
    serve.add_argument("--slow-ms", type=float, default=None,
                       help="log requests slower than this at WARNING "
                            "with their full span timeline "
                            "(REPRO_SERVE_SLOW_MS)")
    serve.add_argument("--no-tracing", action="store_true",
                       help="disable per-request TraceContext propagation "
                            "(REPRO_SERVE_TRACING=0)")
    serve.add_argument("--identify-mode", default=None,
                       choices=("exact", "two_stage"),
                       help="default /identify search path: exhaustive "
                            "matcher or descriptor prefilter + rescoring "
                            "(REPRO_IDENTIFY_MODE, else exact)")
    serve.add_argument("--workers", type=int, default=None,
                       help="shard the gallery across N matcher worker "
                            "processes (0/1 keeps the in-process path; "
                            "default honours REPRO_SERVE_WORKERS)")
    serve.add_argument("--follow", default=None, metavar="WAL_DIR",
                       help="run as a read-only follower replica tailing "
                            "this write-ahead log directory (typically the "
                            "primary's <gallery-dir>/__wal__); writes are "
                            "rejected with the read_only error code")
    serve.add_argument("--candidate-k", type=int, default=None,
                       help="two-stage prefilter shortlist size "
                            "(REPRO_IDENTIFY_CANDIDATES, else 32)")
    serve.add_argument("--keys", default=None, metavar="KEYFILE",
                       help="enforce keyed access from this JSON keyfile "
                            "(REPRO_SERVE_KEYS); enables per-principal "
                            "rate limits and quotas")
    serve.add_argument("--no-auth", action="store_true",
                       help="serve open even when REPRO_SERVE_KEYS is set")

    keys = sub.add_parser(
        "keys", help="manage API keyfiles for repro serve --keys"
    )
    keys_sub = keys.add_subparsers(dest="keys_command", required=True)
    keys_generate = keys_sub.add_parser(
        "generate", help="mint a key and add its principal to a keyfile"
    )
    keys_generate.add_argument("--keys", required=True, metavar="KEYFILE",
                               help="keyfile to create or extend")
    keys_generate.add_argument("--principal", required=True,
                               help="caller name for stats/reqlog/limits")
    keys_generate.add_argument("--roles", default="read",
                               help="comma-separated subset of "
                                    "read,write,admin (default: read)")
    keys_list = keys_sub.add_parser(
        "list", help="show a keyfile's principals (never the secrets)"
    )
    keys_list.add_argument("--keys", required=True, metavar="KEYFILE")
    keys_revoke = keys_sub.add_parser(
        "revoke", help="remove one principal's entry from a keyfile"
    )
    keys_revoke.add_argument("--keys", required=True, metavar="KEYFILE")
    keys_revoke.add_argument("--principal", required=True)

    top = sub.add_parser(
        "top", help="live dashboard for a running repro serve instance"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=8799)
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--iterations", type=int, default=None,
                     help="stop after N frames (default: run until Ctrl-C)")
    top.add_argument("--no-clear", action="store_true",
                     help="append frames instead of redrawing in place")

    enroll = sub.add_parser(
        "enroll", help="enroll a template into a serving gallery"
    )
    enroll.add_argument("--gallery-dir", default=".repro_gallery",
                        help="persistent gallery root (created if missing)")
    enroll.add_argument("--identity", default=None,
                        help="identity to enroll under (default: template "
                             "file stem, or subject-<N> when synthesizing)")
    enroll.add_argument("--device", default=None,
                        help="gallery device shard (default: the capture "
                             "device when synthesizing, else 'default')")
    enroll.add_argument("--template", default=None,
                        help="INCITS 378 .fmr file to enroll; omit to "
                             "synthesize one with --subject/--capture-device")
    enroll.add_argument("--subject", type=int, default=0,
                        help="subject id for the synthesized path")
    enroll.add_argument("--capture-device", default="D0",
                        help="capture device for the synthesized path")
    enroll.add_argument("--set", dest="set_index", type=int, default=0,
                        choices=(0, 1), help="impression set")
    enroll.add_argument("--finger", default="right_index",
                        choices=("right_index", "right_middle"))
    enroll.add_argument("--seed", type=int, default=None, help="master seed")
    enroll.add_argument("--max-nfiq", type=int, default=4,
                        help="worst NFIQ level accepted (1-5)")
    return parser


def _config_from_args(args, default_subjects: int = 48) -> StudyConfig:
    defaults = dict(n_subjects=default_subjects, n_workers=4)
    config = StudyConfig.from_environment(**defaults)
    overrides = {}
    if getattr(args, "subjects", None) is not None:
        overrides["n_subjects"] = args.subjects
    if getattr(args, "workers", None) is not None:
        overrides["n_workers"] = args.workers
    if getattr(args, "seed", None) is not None:
        overrides["master_seed"] = args.seed
    cache_dir = getattr(args, "cache_dir", None)
    if cache_dir is not None:
        overrides["cache_dir"] = cache_dir or None
    artifact_dir = getattr(args, "artifact_dir", None)
    if artifact_dir is not None:
        overrides["artifact_dir"] = artifact_dir or None
    return config.replace(**overrides) if overrides else config


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_info(args, out) -> int:
    """`repro info`: device registry and default configuration."""
    from .api import DEVICE_PROFILES, render_table1

    print(f"repro {__version__}", file=out)
    print(render_table1(), file=out)
    ink = DEVICE_PROFILES["D4"]
    print(f"D4     {ink.model:<42}{ink.resolution_dpi:>5}", file=out)
    config = StudyConfig.from_environment()
    print(f"\ndefault config: {config.describe()}", file=out)
    return 0


def cmd_run(args, out) -> int:
    """`repro run`: regenerate study tables/figures at the chosen scale."""
    from .api import (
        DEVICE_ORDER,
        InteroperabilityStudy,
        kendall_matrix,
        low_score_quality_surface,
        quality_filtered_fnmr_matrix,
        render_figure1,
        render_figure4,
        render_figure5,
        render_fnmr_matrix,
        render_score_histograms,
        render_table1,
        render_table3,
        render_table4,
    )

    from .api import disable_telemetry, enable_telemetry, get_recorder

    config = _config_from_args(args)
    wanted = set(args.only) if args.only else set(ARTIFACTS)
    print(config.describe(), file=out)
    recorder = enable_telemetry() if args.manifest_out else get_recorder()
    progress_factory = None
    if sys.stderr.isatty():
        from .api import ProgressReporter

        progress_factory = lambda total, label: ProgressReporter(  # noqa: E731
            total=total, label=label
        )
    study = InteroperabilityStudy(
        config,
        progress_factory=progress_factory,
        resume=args.resume,
        fail_fast=args.fail_fast,
    )
    sets = study.score_sets()
    rule = "=" * 72
    out_dir = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    def emit(name: str, render) -> None:
        if name not in wanted:
            return
        with recorder.span(f"analysis.{name}"):
            text = render()
        print(rule, file=out)
        print(text, file=out)
        if out_dir is not None:
            (out_dir / f"{name}.txt").write_text(text + "\n")

    def fig4_text() -> str:
        per_probe = {
            probe: study.genuine_scores("D3", probe).scores
            for probe in DEVICE_ORDER
        }
        return render_figure4(per_probe, gallery_device="D3")

    emit("fig1", lambda: render_figure1(study.demographics()))
    emit("table1", render_table1)
    emit("table3", lambda: render_table3(sets, config.n_subjects))
    emit("fig2", lambda: render_score_histograms(
        sets["DMG"].for_pair("D0", "D0"),
        sets["DMI"].for_pair("D0", "D0"),
        "Figure 2: DMG vs DMI, Cross Match Guardian R2",
    ))
    emit("fig3", lambda: render_score_histograms(
        sets["DDMG"].for_pair("D0", "D1"),
        sets["DDMI"].for_pair("D0", "D1"),
        "Figure 3: DDMG vs DDMI, Guardian R2 vs digID Mini",
    ))
    emit("fig4", fig4_text)
    emit("table4", lambda: render_table4(kendall_matrix(study)))
    emit("table5", lambda: render_fnmr_matrix(
        study.fnmr_matrix(1e-4), "Table 5: FNMR at fixed FMR of 0.01%"
    ))
    emit("table6", lambda: render_fnmr_matrix(
        quality_filtered_fnmr_matrix(study),
        "Table 6: FNMR at fixed FMR of 0.1%, NFIQ < 3",
    ))
    emit("fig5", lambda: render_figure5(
        low_score_quality_surface(study, cross_device=False),
        low_score_quality_surface(study, cross_device=True),
    ))

    if args.manifest_out:
        from .api import RunManifest

        manifest = RunManifest.from_recorder(recorder, config)
        target = manifest.write(args.manifest_out)
        print(f"run manifest written to {target}", file=out)
        disable_telemetry()
    return 0


def cmd_acquire(args, out) -> int:
    """`repro acquire`: synthesize an impression into an INCITS 378 file."""
    from .api import (
        build_sensor,
        encode,
        FINGER_POSITION_CODES,
        Population,
        RecordMetadata,
    )

    config = _config_from_args(args, default_subjects=max(args.subject + 1, 2))
    if args.subject >= config.n_subjects:
        config = config.replace(n_subjects=args.subject + 1)
    population = Population(config)
    subject = population.subject(args.subject)
    sensor = build_sensor(args.device)
    from .api import SeedTree

    rng = SeedTree(config.master_seed).child("session", args.subject).generator(
        "impression", args.device, args.finger, args.set_index, "attempt", 0
    )
    impression = sensor.acquire(
        subject, args.finger, rng, set_index=args.set_index
    )
    metadata = RecordMetadata(
        capture_device_id=int(args.device[1]),
        finger_position=FINGER_POSITION_CODES[args.finger],
        finger_quality=max(1, 110 - impression.nfiq * 20),
    )
    Path(args.out).write_bytes(encode(impression.template, metadata))
    print(
        f"wrote {args.out}: subject {args.subject}, {args.device}, "
        f"{args.finger}, set {args.set_index} — "
        f"{len(impression.template)} minutiae, NFIQ {impression.nfiq}",
        file=out,
    )
    return 0


def cmd_inspect(args, out) -> int:
    """`repro inspect`: decode an INCITS 378 record and summarize it."""
    from .api import decode

    buffer = Path(args.path).read_bytes()
    template, metadata = decode(buffer)
    print(f"{args.path}: INCITS 378 record, {len(buffer)} bytes", file=out)
    print(
        f"  image {template.width_px} x {template.height_px} px @ "
        f"{template.resolution_dpi} dpi", file=out,
    )
    print(
        f"  finger position {metadata.finger_position}, "
        f"device id {metadata.capture_device_id}, "
        f"quality {metadata.finger_quality}", file=out,
    )
    print(f"  {len(template)} minutiae "
          f"({int((template.kinds() == 1).sum())} endings, "
          f"{int((template.kinds() == 2).sum())} bifurcations)", file=out)
    if len(template):
        qualities = template.qualities()
        print(f"  minutia quality: min {qualities.min()} "
              f"mean {qualities.mean():.0f} max {qualities.max()}", file=out)
    return 0


def cmd_match(args, out) -> int:
    """`repro match`: score two INCITS 378 template files."""
    from .api import build_matcher, decode

    probe, __ = decode(Path(args.probe).read_bytes())
    gallery, __ = decode(Path(args.gallery).read_bytes())
    matcher = build_matcher(args.matcher)
    score = matcher.match(probe, gallery)
    print(f"similarity score: {score:.3f}", file=out)
    verdict = "likely same finger" if score >= 7.5 else "likely different fingers"
    print(f"verdict at the study's operating threshold (7.5): {verdict}", file=out)
    return 0


def cmd_predict(args, out) -> int:
    """`repro predict`: the paper's FNM-probability question for a pair."""
    from .api import FnmrPredictor, InteroperabilityStudy

    config = _config_from_args(args)
    study = InteroperabilityStudy(config)
    predictor = FnmrPredictor().fit_from_study(study, target_fmr=args.fmr)
    prediction = predictor.predict(args.gallery_device, args.probe_device)
    print(
        f"P(false non-match | enroll {args.gallery_device}, "
        f"verify {args.probe_device}) = {prediction.probability:.4f}",
        file=out,
    )
    print(
        f"95% credible interval [{prediction.low:.4f}, {prediction.high:.4f}] "
        f"from {prediction.failures}/{prediction.trials} observed failures "
        f"at FMR {args.fmr:g}",
        file=out,
    )
    return 0


def cmd_render(args, out) -> int:
    """`repro render`: synthesize a finger and write its ridge image."""
    from .api import (
        Population,
        render_finger,
        RenderSettings,
        to_uint8,
        write_pgm,
    )

    config = _config_from_args(args, default_subjects=max(args.subject + 1, 2))
    if args.subject >= config.n_subjects:
        config = config.replace(n_subjects=args.subject + 1)
    finger = Population(config).subject(args.subject).finger(args.finger)
    rendered = render_finger(
        finger,
        RenderSettings(
            pixels_per_mm=args.pixels_per_mm,
            moisture=args.moisture,
            noise_std=0.03,
            seed=args.render_seed,
        ),
    )
    write_pgm(to_uint8(rendered.image), Path(args.out))
    print(
        f"wrote {args.out}: subject {args.subject} {args.finger} "
        f"({finger.pattern.value}, {finger.n_minutiae} minutiae planted, "
        f"{rendered.image.shape[1]}x{rendered.image.shape[0]} px)",
        file=out,
    )
    return 0


def cmd_extract(args, out) -> int:
    """`repro extract`: image-domain minutiae extraction to INCITS 378."""
    from .api import encode, extract_template, read_pgm

    image = read_pgm(Path(args.image)).astype(np.float64) / 255.0
    template = extract_template(image, pixels_per_mm=args.pixels_per_mm)
    Path(args.out).write_bytes(encode(template))
    print(
        f"wrote {args.out}: {len(template)} minutiae extracted from {args.image}",
        file=out,
    )
    return 0


def cmd_dataset(args, out) -> int:
    """`repro dataset`: collection summary + habituation analysis."""
    from .api import (
        build_collection,
        render_collection_summary,
        render_habituation,
        summarize_collection,
    )

    config = _config_from_args(args, default_subjects=24)
    print(config.describe(), file=out)
    collection = build_collection(config)
    print(render_collection_summary(summarize_collection(collection)), file=out)
    print("", file=out)
    print(render_habituation(collection), file=out)
    return 0


def cmd_warm(args, out) -> int:
    """`repro warm`: pre-populate the artifact store for a configuration."""
    from .api import ArtifactStore, ProgressReporter, warm_artifacts

    config = _config_from_args(args)
    print(config.describe(), file=out)
    store = ArtifactStore(config.artifact_dir)
    if args.clear:
        removed = store.clear()
        print(f"cleared {removed} artifact entries", file=out)
    progress = None
    if sys.stderr.isatty():
        progress = ProgressReporter(total=config.n_subjects, label="warm")
    stats = warm_artifacts(config, progress=progress, artifacts=store)
    print(f"artifact store at {store.root}:", file=out)
    for tier, tier_stats in stats.items():
        print(
            f"  {tier:<12}{tier_stats['entries']:>8} entries"
            f"{tier_stats['bytes']:>14,} bytes",
            file=out,
        )
    return 0


def cmd_stats(args, out) -> int:
    """`repro stats`: validate and pretty-print a run manifest."""
    from .api import ConfigurationError, render_manifest, RunManifest

    try:
        manifest = RunManifest.load(args.manifest)
    except (OSError, ValueError) as exc:
        raise ConfigurationError(f"cannot read manifest: {exc}") from exc
    print(render_manifest(manifest), file=out)
    return 0


def _synthesize_template(args):
    """Acquire one synthetic impression (the ``enroll`` fallback path)."""
    from .api import build_sensor, Population, SeedTree

    config = _config_from_args(args, default_subjects=max(args.subject + 1, 2))
    if args.subject >= config.n_subjects:
        config = config.replace(n_subjects=args.subject + 1)
    subject = Population(config).subject(args.subject)
    sensor = build_sensor(args.capture_device)
    rng = SeedTree(config.master_seed).child("session", args.subject).generator(
        "impression", args.capture_device, args.finger, args.set_index,
        "attempt", 0,
    )
    return sensor.acquire(subject, args.finger, rng, set_index=args.set_index)


def cmd_enroll(args, out) -> int:
    """`repro enroll`: add one template to a persistent serving gallery."""
    from .api import decode
    from .service import GalleryIndex

    if args.template is not None:
        template, _metadata = decode(Path(args.template).read_bytes())
        identity = args.identity or Path(args.template).stem
        device = args.device or "default"
    else:
        template = _synthesize_template(args).template
        identity = args.identity or f"subject-{args.subject}"
        device = args.device or args.capture_device
    # Context-managed so the deferred descriptor-matrix flush and the
    # WAL checkpoint land before the process exits.
    with GalleryIndex(
        Path(args.gallery_dir), max_nfiq_level=args.max_nfiq
    ) as gallery:
        record = gallery.enroll(identity, template, device=device)
        enrolled = len(gallery)
    print(
        f"enrolled {record.identity!r} on device {record.device}: "
        f"{len(record.template)} minutiae, NFIQ {record.nfiq_level} "
        f"(utility {record.nfiq_utility:.3f}); "
        f"gallery now holds {enrolled} enrollments at {args.gallery_dir}",
        file=out,
    )
    return 0


def cmd_top(args, out) -> int:
    """`repro top`: live per-endpoint rates for a running server."""
    from .service import run_top

    return run_top(
        args.host,
        args.port,
        interval_s=args.interval,
        iterations=args.iterations,
        out=out,
        clear=not args.no_clear,
    )


def cmd_serve(args, out) -> int:
    """`repro serve`: host the gallery behind the async matching server."""
    import asyncio
    import signal

    from .api import build_matcher, disable_telemetry, enable_telemetry
    from .service import (
        BatchingConfig,
        GalleryIndex,
        RequestLog,
        VerificationServer,
    )

    from .service.auth import ApiKeyAuthenticator

    recorder = enable_telemetry() if args.manifest_out else None
    if args.no_auth:
        # False (not None) forces auth off even with REPRO_SERVE_KEYS set.
        auth: object = False
    elif args.keys is not None:
        auth = ApiKeyAuthenticator(Path(args.keys))
    else:
        auth = None  # the server falls back to REPRO_SERVE_KEYS
    overrides: dict = {}
    if args.max_batch is not None:
        overrides["max_batch"] = args.max_batch
    if args.queue_depth is not None:
        overrides["queue_depth"] = args.queue_depth
    if args.no_batching:
        overrides["enabled"] = False
    batching = BatchingConfig.from_environment(**overrides)
    gallery = GalleryIndex(
        Path(args.gallery_dir),
        max_nfiq_level=args.max_nfiq,
        readonly=args.follow is not None,
    )
    reqlog = (
        RequestLog(args.reqlog) if args.reqlog
        else RequestLog.from_environment()
    )
    server = VerificationServer(
        gallery,
        matcher=build_matcher(args.matcher),
        host=args.host,
        port=args.port,
        threshold=args.threshold,
        batching=batching,
        reqlog=reqlog,
        tracing=False if args.no_tracing else None,
        slow_ms=args.slow_ms,
        identify_mode=args.identify_mode,
        candidate_k=args.candidate_k,
        workers=args.workers,
        matcher_factory=functools.partial(build_matcher, args.matcher),
        follow=args.follow,
        auth=auth,
    )

    async def _run() -> None:
        await server.start()
        host, port = server.address
        print(
            f"repro service listening on http://{host}:{port} "
            f"({server.role}, "
            f"{len(gallery)} enrolled, threshold {server.threshold}, "
            f"batching {'on' if batching.enabled else 'off'}, "
            f"identify {server.identify_mode}, "
            f"workers {server.pool.workers if server.pool else 0}, "
            f"tracing {'on' if server.tracing else 'off'}, "
            f"auth {'on' if server.auth is not None else 'off'}, "
            f"blas threads {BLAS_THREADS}"
            + (f", reqlog {server.reqlog.path}" if server.reqlog else "")
            + ")",
            file=out, flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        serving = loop.create_task(server.serve_forever())
        await stop.wait()
        serving.cancel()
        await asyncio.gather(serving, return_exceptions=True)
        await server.stop()

    try:
        asyncio.run(_run())
    finally:
        if args.manifest_out and recorder is not None:
            from .api import RunManifest

            config = StudyConfig.from_environment()
            target = RunManifest.from_recorder(recorder, config).write(
                args.manifest_out
            )
            print(f"run manifest written to {target}", file=out)
            disable_telemetry()
    return 0


def cmd_keys(args, out) -> int:
    """`repro keys`: mint, list, and revoke API-keyfile entries.

    The secret is printed exactly once, at generation time; every other
    view shows only the ``rk_`` prefix.  Writes go through the same
    atomic replace the hot-reloading server expects, so rotating a live
    keyfile is safe.
    """
    from .service.auth import (
        ROLES,
        generate_key,
        load_keyfile,
        write_keyfile,
    )

    path = Path(args.keys)
    entries = load_keyfile(path)
    if args.keys_command == "generate":
        roles = [r.strip() for r in args.roles.split(",") if r.strip()]
        if not roles or any(role not in ROLES for role in roles):
            raise ConfigurationError(
                f"--roles must be a comma-separated subset of {ROLES}"
            )
        if any(e["principal"] == args.principal for e in entries):
            raise ConfigurationError(
                f"principal {args.principal!r} already exists in {path}; "
                "revoke it first to rotate its key"
            )
        key = generate_key()
        entries.append(
            {"principal": args.principal, "key": key, "roles": roles,
             "limits": {}}
        )
        write_keyfile(path, entries)
        print(f"{args.principal}: {key}", file=out)
        print(
            f"added {args.principal!r} ({','.join(roles)}) to {path}; "
            "the key is shown only this once",
            file=out,
        )
        return 0
    if args.keys_command == "list":
        if not entries:
            print(f"{path}: no keys", file=out)
            return 0
        for entry in entries:
            key = entry["key"]
            preview = key[:6] + "…" if len(key) > 6 else "…"
            print(
                f"{entry['principal']}  roles={','.join(entry['roles'])}  "
                f"key={preview}"
                + (f"  limits={entry['limits']}" if entry["limits"] else ""),
                file=out,
            )
        return 0
    # revoke
    remaining = [e for e in entries if e["principal"] != args.principal]
    if len(remaining) == len(entries):
        raise ConfigurationError(
            f"principal {args.principal!r} not found in {path}"
        )
    write_keyfile(path, remaining)
    print(
        f"revoked {args.principal!r} from {path} "
        f"({len(remaining)} remaining)",
        file=out,
    )
    return 0


_COMMANDS = {
    "info": cmd_info,
    "run": cmd_run,
    "acquire": cmd_acquire,
    "inspect": cmd_inspect,
    "match": cmd_match,
    "render": cmd_render,
    "extract": cmd_extract,
    "dataset": cmd_dataset,
    "predict": cmd_predict,
    "stats": cmd_stats,
    "warm": cmd_warm,
    "serve": cmd_serve,
    "top": cmd_top,
    "enroll": cmd_enroll,
    "keys": cmd_keys,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    if out is None:
        out = sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level or os.environ.get("REPRO_LOG_LEVEL"):
        from .api import configure_logging

        configure_logging(args.log_level)
    try:
        return _COMMANDS[args.command](args, out)
    except ReproError as exc:
        # One diagnostic line, one family-specific exit code — scripts
        # branch on $?, humans read stderr, nobody parses a traceback.
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
