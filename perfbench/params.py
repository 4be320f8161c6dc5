"""Fixed workload parameters: sizes, offered rates and latency limits.

Every number that shapes a workload lives here, so a record's stamp can
carry the exact parameters it ran with.  ``SMOKE`` holds the small
sizes the benchmark's own tests use; they are never the measured sizes.
"""

from __future__ import annotations

#: One cold study at the CLI's default scale.
STUDY = {
    "subjects": 48,
    # Matcher-kernel probe: pairs sampled from each scenario's jobs.
    "probe_pairs_per_scenario": 60,
}

#: Mixed serving: verify / exact identify / enroll-then-delete.
SERVE_MIXED = {
    "subjects": 32,
    "gallery_devices": ["D0", "D1"],
    # Open-loop offered rate: 30 % of the closed-loop capacity of this
    # mix over two connections (80 req/s on a 2-CPU x86-64 box).  The
    # box's speed drifts by up to 1.7x over minutes; at 65 % of capacity
    # the queue amplified that into threefold swings of the median, and
    # at 20 % idle wake-ups made the median slower than at 40 %.
    # 19.9 req/s offers 498 requests in a 25 s run, so the tail rule
    # reports p95 with 25 samples beyond it; at 600 requests it reported
    # p98 with 12, whose spread between runs reached 27 %.
    "rate_per_s": 19.9,
    "mix": [
        ["verify_same", 0.35],
        ["verify_cross", 0.35],
        ["identify", 0.20],
        ["enroll", 0.10],
    ],
    # A request slower than its kind's limit (from due time) is not
    # goodput; a failed or refused request always misses.
    "latency_limit_ms": {"verify": 50.0, "identify": 150.0, "enroll": 50.0},
    "max_candidates": 10,
    "connections": 2,
}

#: Two-stage identify over a synthetic gallery of fingers x 2 devices.
IDENTIFY_SCALE = {
    # 2048 entries: set-up (enroll, then the server's reload) must stay
    # well under a minute on a slow minute of the box, because every
    # run pays it (4096 entries took 25-45 s).
    "fingers": 1024,
    "candidate_k": 8,
    # About a third of the closed-loop capacity on a slow hour of a
    # 2-CPU x86-64 box (an identify then took 70 ms of server time, 47 ms
    # of it the K rescorings, so about 14 req/s); at 10 req/s such an
    # hour put the queue at 70 % busy and moved the median by +-60 %
    # between runs.
    "rate_per_s": 4.0,
    "latency_limit_ms": {"identify": 150.0},
    "max_candidates": 5,
    "connections": 2,
    # Distinct probes per run (arrivals draw from them).
    "probes": 512,
}

#: Sizes for the benchmark's own tests (``--smoke``).
SMOKE = {
    "study": {"subjects": 6, "probe_pairs_per_scenario": 4},
    "serve_mixed": {"subjects": 6, "rate_per_s": 20.0},
    "identify_scale": {"fingers": 32, "probes": 16, "rate_per_s": 10.0},
}


def params_for(workload: str, smoke: bool) -> dict:
    """The parameters of one workload, with smoke overrides applied."""
    base = {
        "study": STUDY,
        "serve_mixed": SERVE_MIXED,
        "identify_scale": IDENTIFY_SCALE,
    }[workload]
    merged = dict(base)
    if smoke:
        merged.update(SMOKE[workload])
    return merged
