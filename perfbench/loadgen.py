"""Open-loop load generator: a seeded arrival schedule and its runner.

The schedule is a pure function of the seed: jittered arrivals at a
fixed offered rate, each tagged with a request kind drawn from the mix
and a subject index.  The runner sends the schedule over at most two
connections from two threads, and times every request from when it was
*due*, so a stall shows up in the latency of every request it delays.

Two numbers describe the harness rather than the program:

* ``late`` — how long after its due time a request was sent although a
  connection was free (sleep overshoot, interpreter contention);
* ``conn_wait`` — how long a due request waited for one of the two
  connections (client-side backlog: the server was still busy).

A run whose lateness tail exceeds :data:`LATE_BOUND_MS` is invalid: the
generator, not the program, set its latencies.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from harness import tail

#: Bound on the generator's lateness tail (ms) for a run to be valid.
LATE_BOUND_MS = 20.0


@dataclass(frozen=True)
class Arrival:
    """One scheduled request."""

    index: int
    due: float  # seconds after the start of the run
    kind: str
    subject: int
    variant: int


def schedule(
    seed: int,
    rate: float,
    seconds: float,
    mix: Sequence[Tuple[str, float]],
    subjects: int,
    variants: int = 1,
) -> List[Arrival]:
    """``rate * seconds`` arrivals on a jittered grid, kinds drawn from ``mix``.

    Arrival ``i`` is due at ``(i + u) / rate`` with ``u`` uniform in
    [0, 1): gaps vary from 0 to two mean gaps, so requests do collide,
    but there are no long bursts, and every seed offers exactly the same
    number of requests.  (Poisson arrivals at the same rate made the
    median swing by a fifth between seeds on two cores.)
    ``mix`` is ``[(kind, weight), ...]``; ``subject`` is uniform over
    ``range(subjects)`` and ``variant`` over ``range(variants)`` (the
    workload decides what a variant means, e.g. which probe device).
    """
    rng = np.random.default_rng([seed, 0x10AD])
    count = int(round(rate * seconds))
    due = (np.arange(count) + rng.uniform(0.0, 1.0, size=count)) / rate
    kinds = [kind for kind, _ in mix]
    weights = np.asarray([w for _, w in mix], dtype=np.float64)
    picks = rng.choice(len(kinds), size=count, p=weights / weights.sum())
    subject = rng.integers(0, subjects, size=count)
    variant = rng.integers(0, variants, size=count)
    return [
        Arrival(i, float(due[i]), kinds[int(picks[i])], int(subject[i]),
                int(variant[i]))
        for i in range(count)
    ]


@dataclass
class Outcome:
    """What happened to one arrival."""

    arrival: Arrival
    sent: float = 0.0  # seconds after start
    done: float = 0.0
    late: float = 0.0
    conn_wait: float = 0.0
    ok: bool = False
    error: Optional[str] = None
    result: object = None
    extra: Dict[str, object] = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        """Due-to-done latency."""
        return 1000.0 * (self.done - self.arrival.due)

    @property
    def service_ms(self) -> float:
        """Send-to-done latency (what the server and the wire took)."""
        return 1000.0 * (self.done - self.sent)


def run_open_loop(
    arrivals: Sequence[Arrival],
    send: Callable[[int, Arrival, "Outcome"], object],
    connections: int = 2,
) -> List[Outcome]:
    """Drive ``arrivals`` on ``connections`` threads; one outcome each.

    ``send(connection, arrival, outcome)`` performs the request on the
    connection owned by that thread and returns the response; an
    exception marks the outcome failed.  Arrivals are taken in schedule
    order by whichever thread is free.
    """
    outcomes = [Outcome(a) for a in arrivals]
    cursor = [0]
    lock = threading.Lock()
    start = time.perf_counter()

    def worker(connection: int) -> None:
        while True:
            with lock:
                i = cursor[0]
                if i >= len(arrivals):
                    return
                cursor[0] += 1
            outcome = outcomes[i]
            picked = time.perf_counter() - start
            delay = arrivals[i].due - picked
            if delay > 0:
                time.sleep(delay)
                outcome.sent = time.perf_counter() - start
                outcome.late = max(0.0, outcome.sent - arrivals[i].due)
            else:
                outcome.sent = time.perf_counter() - start
                outcome.conn_wait = -delay
            try:
                outcome.result = send(connection, arrivals[i], outcome)
                outcome.ok = True
            except Exception as exc:  # noqa: BLE001 - a failed request is data
                outcome.error = f"{type(exc).__name__}: {exc}"
            outcome.done = time.perf_counter() - start

    threads = [
        threading.Thread(target=worker, args=(c,), name=f"loadgen-{c}")
        for c in range(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return outcomes


def harness_validity(outcomes: Sequence[Outcome]) -> Dict[str, object]:
    """Lateness and connection-wait tails, plus the validity verdict."""
    late_tail = tail([1000.0 * o.late for o in outcomes])
    return {
        "late_tail_ms": late_tail["value"],
        "late_tail_pct": late_tail["pct"],
        "conn_wait_tail_ms": tail([1000.0 * o.conn_wait for o in outcomes])["value"],
        "valid": late_tail["value"] <= LATE_BOUND_MS,
    }
