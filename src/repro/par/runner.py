"""High-level parallel runner and the fleet-campaign worker entrypoint.

:class:`ParallelRunner` is the convenience layer the benchmarks and the
CLI use: map a module-level function over payloads, get results back in
submission order, keep the pool's operational stats for the artifact's
``meta`` block.

:func:`fleet_campaign_task` is the canonical worker entrypoint — one
complete fleet campaign per task, built *inside* the worker from its
CAMPAIGN_META document (never shipped live objects), returning plain
dicts: the metrics document, span payloads and a registry snapshot.  Because the
campaign is seeded and the document serialization is deterministic, the
same payload produces the same dicts inline, in a worker, or in a worker
that crashed twice and was retried.
"""

from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.par.pool import PoolStats, Task, WorkerPool, func_ref


class ParallelRunner:
    """Order-preserving parallel map over module-level task functions."""

    def __init__(self, workers: int = 1, task_timeout_s: float = 300.0,
                 max_retries: int = 1, backoff_base_s: float = 0.05):
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.stats = PoolStats()

    def map_tasks(self, fn: Union[str, Callable], payloads: Sequence[Any],
                  labels: Optional[Sequence[str]] = None,
                  timeout_s: Optional[float] = None) -> List[Any]:
        """Run ``fn(payload)`` for every payload; results keep input order."""
        ref = func_ref(fn)
        if labels is not None and len(labels) != len(payloads):
            from repro.errors import ParError

            raise ParError(
                f"got {len(labels)} labels for {len(payloads)} payloads"
            )
        tasks = [
            Task(func=ref, payload=payload,
                 label=labels[index] if labels else f"{ref}#{index}",
                 timeout_s=timeout_s)
            for index, payload in enumerate(payloads)
        ]
        pool = WorkerPool(
            workers=self.workers,
            task_timeout_s=self.task_timeout_s,
            max_retries=self.max_retries,
            backoff_base_s=self.backoff_base_s,
        )
        try:
            return pool.run(tasks)
        finally:
            self.stats = pool.stats


# -- the fleet campaign as a worker entrypoint --------------------------------


def fleet_campaign_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one seeded fleet campaign and return plain-dict results.

    ``payload`` is a :func:`repro.journal.campaign_meta` document (the
    ``config``/``failures``/``retry`` sections) plus these keys:

    * ``trace`` — collect spans and return them as payloads;
    * ``metrics`` — publish into a registry and return its snapshot;
    * ``journal`` — write-ahead journal the campaign to this path;
    * ``resume`` — instead recover the campaign journaled at this path;
    * ``crash_after`` — the journal's crash-point fault injection.

    Everything live — clock, engine, tracer, registry, journal — is
    constructed here, inside the executing process; only seeds and plain
    data cross the pipe.  The returned ``document`` is exactly
    ``FleetMetrics.to_dict()``, so serial and parallel runs serialize to
    identical bytes.
    """
    from repro.fleet import FleetController
    from repro.journal import (
        CampaignJournal,
        campaign_from_meta,
        campaign_meta,
        recover,
    )
    from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
    from repro.par.shard import spans_to_payload

    tracer = Tracer() if payload.get("trace") else NULL_TRACER
    registry = MetricsRegistry() if payload.get("metrics") else None
    crash_after = payload.get("crash_after")
    if payload.get("resume"):
        controller, _ = recover(payload["resume"], registry=registry,
                                tracer=tracer, crash_after=crash_after)
    else:
        config, injector, retry = campaign_from_meta(payload)
        journal = None
        if payload.get("journal"):
            journal = CampaignJournal.create(
                payload["journal"], campaign_meta(config, injector, retry),
                crash_after=crash_after,
            )
        controller = FleetController(config, injector=injector, retry=retry,
                                     tracer=tracer, registry=registry,
                                     journal=journal)
    metrics = controller.run()

    result: Dict[str, Any] = {"document": metrics.to_dict()}
    # Sorted plain dicts: serializes identically from any worker.
    result["mechanism_mix"] = controller.mechanism_mix()
    if payload.get("trace"):
        result["spans"] = spans_to_payload(tracer.trace)
    if registry is not None:
        result["registry"] = registry.snapshot()
    return result


def sentinel_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one seeded sentinel feed replay and return plain-dict results.

    ``payload`` keys:

    * ``config`` — :class:`~repro.sentinel.responder.SentinelConfig`
      payload (the ``to_payload`` shape: nested ``feed``/``policy``
      dicts, a plain-list pool);
    * ``trace`` — collect response-plane spans and return them as
      payloads;
    * ``metrics`` — publish into a registry and return its snapshot;
    * ``journal_dir`` — write-ahead journal every launched campaign into
      this directory, creating it if needed.

    Same discipline as :func:`fleet_campaign_task`: clock, engine,
    tracer and registry are built here, in the executing process; the
    returned ``document`` is exactly ``SentinelReport.to_dict()``, so
    serial and parallel runs serialize to identical bytes.
    """
    import os

    from repro.obs import NULL_TRACER, MetricsRegistry, Tracer
    from repro.par.shard import spans_to_payload
    from repro.sentinel import Sentinel, SentinelConfig

    config = SentinelConfig.from_payload(payload.get("config", {}))
    tracer = Tracer() if payload.get("trace") else NULL_TRACER
    registry = MetricsRegistry() if payload.get("metrics") else None
    journal_dir = payload.get("journal_dir") or None
    if journal_dir is not None:
        os.makedirs(journal_dir, exist_ok=True)
    report = Sentinel(config, tracer=tracer, registry=registry,
                      journal_dir=journal_dir).run()

    result: Dict[str, Any] = {"document": report.to_dict()}
    if payload.get("trace"):
        result["spans"] = spans_to_payload(tracer.trace)
    if registry is not None:
        result["registry"] = registry.snapshot()
    return result


def run_sentinel(payload: Dict[str, Any], workers: int = 1,
                 task_timeout_s: float = 600.0) -> Dict[str, Any]:
    """One sentinel replay, optionally routed through the worker pool.

    Mirrors :func:`run_fleet_campaign`: ``workers <= 1`` runs inline;
    more routes the single task through a subprocess, and the output
    must be byte-identical either way.
    """
    runner = ParallelRunner(workers=workers, task_timeout_s=task_timeout_s)
    return runner.map_tasks(sentinel_task, [payload],
                            labels=["sentinel"])[0]


def run_fleet_campaign(payload: Dict[str, Any], workers: int = 1,
                       task_timeout_s: float = 600.0) -> Dict[str, Any]:
    """One campaign, optionally routed through the worker pool.

    With ``workers <= 1`` the campaign runs inline — the serial path.
    With more, the single task takes the full subprocess round trip
    (frames out, campaign in a fresh interpreter, frames back), which is
    the determinism contract the CLI's ``--workers`` flag exposes: the
    output must be byte-identical either way.
    """
    runner = ParallelRunner(workers=workers, task_timeout_s=task_timeout_s)
    return runner.map_tasks(fleet_campaign_task, [payload],
                            labels=["fleet-campaign"])[0]
