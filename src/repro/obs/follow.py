"""Live follow of an in-flight campaign for ``report --follow``.

:func:`follow_report` polls the results file until the expected run
count has landed.  Each poll re-reads the whole file through
:func:`~repro.campaign.aggregate.read_jsonl_partial` and keeps each run
index once, so a record still mid-write (a torn final line) is simply
picked up whole by a later poll, and the runner's finalize step, which
atomically ``os.replace``\\ s the completion-ordered stream with an
index-sorted rewrite, changes nothing: the rewrite holds the same
records.  Because :func:`~repro.campaign.aggregate.aggregate` does not
depend on record order, the report it returns is byte-identical to a
post-hoc ``campaign report`` over the finalized file.
"""

from __future__ import annotations

import time

from repro.campaign.aggregate import aggregate, read_jsonl_partial


def follow_report(
    results_path,
    total: int | None = None,
    interval: float = 0.5,
    max_polls: int | None = None,
    on_update=None,
    sleep=time.sleep,
) -> dict:
    """Follow a (possibly not-yet-existing) results file to completion.

    Polls every ``interval`` seconds until ``total`` distinct run
    indices have been seen (pass the run count the directory's
    checkpoint owns: the whole matrix, or one shard's slice) or
    ``max_polls`` polls have elapsed (``None`` = unbounded, for callers
    that stop via KeyboardInterrupt).  ``on_update(runs_seen)`` fires
    after every poll that found new runs.  Returns the final report
    dict -- byte-identical to a post-hoc
    :func:`~repro.campaign.aggregate.aggregate` over the same records.
    """
    seen: dict = {}
    polls = 0
    try:
        while True:
            try:
                # a torn final line is a record still being written: the
                # next poll reads it whole, so its warning is dropped
                records, _torn = read_jsonl_partial(results_path)
            except FileNotFoundError:
                records = []
            before = len(seen)
            for record in records:
                seen.setdefault(record.get("index"), record)
            if len(seen) > before and on_update is not None:
                on_update(len(seen))
            if total is not None and len(seen) >= total:
                break
            polls += 1
            if max_polls is not None and polls >= max_polls:
                break
            sleep(interval)
    except KeyboardInterrupt:
        # an unbounded follow ends with Ctrl-C: report what we saw
        pass
    return aggregate(list(seen.values()))
