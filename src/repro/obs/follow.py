"""Live tailing of an in-flight campaign for ``report --follow``.

:class:`ResultsTail` wraps :func:`repro.campaign.aggregate.tail_jsonl`
with the state a *live* consumer needs: it remembers the byte offset of
the last complete record (so each poll parses only the bytes the runner
appended since -- never a full-file re-read in steady state), and it
survives the runner's finalize step, which atomically ``os.replace``\\ s
the completion-ordered stream with an index-sorted rewrite.  A replace
is detected by inode change (or size shrink), the offset rewinds to
zero once, and per-index dedup keeps already-consumed records from
being double-counted.

:func:`follow_report` runs the poll loop: it waits for the results file
to appear, folds fresh records into a
:class:`~repro.campaign.aggregate.StreamingAggregator`, and stops when
the expected run count is reached.  Because the aggregator is
order-independent (exactly-rounded sums, sorted emission), the report
it returns is byte-identical to a post-hoc ``campaign report`` over the
finalized file.
"""

from __future__ import annotations

import os
import time

from repro.campaign.aggregate import StreamingAggregator, tail_jsonl


class ResultsTail:
    """Incremental, replace-tolerant reader of a live ``results.jsonl``.

    ``poll()`` returns the records appended since the previous poll.
    Torn-tail warnings are swallowed: with a live writer a torn final
    line just means the next record is mid-write, and since
    :func:`tail_jsonl` does not consume it, a later poll picks it up
    whole.  Memory is the byte offset plus one int per consumed run
    index (the dedup set that makes the rewind-after-replace safe).
    """

    def __init__(self, path):
        self.path = os.fspath(path)
        self._offset = 0
        self._file_id = None
        self._seen: set = set()

    def poll(self) -> list[dict]:
        """Records appended since the last poll (empty if none/missing)."""
        try:
            stat = os.stat(self.path)
        except FileNotFoundError:
            return []
        file_id = (stat.st_dev, stat.st_ino)
        if self._file_id is not None and (
            file_id != self._file_id or stat.st_size < self._offset
        ):
            # finalize replaced the stream with its sorted rewrite (or the
            # file shrank some other way): rewind once, dedup below
            self._offset = 0
        self._file_id = file_id
        try:
            records, _warnings, self._offset = tail_jsonl(self.path, self._offset)
        except ValueError:
            current = os.stat(self.path)
            if (current.st_dev, current.st_ino) != file_id:
                # the file was replaced between stat and read, so the old
                # offset landed mid-record in the new file; rewind next poll
                self._file_id = None
                return []
            raise
        fresh = []
        for record in records:
            index = record.get("index")
            if index is not None:
                if index in self._seen:
                    continue
                self._seen.add(index)
            fresh.append(record)
        return fresh


def follow_report(
    results_path,
    total: int | None = None,
    interval: float = 0.5,
    max_polls: int | None = None,
    on_update=None,
    sleep=time.sleep,
) -> dict:
    """Tail a (possibly not-yet-existing) results file to completion.

    Polls every ``interval`` seconds, folding fresh records into a
    streaming aggregator, until ``total`` records have been seen (pass
    the run count the directory's checkpoint owns: the whole matrix, or
    one shard's slice) or ``max_polls`` polls
    have elapsed (``None`` = unbounded, for callers that stop via
    KeyboardInterrupt).  ``on_update(aggregator, fresh_records)`` fires
    after every poll that yielded new records.  Returns the final
    report dict -- byte-identical to a post-hoc
    :func:`~repro.campaign.aggregate.aggregate` over the same records.
    """
    aggregator = StreamingAggregator()
    tail = ResultsTail(results_path)
    polls = 0
    try:
        while True:
            fresh = tail.poll()
            if fresh:
                for record in fresh:
                    aggregator.add(record)
                if on_update is not None:
                    on_update(aggregator, fresh)
            if total is not None and aggregator.runs_seen >= total:
                break
            polls += 1
            if max_polls is not None and polls >= max_polls:
                break
            sleep(interval)
    except KeyboardInterrupt:
        # an unbounded follow ends with Ctrl-C: report what we saw
        pass
    return aggregator.report()
