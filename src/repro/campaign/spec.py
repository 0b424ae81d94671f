"""Campaign specifications: declarative sweeps over scenario knobs.

A :class:`CampaignSpec` describes a whole evaluation programme as data:
a base scenario (the plain-dict form consumed by
:meth:`repro.scenarios.ScenarioBuilder.from_spec`), a grid of axes to
sweep, optional random samples, a traffic workload, an adversary mix,
and a replicate count.  :meth:`CampaignSpec.expand` turns that into the
concrete, fully-resolved list of :class:`RunSpec` the runner executes.

Axis paths are dotted keys.  A path whose first segment is one of
``workload``, ``adversaries``, ``bootstrap`` or ``duration`` overrides
the run-level field; every other path indexes into the scenario spec,
and must start with a scenario spec key.  The run-level entries speak
:mod:`repro.scenarios`' run vocabulary, and the spec is checked against
it when loaded: a typo'd key or kind in a base entry, or in any axis or
sample value that overrides one, is refused before anything runs::

    "topology.n":         [9, 16, 25]          # scenario knob
    "router":             ["secure", "plain"]  # scenario knob
    "radio.loss_rate":    [0.0, 0.1]           # scenario knob
    "workload.interval":  [0.5, 2.0]           # run knob
    "adversaries":        [[], [BLACKHOLE]]    # run knob (attacker mix)

Every run gets its own master seed via
:func:`repro.sim.rng.spawn_seed`, so results depend only on
``(campaign seed, run index)`` -- never on worker scheduling.
"""

from __future__ import annotations

import copy
import itertools
import json
from dataclasses import dataclass, field

from repro.scenarios import bootstrap_keywords, check_adversaries, check_workload
from repro.scenarios.builder import DEFAULT_BOOTSTRAP, SCENARIO_SPEC_KEYS
from repro.scenarios.workloads import DEFAULT_WORKLOAD
from repro.sim.rng import SimRNG, check_seed, spawn_seed

#: Top-level path segments that target the run rather than the scenario,
#: each with the check a value of it passes when the spec is loaded.
_RUN_LEVEL = {
    "workload": check_workload,
    "adversaries": check_adversaries,
    "bootstrap": bootstrap_keywords,
    "duration": float,
}

_KNOWN_KEYS = {
    "name", "seed", "replicates", "base", "axes", "samples",
    "workload", "adversaries", "bootstrap", "duration", "timeout",
    "batch_size", "summary_mode", "retry_max_attempts", "retry_backoff",
    "shards", "shard_index",
}


#: JSON scalars are immutable, so a copy may share them.
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _copy_json(data):
    """An independent copy of JSON-shaped ``data``, equal to its deepcopy.

    Dicts and lists are rebuilt and JSON scalars shared; any other value
    (a tuple, a numpy scalar) goes through ``copy.deepcopy``.  Spec data
    is almost all dicts, lists and scalars, which this copies several
    times faster than ``deepcopy``, and :meth:`CampaignSpec.expand`
    copies it for every run.
    """
    kind = type(data)
    if kind is dict:
        return {key: value if type(value) in _SCALARS else _copy_json(value)
                for key, value in data.items()}
    if kind is list:
        return [value if type(value) in _SCALARS else _copy_json(value)
                for value in data]
    if kind in _SCALARS:
        return data
    return copy.deepcopy(data)


def check_summary_mode(mode) -> None:
    """Refuse any summary mode but ``"exact"``: reports are mean/min/max."""
    if mode != "exact":
        raise ValueError(
            f"summary_mode {mode!r} is not supported: the 'sketch' mode "
            "was removed and campaign reports are always exact "
            "(mean/min/max)"
        )


def _check_scenario_paths(base: dict, paths) -> None:
    """Refuse a base key or a swept path that names no scenario key.

    ``base`` is a scenario spec, so its keys must be scenario keys; a
    path in ``paths`` (axes and sample space) may also start with a
    run-level segment.  Otherwise every run of the matrix would fail
    in ``ScenarioBuilder.from_spec``.
    """
    unknown = set(base) - SCENARIO_SPEC_KEYS
    if unknown:
        raise ValueError(
            f"unknown scenario spec keys in base: {sorted(unknown)} "
            f"(allowed: {sorted(SCENARIO_SPEC_KEYS)})"
        )
    allowed = SCENARIO_SPEC_KEYS | set(_RUN_LEVEL)
    for path in paths:
        head = path.split(".", 1)[0]
        if head not in allowed:
            raise ValueError(
                f"path {path!r}: unknown key {head!r} "
                f"(a path starts with one of {sorted(allowed)})"
            )


def _check_run_level(spec: "CampaignSpec") -> None:
    """Refuse a run-level entry that every run using it would fail on.

    Checks each base entry, then once each axis value and sample choice
    or bound under a run-level segment, set into a copy of the base entry
    as :meth:`CampaignSpec.expand` sets it; the error names the path.
    """
    base = {"workload": spec.workload, "adversaries": spec.adversaries,
            "bootstrap": spec.bootstrap, "duration": spec.duration}
    for head, check in _RUN_LEVEL.items():
        check(base[head])
    space = spec.samples.get("space", {})
    swept = [*spec.axes.items(),
             *((path, domain.get("choices") if isinstance(domain, dict)
                else domain) for path, domain in space.items())]
    for path, values in swept:
        head = path.split(".", 1)[0]
        if head not in _RUN_LEVEL or not isinstance(values, list):
            continue
        for value in values:
            target = {head: _copy_json(base[head])}
            try:
                set_by_path(target, path, value)
                _RUN_LEVEL[head](target[head])
            except (AttributeError, TypeError, ValueError) as exc:
                # a value of the wrong shape fails like a wrong key
                raise ValueError(f"path {path!r}: {exc}") from None


def set_by_path(target: dict, path: str, value) -> None:
    """Set ``target['a']['b'] = value`` for path ``"a.b"``, creating dicts."""
    parts = path.split(".")
    node = target
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValueError(f"axis path {path!r} descends into non-dict {part!r}")
    node[parts[-1]] = value


@dataclass
class RunSpec:
    """One fully-resolved run of the matrix; plain data, pickles cheaply."""

    run_id: str
    index: int
    replicate: int
    seed: int
    params: dict
    scenario: dict
    workload: dict
    adversaries: list
    bootstrap: dict
    duration: float
    timeout: float

    def to_dict(self) -> dict:
        """The run's fields as a dict; nested data is shared, not copied.

        :meth:`CampaignSpec.expand` already gave every run its own copy
        of each nested dict and list, so the dict is independent of
        every other run and of the spec.
        """
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        return cls(**data)


@dataclass
class CampaignSpec:
    """A declarative sweep; see the module docstring for the axis rules."""

    name: str = "campaign"
    seed: int = 0
    replicates: int = 1
    #: Base scenario spec (``ScenarioBuilder.from_spec`` format, sans seed).
    base: dict = field(default_factory=dict)
    #: Dotted path -> list of values; expanded as a full cartesian grid.
    axes: dict = field(default_factory=dict)
    #: Random sampling: ``{"count": N, "space": {path: [lo, hi] | {"choices": [...]}}}``.
    samples: dict = field(default_factory=dict)
    workload: dict = field(default_factory=lambda: dict(DEFAULT_WORKLOAD))
    adversaries: list = field(default_factory=list)
    bootstrap: dict = field(default_factory=lambda: dict(DEFAULT_BOOTSTRAP))
    duration: float = 30.0
    #: Per-run wall-clock budget (seconds); exceeded runs report "timeout".
    timeout: float = 120.0
    #: Runs grouped per worker task; ``None`` auto-tunes from the matrix
    #: size and worker count (see :func:`repro.campaign.runner.auto_batch_size`).
    #: Execution-only: never changes results, only dispatch overhead.
    batch_size: int | None = None
    #: Total execution attempts per run when a worker *dies* mid-batch
    #: (original + retries).  Execution-only (like batch_size): a run
    #: whose retry eventually succeeds produces its canonical record;
    #: one that exhausts the budget is quarantined.  In-process
    #: exceptions are deterministic and never retried.
    retry_max_attempts: int = 3
    #: Base sleep (seconds) before retry n: retry_backoff * 2**(n-1).
    retry_backoff: float = 0.5
    #: Shard assignment for distributed execution: this campaign runs
    #: only the run indices ``index % shards == shard_index`` of the
    #: *full* matrix (seeds/run_ids are expanded first, so they never
    #: depend on the shard split).  Both-or-neither with
    #: ``shard_index``; usually set via ``campaign run --shard i/N``.
    #: Execution-only, like batch_size: folded out of the resume
    #: fingerprint, and ``campaign merge`` fuses shard checkpoints into
    #: an artifact byte-identical to an unsharded run.
    shards: int | None = None
    #: Which shard of ``shards`` this execution is (0-based).
    shard_index: int | None = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        unknown = set(data) - _KNOWN_KEYS
        if unknown:
            raise ValueError(f"unknown campaign spec keys: {sorted(unknown)}")
        # every spec.json written before the key was dropped carries it
        check_summary_mode(data.get("summary_mode", "exact"))
        if "base" not in data:
            raise ValueError("campaign spec requires a 'base' scenario")
        for key in ("base", "axes", "samples", "workload", "bootstrap"):
            if not isinstance(data.get(key, {}), dict):
                raise ValueError(f"campaign spec {key!r} must be an object")
        if not isinstance(data.get("samples", {}).get("space", {}), dict):
            raise ValueError("campaign spec 'samples.space' must be an object")
        spec = cls(
            name=str(data.get("name", "campaign")),
            seed=int(data.get("seed", 0)),
            replicates=int(data.get("replicates", 1)),
            base=_copy_json(data["base"]),
            axes=_copy_json(data.get("axes", {})),
            samples=_copy_json(data.get("samples", {})),
            workload={**DEFAULT_WORKLOAD, **data.get("workload", {})},
            adversaries=_copy_json(data.get("adversaries", [])),
            bootstrap={**DEFAULT_BOOTSTRAP, **data.get("bootstrap", {})},
            duration=float(data.get("duration", 30.0)),
            timeout=float(data.get("timeout", 120.0)),
            batch_size=(int(data["batch_size"])
                        if data.get("batch_size") is not None else None),
            retry_max_attempts=int(data.get("retry_max_attempts", 3)),
            retry_backoff=float(data.get("retry_backoff", 0.5)),
            shards=(int(data["shards"])
                    if data.get("shards") is not None else None),
            shard_index=(int(data["shard_index"])
                         if data.get("shard_index") is not None else None),
        )
        # derive_seed would refuse it only at expansion, deep in a verb
        check_seed(spec.seed, "seed")
        if spec.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if spec.batch_size is not None and spec.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if spec.retry_max_attempts < 1:
            raise ValueError("retry_max_attempts must be >= 1")
        if spec.retry_backoff < 0:
            raise ValueError("retry_backoff must be >= 0")
        if (spec.shards is None) != (spec.shard_index is None):
            raise ValueError("shards and shard_index must be set together")
        if spec.shards is not None:
            if spec.shards < 1:
                raise ValueError("shards must be >= 1")
            if not 0 <= spec.shard_index < spec.shards:
                raise ValueError(
                    f"shard_index must be in [0, {spec.shards}), "
                    f"got {spec.shard_index}"
                )
        for path, values in spec.axes.items():
            if not isinstance(values, list) or not values:
                raise ValueError(f"axis {path!r} must map to a non-empty list")
        _check_scenario_paths(
            spec.base, [*spec.axes, *spec.samples.get("space", {})]
        )
        _check_run_level(spec)
        return spec

    @classmethod
    def from_file(cls, path) -> "CampaignSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "replicates": self.replicates,
            "base": _copy_json(self.base),
            "axes": _copy_json(self.axes),
            "samples": _copy_json(self.samples),
            "workload": _copy_json(self.workload),
            "adversaries": _copy_json(self.adversaries),
            "bootstrap": _copy_json(self.bootstrap),
            "duration": self.duration,
            "timeout": self.timeout,
            "batch_size": self.batch_size,
            "retry_max_attempts": self.retry_max_attempts,
            "retry_backoff": self.retry_backoff,
            "shards": self.shards,
            "shard_index": self.shard_index,
        }

    # -- expansion -------------------------------------------------------
    def _grid_points(self) -> list[dict]:
        """Cartesian product of the axes, in sorted-key order."""
        if not self.axes:
            return [{}]
        paths = sorted(self.axes)
        points = []
        for combo in itertools.product(*(self.axes[p] for p in paths)):
            points.append(dict(zip(paths, combo)))
        return points

    def _sampled_points(self) -> list[dict]:
        """Random points drawn deterministically from ``samples.space``."""
        count = int(self.samples.get("count", 0))
        space = self.samples.get("space", {})
        if count <= 0 or not space:
            return []
        rng = SimRNG(self.seed, "campaign/samples")
        points = []
        for _ in range(count):
            point = {}
            for path in sorted(space):
                domain = space[path]
                if isinstance(domain, dict) and "choices" in domain:
                    point[path] = rng.choice(domain["choices"])
                elif (
                    isinstance(domain, list)
                    and len(domain) == 2
                    and all(isinstance(v, (int, float)) for v in domain)
                ):
                    lo, hi = domain
                    if isinstance(lo, int) and isinstance(hi, int):
                        point[path] = rng.randint(lo, hi)
                    else:
                        point[path] = rng.uniform(float(lo), float(hi))
                else:
                    raise ValueError(
                        f"sample space for {path!r} must be [lo, hi] or "
                        "{'choices': [...]}"
                    )
            points.append(point)
        return points

    def expand(self) -> list[RunSpec]:
        """The full run matrix: (grid + samples) x replicates.

        With no axes declared, the grid contributes the single base
        point -- unless random samples are requested, in which case the
        samples alone define the matrix.
        """
        sampled = self._sampled_points()
        grid = self._grid_points() if (self.axes or not sampled) else []
        runs = []
        index = 0
        for params in grid + sampled:
            for replicate in range(self.replicates):
                seed = spawn_seed(self.seed, index)
                scenario = _copy_json(self.base)
                run_level = {
                    "workload": _copy_json(self.workload),
                    "adversaries": _copy_json(self.adversaries),
                    "bootstrap": _copy_json(self.bootstrap),
                    "duration": self.duration,
                }
                for path, value in params.items():
                    head = path.split(".", 1)[0]
                    target = run_level if head in _RUN_LEVEL else scenario
                    set_by_path(target, path, _copy_json(value))
                scenario["seed"] = seed
                runs.append(RunSpec(
                    run_id=f"{self.name}-{index:04d}",
                    index=index,
                    replicate=replicate,
                    seed=seed,
                    params=_copy_json(params),
                    scenario=scenario,
                    workload=run_level["workload"],
                    adversaries=run_level["adversaries"],
                    bootstrap=run_level["bootstrap"],
                    duration=float(run_level["duration"]),
                    timeout=self.timeout,
                ))
                index += 1
        return runs
