"""Sweep specifications: the one definition of burst and simulate work.

A :class:`SweepSpec` is the validated, canonicalized form of a sweep,
whether a client submitted it to ``mlec-sim serve`` as JSON or
``mlec-sim burst``/``simulate`` built it from their arguments.  Two
properties carry the service's robustness story and both live here:

* ``resolve()`` is the only place that turns a sweep into runner inputs
  ``(fn, args, trials, seed)``, and :meth:`JobPlan.execute` the only
  place that runs them.  The CLI and the service both go through it, so
  an offline run's checkpoint journal is interchangeable with a service
  job's -- same header fingerprint, same chunk records, byte-identical
  results (``tests/test_service.py::TestCliServiceParity``).
* ``key()`` hashes that resolved form (via the same
  :func:`~repro.runtime.args_digest` the journal header records), so the
  dedupe cache key *is* the checkpoint identity: identical submissions
  collapse onto one job, and a restarted daemon re-associates a
  journal with its job without guesswork.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING, Any

from ..core.config import RNG_STREAM, YEAR, DatacenterConfig, MLECParams
from ..core.scheme import MLEC_SCHEME_NAMES, mlec_scheme_from_name
from ..core.types import RepairMethod
from ..runtime.resilience import args_digest

if TYPE_CHECKING:
    from ..obs import MetricsRegistry, TraceRecorder
    from ..runtime import TrialRunner

__all__ = ["JobPlan", "SpecError", "SweepSpec"]

_KINDS = ("burst", "simulate")
_BATCH_MODES = ("auto", "on", "off")

#: Submission fields every kind accepts, with defaults applied by
#: :meth:`SweepSpec.from_json`.  Anything outside this table (plus the
#: kind-specific table below) is rejected so typos fail loudly instead
#: of silently running a default sweep.
_COMMON_DEFAULTS: dict[str, Any] = {
    "scheme": "C/C",
    "code": "10+2/17+3",
    "trials": 100,
    "seed": 0,
    "batch": "auto",
    "collect_metrics": False,
    "collect_trace": False,
    "priority": 0,
    "chunk": None,
}

_KIND_DEFAULTS: dict[str, dict[str, Any]] = {
    "burst": {"failures": 4, "racks": 2},
    "simulate": {"months": 1, "afr": 0.02, "method": "RMIN"},
}


class SpecError(ValueError):
    """A job submission is malformed; maps to HTTP 400 at the API edge."""


def _parse_code(text: str) -> MLECParams:
    try:
        return MLECParams.parse(text)
    except ValueError as exc:
        raise SpecError(f"invalid code: {exc}") from exc


def _mission_time(months: float) -> float:
    """Mission length in seconds (``inf`` when it overflows a float)."""
    try:
        return months / 12 * YEAR
    except OverflowError:
        return math.inf


def _require_int(payload: Mapping[str, Any], field: str, minimum: int) -> int:
    value = payload[field]
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{field} must be an integer, got {value!r}")
    if value < minimum:
        raise SpecError(f"{field} must be >= {minimum}, got {value}")
    return value


def _require_bool(payload: Mapping[str, Any], field: str) -> bool:
    value = payload[field]
    if not isinstance(value, bool):
        raise SpecError(f"{field} must be a boolean, got {value!r}")
    return value


@dataclasses.dataclass(frozen=True)
class JobPlan:
    """A spec resolved to concrete runner inputs (see module docstring)."""

    kind: str
    fn: Callable[..., Any]
    args: tuple[Any, ...]
    trials: int
    seed: int

    @property
    def fn_name(self) -> str:
        """``module:qualname`` -- the identity the journal header records."""
        return f"{self.fn.__module__}:{self.fn.__qualname__}"

    def execute(
        self,
        runner: TrialRunner,
        *,
        metrics: MetricsRegistry | None = None,
        trace: TraceRecorder | None = None,
    ) -> Any:
        """Run the sweep on ``runner``.

        A burst sweep folds its PDLs into a
        :class:`~repro.runtime.TrialAggregate` (``runner.run``); a
        simulate sweep returns every mission's result in trial order
        (``runner.map``).
        """
        sweep = runner.run if self.kind == "burst" else runner.map
        return sweep(
            self.fn, self.trials, seed=self.seed, args=self.args,
            metrics=metrics, trace=trace,
        )


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """One validated sweep request (burst PDL cell or full-system sim)."""

    kind: str
    scheme: str
    code: str
    trials: int
    seed: int
    batch: str
    collect_metrics: bool
    collect_trace: bool
    priority: int
    chunk: int | None
    # burst
    failures: int | None = None
    racks: int | None = None
    # simulate
    months: float | None = None
    afr: float | None = None
    method: str | None = None

    # ------------------------------------------------------------------
    # Construction / validation
    # ------------------------------------------------------------------
    @classmethod
    def from_json(cls, payload: Any) -> SweepSpec:
        """Validate a decoded JSON submission into a spec.

        Raises :class:`SpecError` on any malformed, missing, unknown, or
        out-of-range field -- the service turns that into HTTP 400 with
        the message as the body, so validation messages are user-facing.
        """
        if not isinstance(payload, Mapping):
            raise SpecError(f"job spec must be a JSON object, got {payload!r}")
        kind = payload.get("kind")
        if kind not in _KINDS:
            raise SpecError(f"kind must be one of {_KINDS}, got {kind!r}")
        allowed = {"kind", *_COMMON_DEFAULTS, *_KIND_DEFAULTS[kind]}
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise SpecError(
                f"unknown field(s) for kind={kind!r}: {', '.join(unknown)}"
            )
        merged: dict[str, Any] = {
            **_COMMON_DEFAULTS,
            **_KIND_DEFAULTS[kind],
            **{k: v for k, v in payload.items() if k != "kind"},
        }

        scheme = merged["scheme"]
        if not isinstance(scheme, str):
            raise SpecError(f"scheme must be a string, got {scheme!r}")
        scheme = scheme.strip().upper()
        if scheme not in MLEC_SCHEME_NAMES:
            raise SpecError(
                f"scheme must be one of {MLEC_SCHEME_NAMES}, got {scheme!r}"
            )
        code = merged["code"]
        if not isinstance(code, str):
            raise SpecError(f"code must be a string, got {code!r}")
        _parse_code(code)  # validate now so submission fails, not execution

        batch = merged["batch"]
        if batch not in _BATCH_MODES:
            raise SpecError(f"batch must be one of {_BATCH_MODES}, got {batch!r}")

        chunk = merged["chunk"]
        if chunk is not None:
            if isinstance(chunk, bool) or not isinstance(chunk, int) or chunk < 1:
                raise SpecError(f"chunk must be a positive integer, got {chunk!r}")

        fields: dict[str, Any] = {
            "kind": kind,
            "scheme": scheme,
            "code": code.strip(),
            "trials": _require_int(merged, "trials", 1),
            "seed": _require_int(merged, "seed", 0),
            "batch": batch,
            "collect_metrics": _require_bool(merged, "collect_metrics"),
            "collect_trace": _require_bool(merged, "collect_trace"),
            "priority": _require_int(merged, "priority", 0),
            "chunk": chunk,
        }
        if kind == "burst":
            fields["failures"] = _require_int(merged, "failures", 1)
            fields["racks"] = _require_int(merged, "racks", 1)
        else:
            months = merged["months"]
            if isinstance(months, bool) or not isinstance(months, (int, float)):
                raise SpecError(f"months must be a number, got {months!r}")
            mission_time = _mission_time(months)
            if not (math.isfinite(mission_time) and mission_time > 0):
                raise SpecError(
                    f"months must give a positive, finite mission_time, "
                    f"got {mission_time!r} s ({months!r} months)"
                )
            if isinstance(months, float) and months.is_integer():
                months = int(months)  # 3.0 and 3 are one sweep
            fields["months"] = months
            afr = merged["afr"]
            if isinstance(afr, bool) or not isinstance(afr, (int, float)):
                raise SpecError(f"afr must be a number, got {afr!r}")
            afr = float(afr)
            if not math.isfinite(afr) or not 0.0 < afr < 1.0:
                raise SpecError(f"afr must be in (0, 1), got {afr!r}")
            fields["afr"] = afr
            method = merged["method"]
            try:
                fields["method"] = RepairMethod(method).value
            except ValueError as exc:
                raise SpecError(
                    f"method must be one of "
                    f"{[m.value for m in RepairMethod]}, got {method!r}"
                ) from exc
        return cls(**fields)

    # ------------------------------------------------------------------
    # Canonical form and identity
    # ------------------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        """Canonical JSON form: defaults applied, ``None`` fields dropped.

        Canonicalization means clients that spell the same sweep
        differently (defaults omitted vs. spelled out, keys reordered)
        still land on the same stored spec.
        """
        out = dataclasses.asdict(self)
        return {k: v for k, v in sorted(out.items()) if v is not None}

    def resolve(self) -> JobPlan:
        """Build the exact runner inputs this spec denotes.

        The CLI's ``burst`` and ``simulate`` and the service's job
        executor all run what this returns, so there is no second
        construction of ``(fn, args)`` to drift from.
        """
        scheme = mlec_scheme_from_name(self.scheme, _parse_code(self.code))
        if self.kind == "burst":
            from ..sim.burst import MLECBurstEvaluator, _burst_trial

            evaluator = MLECBurstEvaluator(scheme)
            dc: DatacenterConfig = scheme.dc
            assert self.failures is not None and self.racks is not None
            fn: Callable[..., Any] = _burst_trial
            args: tuple[Any, ...] = (evaluator, self.failures, self.racks, dc)
        else:
            from ..sim.batch import simulate_trial

            assert self.months is not None and self.afr is not None
            assert self.method is not None
            fn = simulate_trial
            args = (
                scheme,
                RepairMethod(self.method),
                self.afr,
                _mission_time(self.months),
            )
        return JobPlan(
            kind=self.kind, fn=fn, args=args, trials=self.trials, seed=self.seed
        )

    def key(self) -> str:
        """Content hash identifying this sweep's *results*.

        Hashes the resolved ``(fn, args, trials, seed)`` -- the same
        fingerprint the checkpoint journal header carries -- plus the
        collect flags (a traced run produces a different artifact set
        than an untraced one) and the RNG stream version (a cached result
        of another draw order is not this build's result).  Deliberately
        excludes ``batch``, ``chunk``, and ``priority``: those change
        *how* a sweep runs, never a result byte, so they must not fracture
        the cache.
        """
        plan = self.resolve()
        ident = {
            "fn": plan.fn_name,
            "args": args_digest(plan.args),
            "trials": plan.trials,
            "seed": plan.seed,
            "collect_metrics": self.collect_metrics,
            "collect_trace": self.collect_trace,
            "rng_stream": RNG_STREAM,
        }
        blob = json.dumps(ident, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def job_id(self) -> str:
        """Stable job id derived from :meth:`key` (dedupe-friendly)."""
        return f"j{self.key()[:16]}"
