"""Tenancy: who a request belongs to, and what that tenant was promised.

The serving layer up to PR 8 served a single anonymous stream.  A production
front end serves *tenants*: each request carries a ``tenant_id``, and the
gateway's admission, queueing, and accounting decisions are all keyed by the
tenant's contract.  This module defines that contract:

* :class:`TenantSpec` — one tenant's terms: an **SLO class** (``premium`` /
  ``standard`` / ``best_effort``, each with a default p99 objective), a
  **WFQ weight** (the share of serving capacity the tenant is entitled to
  while backlogged), an optional **token-bucket rate quota** (the offered
  load the tenant is entitled to protection for), and a relative **load
  share** used when the CLI splits one arrival trace across tenants;
* :class:`TokenBucket` — the deterministic quota meter.  Tokens refill
  continuously at ``rate_rps`` and cap at ``burst``; an arrival inside the
  quota takes a token.  Everything is pure arithmetic over the simulated
  clock, so quota decisions replay bit-identically;
* :class:`TenantRegistry` — the ordered set of tenants a gateway serves,
  with the ``--tenants`` CLI spec parser
  (``"prem:class=premium,weight=4,quota=300;batch:weight=1"``).

Semantics a router serving tenants builds on (see
:mod:`repro.serving.gateway`): a **premium** tenant inside its quota is
*never* load-shed; a quota-exhausted premium request loses that immunity
but still queues (it is shed only if the overload thresholds trip, exactly
like best-effort traffic).
The quota is a protection boundary, not a hard drop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.serving.batcher import VECTOR_MIN

if TYPE_CHECKING:
    from repro.serving.generators import ArrivalWave

__all__ = ["SLO_CLASSES", "TenantSpec", "TenantRegistry", "TokenBucket",
           "meter"]

# SLO class -> default p99 objective, seconds.  ``premium`` is the class the
# gateway's shedding immunity and the fairness benchmark's attainment floor
# are written against; ``best_effort`` is the class that absorbs overload.
SLO_CLASSES: Dict[str, float] = {
    "premium": 0.035,
    "standard": 0.075,
    "best_effort": 0.150,
}


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's serving contract.

    ``weight`` is the WFQ weight: while both tenants are backlogged, a
    weight-4 tenant is dispatched four requests for every one of a weight-1
    tenant.  ``quota_rps``/``burst`` arm a token-bucket rate quota (None =
    unlimited).  ``slo_p99`` defaults from the class table but can be
    overridden per tenant.  ``share`` is the tenant's relative slice when a
    single arrival-rate trace is split across the registry (CLI path).
    """

    tenant_id: str
    slo_class: str = "best_effort"
    weight: float = 1.0
    quota_rps: Optional[float] = None
    burst: Optional[float] = None
    slo_p99: Optional[float] = None
    share: float = 1.0

    def __post_init__(self) -> None:
        if not self.tenant_id:
            raise ValueError("tenant_id must be a non-empty string")
        if self.slo_class not in SLO_CLASSES:
            raise ValueError(
                f"unknown SLO class {self.slo_class!r}; "
                f"known: {', '.join(sorted(SLO_CLASSES))}")
        for name in ("weight", "quota_rps", "burst", "slo_p99", "share"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"tenant {self.tenant_id!r}: {name} must "
                                 f"be finite, got {value}")
        if not self.weight > 0:
            raise ValueError(
                f"tenant {self.tenant_id!r}: WFQ weight must be > 0, "
                f"got {self.weight} (a zero-weight tenant would never be "
                f"dispatched while any other tenant is backlogged)")
        if self.quota_rps is not None and not self.quota_rps > 0:
            raise ValueError(
                f"tenant {self.tenant_id!r}: quota_rps must be > 0, "
                f"got {self.quota_rps}")
        if self.burst is not None:
            if self.quota_rps is None:
                raise ValueError(
                    f"tenant {self.tenant_id!r}: burst needs a quota_rps")
            if not self.burst >= 1:
                raise ValueError(
                    f"tenant {self.tenant_id!r}: burst must be >= 1, "
                    f"got {self.burst}")
        if self.slo_p99 is not None and not self.slo_p99 > 0:
            raise ValueError(
                f"tenant {self.tenant_id!r}: slo_p99 must be > 0, "
                f"got {self.slo_p99}")
        if not self.share > 0:
            raise ValueError(
                f"tenant {self.tenant_id!r}: share must be > 0, "
                f"got {self.share}")

    @property
    def premium(self) -> bool:
        return self.slo_class == "premium"

    @property
    def slo(self) -> float:
        """The p99 objective in force: the override, else the class default."""
        return self.slo_p99 if self.slo_p99 is not None else \
            SLO_CLASSES[self.slo_class]

    def bucket(self) -> Optional["TokenBucket"]:
        """A fresh quota meter for one run (None when unlimited)."""
        if self.quota_rps is None:
            return None
        burst = self.burst if self.burst is not None else \
            max(1.0, self.quota_rps * 0.1)
        return TokenBucket(rate_rps=self.quota_rps, burst=burst)

    def to_dict(self) -> Dict[str, object]:
        """The journal-header form: everything an offline audit needs."""
        return {
            "slo_class": self.slo_class,
            "slo_p99": self.slo,
            "weight": self.weight,
            "quota_rps": self.quota_rps,
            "burst": self.burst,
            "share": self.share,
        }


class TokenBucket:
    """Deterministic continuous-refill token bucket over the simulated clock.

    Starts full.  ``take(now)`` refills ``(now - last) * rate_rps`` tokens
    (capped at ``burst``), then consumes one if available.  Pure float
    arithmetic on simulated timestamps — two replays of the same arrival
    stream make identical quota decisions.
    """

    def __init__(self, rate_rps: float, burst: float) -> None:
        if not rate_rps > 0:
            raise ValueError(f"rate_rps must be > 0, got {rate_rps}")
        if not burst >= 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate_rps = rate_rps
        self.burst = burst
        self._tokens = burst
        self._last = 0.0

    @property
    def tokens(self) -> float:
        return self._tokens

    def take(self, now: float) -> bool:
        """Consume one token at simulated time ``now``; True if available."""
        if now > self._last:
            self._tokens = min(self.burst,
                               self._tokens + (now - self._last) * self.rate_rps)
            self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def take_many(self, times) -> np.ndarray:
        """Meter a whole ascending arrival wave in one call.

        Returns a bool array: element ``j`` is what ``take(times[j])``
        would have returned.  The refill increments are precomputed with
        one vectorized pass; the clamp/debit recurrence runs as a tight
        loop over plain floats, performing the *same* IEEE-754 operations
        in the same order as repeated :meth:`take` calls — so the grants
        (and the bucket's final state) are bit-identical, not just close.
        The zero-increment case folds into the same arithmetic: adding
        ``0.0`` and re-clamping a value already at or below ``burst``
        returns the identical float, matching ``take``'s ``now > last``
        skip.
        """
        times = np.ascontiguousarray(times, dtype=np.float64)
        n = len(times)
        if n == 0:
            return np.empty(0, dtype=bool)
        refill = np.empty(n)
        refill[0] = (float(times[0]) - self._last) * self.rate_rps
        if n > 1:
            np.multiply(np.diff(times), self.rate_rps, out=refill[1:])
        burst = self.burst
        tokens = self._tokens
        grants: List[bool] = []
        append = grants.append
        for inc in refill.tolist():
            tokens = tokens + inc
            if tokens > burst:
                tokens = burst
            if tokens >= 1.0:
                tokens -= 1.0
                append(True)
            else:
                append(False)
        self._tokens = tokens
        last = float(times[-1])
        if last > self._last:
            self._last = last
        return np.asarray(grants, dtype=bool)


def meter(wave: "ArrivalWave", times: Sequence[float],
          contracts: Mapping[Optional[str], Tuple[Optional[TokenBucket], bool]],
          browned: bool) -> Tuple[List[bool], Optional[List[bool]]]:
    """The tenant pre-stage to :func:`repro.serving.admission.decide`:
    meter a wave on its tenants' token buckets; returns ``(bypass, halved)``.

    ``contracts`` maps a tenant to ``(its bucket or None, premium?)``;
    tenants it does not know have neither.  Every arrival draws on its
    tenant's bucket whether or not the decision will need the grant (quota
    state must not depend on load), each bucket sees its own arrivals in
    order, and ``times`` is the wave's ``time_list``.  ``bypass[j]``:
    arrival ``j`` is premium and inside its quota.  ``halved[j]``: it is
    not premium, so a brownout halves its limits — ``None`` unless
    ``browned``.  Short waves :meth:`~TokenBucket.take` per arrival, long
    ones :meth:`~TokenBucket.take_many` per tenant.
    """
    idx = wave.tenant_idx
    table = wave.tenant_table if idx is not None else wave.tenant_table[:1]
    known = [contracts.get(tenant, (None, False)) for tenant in table]
    n = len(times)
    if n < VECTOR_MIN:
        per_arrival = (known * n if idx is None
                       else [known[k] for k in wave.idx_list])
        bypass = [(bucket is None or bucket.take(t)) and premium
                  for t, (bucket, premium) in zip(times, per_arrival)]
        return bypass, ([not c[1] for c in per_arrival] if browned else None)
    grants = np.ones(n, dtype=bool)
    prem = np.zeros(n, dtype=bool)
    for k, (bucket, premium) in enumerate(known):
        mine = slice(None) if idx is None else idx == k
        if bucket is not None:
            drawn = wave.times[mine]
            if drawn.size:  # this tenant may have no arrival in the wave
                grants[mine] = bucket.take_many(drawn)
        prem[mine] = premium
    return (grants & prem).tolist(), ((~prem).tolist() if browned else None)


class TenantRegistry:
    """The ordered set of tenants a gateway serves.

    Order matters twice: it fixes the deterministic tie-break when two
    tenants' arrivals collide at the same timestamp, and it is the order the
    CLI's load-share split and every per-tenant report iterate in.
    """

    def __init__(self, tenants: Iterable[TenantSpec]) -> None:
        self._tenants: Dict[str, TenantSpec] = {}
        for spec in tenants:
            if spec.tenant_id in self._tenants:
                raise ValueError(f"duplicate tenant id {spec.tenant_id!r}")
            self._tenants[spec.tenant_id] = spec
        if not self._tenants:
            raise ValueError("a tenant registry needs at least one tenant")

    def __len__(self) -> int:
        return len(self._tenants)

    def __iter__(self):
        return iter(self._tenants.values())

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._tenants

    def __getitem__(self, tenant_id: Optional[str]) -> TenantSpec:
        if tenant_id is None or tenant_id not in self._tenants:
            raise KeyError(
                f"unknown tenant {tenant_id!r}; registered: "
                f"{', '.join(self.tenant_ids)}")
        return self._tenants[tenant_id]

    @property
    def tenant_ids(self) -> List[str]:
        return list(self._tenants)

    def shares(self) -> Dict[str, float]:
        """Each tenant's normalized slice of a shared arrival trace."""
        total = sum(spec.share for spec in self)
        return {spec.tenant_id: spec.share / total for spec in self}

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        return {spec.tenant_id: spec.to_dict() for spec in self}

    def describe(self) -> str:
        lines = []
        for spec in self:
            quota = ("unlimited" if spec.quota_rps is None
                     else f"{spec.quota_rps:g} rps")
            lines.append(
                f"{spec.tenant_id}: class={spec.slo_class} "
                f"(p99 {spec.slo * 1e3:g} ms), weight={spec.weight:g}, "
                f"quota={quota}, share={spec.share:g}")
        return "\n".join(lines)

    # -- the --tenants CLI spec -----------------------------------------------

    _KEYS = ("class", "weight", "quota", "burst", "p99", "share")

    @classmethod
    def from_spec(cls, spec: str) -> "TenantRegistry":
        """Parse ``"prem:class=premium,weight=4,quota=300;batch:weight=1"``.

        Tenants are ``;``-separated; each is ``name[:key=value,...]`` with
        keys ``class`` (SLO class name), ``weight``, ``quota`` (rps),
        ``burst`` (tokens), ``p99`` (milliseconds, overrides the class
        default), and ``share`` (relative load split).  Domain errors raise
        ``ValueError`` with the offending fragment named.
        """
        tenants: List[TenantSpec] = []
        for entry in spec.split(";"):
            entry = entry.strip()
            if not entry:
                continue
            name, _, options = entry.partition(":")
            name = name.strip()
            if not name:
                raise ValueError(f"tenant entry {entry!r} has no name")
            kwargs: Dict[str, object] = {}
            if options.strip():
                for item in options.split(","):
                    key, sep, value = item.partition("=")
                    key, value = key.strip(), value.strip()
                    if not sep or not value:
                        raise ValueError(
                            f"tenant {name!r}: expected key=value, "
                            f"got {item!r}")
                    if key not in cls._KEYS:
                        raise ValueError(
                            f"tenant {name!r}: unknown key {key!r}; known: "
                            f"{', '.join(cls._KEYS)}")
                    if key == "class":
                        kwargs["slo_class"] = value
                    else:
                        try:
                            number = float(value)
                        except ValueError:
                            raise ValueError(
                                f"tenant {name!r}: {key} must be a number, "
                                f"got {value!r}") from None
                        if key == "weight":
                            kwargs["weight"] = number
                        elif key == "quota":
                            kwargs["quota_rps"] = number
                        elif key == "burst":
                            kwargs["burst"] = number
                        elif key == "p99":
                            kwargs["slo_p99"] = number / 1e3
                        elif key == "share":
                            kwargs["share"] = number
            tenants.append(TenantSpec(tenant_id=name, **kwargs))
        return cls(tenants)

    @classmethod
    def from_dict(cls, payload: Dict[str, Dict[str, object]],
                  order: Optional[Sequence[str]] = None) -> "TenantRegistry":
        """Rebuild a registry from its journal-header form.

        ``order`` lists the tenant ids in registry order (a journal header's
        ``tenants`` object has its keys sorted); without it the payload's
        key order is the registry order.
        """
        if order is not None and sorted(order) != sorted(payload):
            raise ValueError(f"tenant order {list(order)} does not list "
                             f"the tenants {sorted(payload)}")
        tenants = []
        for tenant_id in (payload if order is None else order):
            fields = payload[tenant_id]
            tenants.append(TenantSpec(
                tenant_id=tenant_id,
                slo_class=str(fields.get("slo_class", "best_effort")),
                weight=float(fields.get("weight", 1.0)),
                quota_rps=(None if fields.get("quota_rps") is None
                           else float(fields["quota_rps"])),
                burst=(None if fields.get("burst") is None
                       else float(fields["burst"])),
                slo_p99=(None if fields.get("slo_p99") is None
                         else float(fields["slo_p99"])),
                share=float(fields.get("share", 1.0)),
            ))
        return cls(tenants)


def split_phases(phases, registry: TenantRegistry
                 ) -> Dict[str, List[Tuple[float, float]]]:
    """Split one phase trace across tenants by their load shares.

    Returns ``{tenant_id: [ServingPhase, ...]}`` where each tenant's phase
    rates are the trace's rates scaled by the tenant's normalized share.
    Imported lazily where needed to avoid a circular import with
    :mod:`repro.elastic.trace`.
    """
    from repro.elastic.trace import ServingPhase

    shares = registry.shares()
    return {
        tenant_id: [ServingPhase(p.duration, p.rate * fraction)
                    for p in phases]
        for tenant_id, fraction in shares.items()
    }
