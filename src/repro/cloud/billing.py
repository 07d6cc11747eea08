"""Cost accounting across providers.

The paper's LB exists "to minimise costs and maintain instance
responsiveness": private instances are effectively sunk cost (power and
amortisation), public ones bill per second of runtime.  The meter records
instance start/stop events and prices them with a :class:`PriceTable`, so
benches can report the cost side of every scheduling policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cloud.instance import Instance
from repro.sim import Simulator


@dataclass(frozen=True)
class PriceTable:
    """Per-provider hourly prices by flavor name.

    ``minimum_billed_seconds`` models public-cloud minimum billing
    granularity (AWS bills per-second with a 60 s floor).
    """

    hourly_by_flavor: Dict[str, float]
    minimum_billed_seconds: float = 0.0

    def rate_per_second(self, flavor_name: str) -> float:
        """Price of one second of the named flavor."""
        try:
            return self.hourly_by_flavor[flavor_name] / 3600.0
        except KeyError:
            raise KeyError(f"no price for flavor {flavor_name!r}") from None

    def cost(self, flavor_name: str, seconds: float) -> float:
        """Cost of running ``flavor_name`` for ``seconds``."""
        billed = max(seconds, self.minimum_billed_seconds)
        return self.rate_per_second(flavor_name) * billed


@dataclass
class _UsageRecord:
    instance_id: str
    provider: str
    flavor_name: str
    started_at: float
    stopped_at: Optional[float] = None


@dataclass
class BillingMeter:
    """Accumulates usage records and prices them on demand."""

    sim: Simulator
    prices: Dict[str, PriceTable] = field(default_factory=dict)
    _records: List[_UsageRecord] = field(default_factory=list)
    _open: Dict[str, _UsageRecord] = field(default_factory=dict)

    def register_provider(self, provider_name: str, table: PriceTable) -> None:
        """Attach the price table used for ``provider_name``."""
        self.prices[provider_name] = table

    def instance_started(self, instance: Instance) -> None:
        """Begin accruing cost for ``instance`` from now."""
        record = _UsageRecord(
            instance_id=instance.instance_id,
            provider=instance.provider_name,
            flavor_name=instance.flavor.name,
            started_at=self.sim.now,
        )
        self._records.append(record)
        self._open[instance.instance_id] = record

    def instance_stopped(self, instance: Instance) -> None:
        """Stop accruing cost for ``instance``; idempotent."""
        record = self._open.pop(instance.instance_id, None)
        if record is not None:
            record.stopped_at = self.sim.now

    def _record_cost(self, record: _UsageRecord) -> float:
        stopped = record.stopped_at if record.stopped_at is not None else self.sim.now
        table = self.prices.get(record.provider)
        if table is None:
            return 0.0
        return table.cost(record.flavor_name, stopped - record.started_at)

    def cost_by_provider(self) -> Dict[str, float]:
        """Total accrued cost per provider (open records priced to now)."""
        totals: Dict[str, float] = {}
        for record in self._records:
            totals[record.provider] = (totals.get(record.provider, 0.0)
                                       + self._record_cost(record))
        return totals
