"""The EVOp facade: one object wiring the whole observatory.

:class:`~repro.core.evop.Evop` builds Figure 1 end to end — hybrid
cloud, network, storage, Model Library, Infrastructure Manager (RB +
LB), asset catalogue, sensor deployments and the LEFT tools — from an
:class:`~repro.core.config.EvopConfig`, on one
:class:`~repro.core.cell.Cell` (a region's stack; a geo estate stamps
several).  Examples and benchmarks start here.
"""

from repro.core.admin import AdminConsole
from repro.core.cell import Cell
from repro.core.config import EvopConfig
from repro.core.evop import Evop

__all__ = ["AdminConsole", "Cell", "Evop", "EvopConfig"]
