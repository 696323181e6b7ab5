"""Routing substrate: pre-route estimation, global routing, RUDY maps."""

from .estimator import ParasiticsProvider, PreRouteEstimator, hpwl, manhattan
from .router import (
    CongestionGrid,
    GlobalRouter,
    RoutedParasitics,
    route_design,
)
from .rudy import rudy_map

__all__ = [
    "CongestionGrid",
    "GlobalRouter",
    "ParasiticsProvider",
    "PreRouteEstimator",
    "RoutedParasitics",
    "hpwl",
    "manhattan",
    "route_design",
    "rudy_map",
]
