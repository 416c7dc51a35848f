"""Typed error hierarchy.

A class exists for each failure that a caller catches by class or that
an output names (a record's ``parse_error``, a halt reason); any other
failure raises its category's class with a message saying what went
wrong. Nothing in the package raises bare ValueError for a condition a
caller might want to catch.
"""

from __future__ import annotations

import datetime as dt

__all__ = [
    "TradefolioError",
    "AccountingError",
    "AllocationError",
    "UnknownAsset",
    "NegativeWeight",
    "SumOutOfBand",
    "BothSidesSet",
    "ParseError",
    "NoObjectFound",
    "SchemaMismatch",
    "MetricsError",
    "IngestionError",
    "NormalizationError",
    "ProviderError",
    "FeedUnavailable",
    "ClientError",
    "ClientTimeout",
    "ClientRejected",
    "ConfigError",
    "CorruptLog",
]


class TradefolioError(Exception):
    """Base class for all package errors."""


# -- accounting ---------------------------------------------------------

class AccountingError(TradefolioError):
    """A book could not be valued or rebalanced: two asset-keyed mappings
    name different assets, or a rebalance asked for risky exposure with
    no capital to allocate."""


class AllocationError(TradefolioError):
    """A proposed allocation failed validation."""


class UnknownAsset(AllocationError):
    """Allocation names an asset outside the market universe."""


class NegativeWeight(AllocationError):
    """Allocation contains a negative weight."""


class SumOutOfBand(AllocationError):
    """Allocation weights do not sum close enough to one to repair."""


class BothSidesSet(AllocationError):
    """Both outcome sides of one prediction question carry weight."""


# -- response protocol --------------------------------------------------

class ParseError(TradefolioError):
    """Model response could not be turned into an allocation."""


class NoObjectFound(ParseError):
    """Response text contains no parseable JSON object."""


class SchemaMismatch(ParseError):
    """A JSON object was found but does not match the response schema."""


# -- metrics ------------------------------------------------------------

class MetricsError(TradefolioError):
    """A metric could not be computed from the given series."""


# -- ingestion ----------------------------------------------------------

class IngestionError(TradefolioError):
    """Raw market data could not be normalized or stored."""


class NormalizationError(IngestionError):
    """A quoted price is outside every recognised quoting convention."""


class ProviderError(IngestionError):
    """A data provider returned an unusable payload."""


# -- environment / feeds ------------------------------------------------

class FeedUnavailable(TradefolioError):
    """The market data a date needs cannot be had: the store holds no
    price at or before it, or a provider still failed after retries.
    ``date`` names that date."""

    def __init__(self, message: str, date: dt.date) -> None:
        super().__init__(message)
        self.date = date


# -- model clients ------------------------------------------------------

class ClientError(TradefolioError):
    """Chat completion request failed."""


class ClientTimeout(ClientError):
    """Provider did not answer within the configured timeout."""


class ClientRejected(ClientError):
    """Provider rejected the request (auth, quota, bad model id)."""


# -- configuration / persistence ----------------------------------------

class ConfigError(TradefolioError):
    """Run configuration is missing or inconsistent."""


class CorruptLog(TradefolioError):
    """Session log failed structural validation."""
