"""Persistence for scan datasets.

Measurement campaigns are worth keeping: this module serializes a
:class:`~repro.scanner.hourly.ScanDataset` to JSON-lines (one probe
per line, streaming-friendly) and exports figure-ready CSV series.
"""

from __future__ import annotations

import csv
import io
import json
from typing import IO, Iterable, List, Optional, Union

from ..ocsp import CertStatus
from .hourly import ScanDataset
from .results import ProbeOutcome, ProbeRecord

_FORMAT_VERSION = 1


def record_to_dict(record: ProbeRecord) -> dict:
    """One probe in the wire format of scan files and shard rows."""
    data = {
        "vantage": record.vantage,
        "url": record.responder_url,
        "family": record.family,
        "serial": record.serial_number,
        "ts": record.timestamp,
        "outcome": record.outcome.name,
        "elapsed_ms": round(record.elapsed_ms, 3),
        "http_status": record.http_status,
        "cert_status": record.cert_status.value if record.cert_status else None,
        "this_update": record.this_update,
        "next_update": record.next_update,
        "produced_at": record.produced_at,
        "num_certificates": record.num_certificates,
        "num_serials": record.num_serials,
        "size": record.response_size,
    }
    # Parse-error attribution keys are emitted only when present so the
    # wire bytes of well-formed scans are unchanged (the shard cache
    # keys on them).
    if record.parse_error_class is not None:
        data["parse_error_class"] = record.parse_error_class
    if record.parse_error_detail is not None:
        data["parse_error_detail"] = record.parse_error_detail
    if record.parse_error_offset is not None:
        data["parse_error_offset"] = record.parse_error_offset
    return data


#: Name -> member table for :func:`record_from_dict` (a warm scan
#: rerun decodes tens of thousands of rows).
_OUTCOMES = ProbeOutcome.__members__


def record_from_dict(data: dict) -> ProbeRecord:
    """The inverse of :func:`record_to_dict`; an unknown outcome name
    raises ``KeyError`` and an unknown cert status ``ValueError``."""
    get = data.get
    cert_status = get("cert_status")
    return ProbeRecord(
        data["vantage"], data["url"], data["family"], data["serial"],
        data["ts"], _OUTCOMES[data["outcome"]],
        get("elapsed_ms", 0.0), get("http_status"),
        CertStatus(cert_status) if cert_status else None,
        get("this_update"), get("next_update"), get("produced_at"),
        get("num_certificates"), get("num_serials"), get("size"),
        get("parse_error_class"), get("parse_error_detail"),
        get("parse_error_offset"),
    )


def dump_dataset(dataset: ScanDataset, stream: IO[str]) -> int:
    """Write a dataset as JSON-lines; returns the record count.

    The first line is a header object carrying the campaign metadata.
    """
    header = {
        "format": "repro-scan",
        "version": _FORMAT_VERSION,
        "vantages": list(dataset.vantages),
        "interval": dataset.interval,
        "start": dataset.start,
        "end": dataset.end,
    }
    stream.write(json.dumps(header) + "\n")
    for record in dataset.records:
        stream.write(json.dumps(record_to_dict(record)) + "\n")
    return len(dataset.records)


def load_dataset(stream: IO[str]) -> ScanDataset:
    """Read a dataset written by :func:`dump_dataset`."""
    header_line = stream.readline()
    if not header_line:
        raise ValueError("empty scan file")
    header = json.loads(header_line)
    if header.get("format") != "repro-scan":
        raise ValueError("not a repro scan file")
    if header.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported scan file version: {header.get('version')}")
    dataset = ScanDataset(
        vantages=tuple(header.get("vantages", ())),
        interval=header.get("interval", 3600),
        start=header.get("start", 0),
        end=header.get("end", 0),
    )
    for line in stream:
        line = line.strip()
        if line:
            dataset.records.append(record_from_dict(json.loads(line)))
    return dataset


def dumps_dataset(dataset: ScanDataset) -> str:
    """String-returning convenience wrapper for :func:`dump_dataset`."""
    buffer = io.StringIO()
    dump_dataset(dataset, buffer)
    return buffer.getvalue()


def loads_dataset(text: str) -> ScanDataset:
    """String-accepting convenience wrapper for :func:`load_dataset`."""
    return load_dataset(io.StringIO(text))


def export_success_series_csv(dataset: ScanDataset, stream: IO[str]) -> None:
    """Export Figure-3-shaped data: per (timestamp, vantage) success %."""
    from ..core.availability import analyze_availability
    report = analyze_availability(dataset)
    writer = csv.writer(stream)
    writer.writerow(["timestamp", "vantage", "success_pct"])
    for vantage, points in report.success_series.items():
        for timestamp, success in points:
            writer.writerow([timestamp, vantage, f"{success:.4f}"])


def export_quality_csv(dataset: ScanDataset, stream: IO[str]) -> None:
    """Export Figures 6-9's per-responder aggregates."""
    from ..core.quality import responder_quality
    qualities = responder_quality(dataset)
    writer = csv.writer(stream)
    writer.writerow(["responder_url", "avg_certificates", "avg_serials",
                     "avg_validity", "min_margin"])
    for url, quality in sorted(qualities.items()):
        writer.writerow([
            url,
            "" if quality.avg_certificates is None else f"{quality.avg_certificates:.3f}",
            "" if quality.avg_serials is None else f"{quality.avg_serials:.3f}",
            "" if quality.avg_validity is None else quality.avg_validity,
            "" if quality.min_margin is None else quality.min_margin,
        ])
