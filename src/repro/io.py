"""JSON (de)serialization for structures and queries.

Databases travel as ``{"relations": {"E": [[1, 2], ...]}, "domain": [...]}``
and queries in the paper's rule notation.  Used by the CLI and handy for
saving workloads.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.cq.parser import parse_query
from repro.cq.query import ConjunctiveQuery
from repro.cq.structure import Structure


def structure_to_dict(structure: Structure) -> dict[str, Any]:
    """A JSON-ready representation of a structure."""
    return {
        "relations": {
            name: sorted((list(row) for row in rows), key=repr)
            for name, rows in structure.relations.items()
        },
        "domain": sorted(structure.domain, key=repr),
    }


def structure_from_dict(data: dict[str, Any]) -> Structure:
    """Rebuild a structure from :func:`structure_to_dict` output."""
    if "relations" not in data:
        raise ValueError('expected a "relations" key')
    relations = {
        name: [tuple(row) for row in rows]
        for name, rows in data["relations"].items()
    }
    return Structure(relations, domain=data.get("domain", ()))


def dump_structure(structure: Structure, path: str | Path) -> None:
    Path(path).write_text(json.dumps(structure_to_dict(structure), indent=2))


def load_structure(path: str | Path) -> Structure:
    return structure_from_dict(json.loads(Path(path).read_text()))


def dump_query(query: ConjunctiveQuery, path: str | Path) -> None:
    Path(path).write_text(str(query) + "\n")


def load_query(path: str | Path) -> ConjunctiveQuery:
    return parse_query(Path(path).read_text())
