"""The schema-versioned record contract, implemented once.

Every persisted format in the library — :class:`~repro.api.report.RunReport`,
the stream :class:`~repro.stream.driver.StreamReport` /
:class:`~repro.stream.driver.EpochRecord`, the serve
:class:`~repro.serve.report.ServeReport` /
:class:`~repro.serve.report.TenantReport`, the
:class:`~repro.stream.updates.EdgeBatch` JSONL wire format, serve
snapshots and the out-of-core ``header.json`` — follows the same rules,
and this module is the only place they are written down:

* **schema check** — :func:`check_schema` rejects a version the reader
  does not list with one ``ValueError`` shape naming the family, so a
  file written by a future incompatible layout fails loudly instead of
  loading with silently dropped fields;
* **dict round-trip** — :class:`Record` derives ``to_dict`` /
  ``from_dict`` from the dataclass fields: ``int``/``float`` fields are
  coerced, dict and list fields are copied, lists of nested records
  recurse, and a payload without ``schema`` is read as the family's
  :attr:`Record.missing_schema`;
* **JSON** — :func:`dump_json` (``sort_keys``, one line by default) is
  the single encoder, so every record's bytes are canonical;
* **JSONL** — :func:`iter_jsonl` reads one record per line through the
  crash-tolerant :func:`~repro.utils.jsonl.parse_jsonl_lines`;
* **durability** — :func:`atomic_write` lands a file through a temp file
  in the same directory, flushed and fsynced, then ``os.replace``-d over
  the target: a crash at any instant leaves the old file or the new one,
  never a torn one.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import tempfile
from typing import (
    IO,
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    Optional,
    Tuple,
    TypeVar,
    Union,
    get_args,
    get_origin,
    get_type_hints,
)

from repro.utils.jsonl import parse_jsonl_lines

T = TypeVar("T")

# Field metadata for a field ``from_dict`` must find in the payload even
# though its type alone (a dict or list) would let it load as empty.
REQUIRED_ON_LOAD = {"required_on_load": True}


def check_schema(family: str, schema: Any, supported: Tuple[int, ...]) -> Any:
    """Return ``schema`` if ``supported`` lists it, else raise ``ValueError``."""
    if schema not in supported:
        raise ValueError(
            f"unsupported {family} schema version {schema!r}; "
            f"supported: {supported}"
        )
    return schema


def dump_json(payload: Any, indent: Optional[int] = None) -> str:
    """The canonical encoding of a record: sorted keys, one line by default."""
    return json.dumps(payload, indent=indent, sort_keys=True)


def read_json(path: Any, family: str, supported: Tuple[int, ...]) -> Dict[str, Any]:
    """Load a JSON document whose ``schema`` key ``supported`` must list."""
    with open(path, "r", encoding="utf-8") as stream:
        payload = json.load(stream)
    check_schema(family, payload.get("schema"), supported)
    return payload


def _open_utf8(path: Any) -> IO[str]:
    return open(path, "r", encoding="utf-8")


def iter_jsonl(
    path: Any,
    parse: Callable[[str], T],
    opener: Callable[[Any], IO[str]] = _open_utf8,
) -> Iterator[T]:
    """Yield ``parse(line)`` for each record of the JSONL file at ``path``.

    ``opener`` opens ``path`` as text: plain UTF-8 by default, so report
    files stay uncompressed; the batch reader passes a gzip-aware one.
    Crash-tolerant: a truncated final line (a writer killed mid-append)
    is skipped with a :class:`~repro.utils.jsonl.TruncatedJSONLWarning`;
    a record failing to parse mid-file raises a line-numbered
    :class:`~repro.utils.jsonl.JSONLCorruptionError`.
    """
    with opener(path) as stream:
        yield from parse_jsonl_lines(stream, parse, source=path)


def atomic_write(path: Any, write_body: Callable[[IO[bytes]], Any]) -> None:
    """Create or replace the file at ``path`` with what ``write_body`` writes.

    The body goes to a temp file in the destination directory (so the
    final rename never crosses a filesystem), which is flushed, fsynced
    and ``os.replace``-d over ``path``; on any failure the temp file is
    removed and the error re-raised, leaving ``path`` untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    descriptor, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(descriptor, "wb") as stream:
            write_body(stream)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def write_json(path: Any, payload: Dict[str, Any]) -> None:
    """Atomically write ``payload`` at ``path`` in its canonical encoding."""
    body = dump_json(payload).encode("utf-8")
    atomic_write(path, lambda stream: stream.write(body))


# ---------------------------------------------------------------------------
# dataclass records
# ---------------------------------------------------------------------------

_REQUIRED = object()


def _identity(value: Any) -> Any:
    return value


def _field_codec(hint: Any) -> Tuple[Callable, Callable, Optional[Callable]]:
    """``(dump, load, empty)`` for a field annotated ``hint``.

    ``empty`` builds the value a payload without the key loads as when the
    field has no dataclass default (``None`` means the key is required).
    """
    origin = get_origin(hint)
    if hint in (int, float):
        return _identity, hint, None
    if origin is dict:
        return dict, dict, dict
    if origin is list:
        (item,) = get_args(hint)
        if isinstance(item, type) and issubclass(item, Record):
            return (
                lambda records: [record.to_dict() for record in records],
                lambda payloads: [item.from_dict(p) for p in payloads],
                list,
            )
        return list, list, list
    if origin is Union and type(None) in get_args(hint):
        return _identity, _identity, lambda: None
    return _identity, _identity, None


@functools.lru_cache(maxsize=None)
def _fields(cls: type) -> Tuple[Tuple[str, Callable, Callable, Any], ...]:
    """``(name, dump, load, missing)`` per dataclass field of ``cls``."""
    hints = get_type_hints(cls)
    plan = []
    for spec in dataclasses.fields(cls):
        dump, load, empty = _field_codec(hints[spec.name])
        if spec.default is not dataclasses.MISSING:
            missing: Any = functools.partial(_identity, spec.default)
        elif spec.default_factory is not dataclasses.MISSING:
            missing = spec.default_factory
        elif empty is None or spec.metadata.get("required_on_load"):
            missing = _REQUIRED
        else:
            missing = empty
        plan.append((spec.name, dump, load, missing))
    return tuple(plan)


class Record:
    """Base of the frozen dataclass records; see the module docstring.

    A versioned family sets :attr:`family` and :attr:`schemas` and has a
    ``schema`` field; a record nested inside one (an epoch, a tenant)
    sets neither and is versioned by its parent.
    """

    family: ClassVar[str] = ""
    schemas: ClassVar[Tuple[int, ...]] = ()
    # The version a payload without a ``schema`` key is read as (``None``
    # rejects such payloads).
    missing_schema: ClassVar[Optional[int]] = None

    def __post_init__(self) -> None:
        if "schema" in self.__dataclass_fields__:
            check_schema(self.family, self.schema, self.schemas)

    @classmethod
    def payload_schema(cls, payload: Dict[str, Any]) -> Any:
        """The checked schema version of a serialized ``payload``."""
        return check_schema(
            cls.family, payload.get("schema", cls.missing_schema), cls.schemas
        )

    def to_dict(self) -> Dict[str, Any]:
        """A plain-dict snapshot, safe for ``json.dumps``."""
        return {
            name: dump(getattr(self, name))
            for name, dump, _, _ in _fields(type(self))
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        """Serialize to a JSON string (one line by default, for JSONL)."""
        return dump_json(self.to_dict(), indent)

    @classmethod
    def from_dict(cls: type, payload: Dict[str, Any]) -> Any:
        """Rebuild a record from :meth:`to_dict` output."""
        # The version is checked first: a payload of an unknown version is
        # rejected as such, whatever else it lacks.
        values: Dict[str, Any] = {}
        if "schema" in cls.__dataclass_fields__:
            values["schema"] = cls.payload_schema(payload)
        for name, _, load, missing in _fields(cls):
            if name in values:
                continue
            if name in payload:
                values[name] = load(payload[name])
            elif missing is _REQUIRED:
                raise KeyError(name)
            else:
                values[name] = missing()
        return cls(**values)

    @classmethod
    def from_json(cls: type, text: str) -> Any:
        """Rebuild a record from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
