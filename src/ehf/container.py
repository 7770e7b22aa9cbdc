"""The one binary layout of path sets, forests, forecast labels and checkpoints.

Little-endian: a magic and u32 version, a u16-length tag, a u32-length JSON
meta object, a u32 block count, then per block a u16-length name, u8 ndim,
ndim u64 dimensions and the float64 values. Blocks are sorted by name, so the
same content always gives the same bytes. Each kind has its own magic and
version, and one reader checks every kind the same way.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .errors import IntegrityError

# kind -> (magic, version)
FORMATS = {"checkpoint": (b"EHFM", 1), "paths": (b"EHFP", 3), "forest": (b"EHFF", 1),
           "forecast": (b"EHFL", 1)}


def save(filename, kind: str, blocks: dict[str, np.ndarray], meta: dict,
         tag: str = "") -> None:
    """Write `blocks` (as float64), `meta` and `tag` in the layout of `kind`."""
    meta_blob = json.dumps(meta, sort_keys=True).encode()
    tag_blob = tag.encode()
    with open(filename, "wb") as fh:
        fh.write(struct.pack("<4sIH", *FORMATS[kind], len(tag_blob)) + tag_blob)
        fh.write(struct.pack("<I", len(meta_blob)) + meta_blob)
        fh.write(struct.pack("<I", len(blocks)))
        for name in sorted(blocks):
            name_blob = name.encode()
            arr = np.ascontiguousarray(blocks[name], dtype="<f8")
            fh.write(struct.pack("<H", len(name_blob)) + name_blob)
            fh.write(struct.pack(f"<B{arr.ndim}Q", arr.ndim, *arr.shape))
            fh.write(arr.tobytes())


def load(filename, kind: str) -> tuple[str, dict, dict[str, np.ndarray]]:
    """(tag, meta, blocks) of a `kind` file; IntegrityError for another magic
    or version, a cut-short header or block, trailing bytes, an undecodable
    tag, name or meta, or a repeated block name."""
    with open(filename, "rb") as fh:
        raw = fh.read()
    offset = 0

    def take(fmt: str) -> tuple:
        """Unpack fmt at the offset and move past it; struct.error if cut short."""
        nonlocal offset
        values = struct.unpack_from("<" + fmt, raw, offset)
        offset += struct.calcsize("<" + fmt)
        return values

    try:
        magic, version = take("4sI")
        if (magic, version) != FORMATS[kind]:
            raise IntegrityError(f"{filename}: magic {magic!r} version {version} is "
                                 f"not a {kind} file {FORMATS[kind]}")
        tag = take(f"{take('H')[0]}s")[0].decode()
        meta = json.loads(take(f"{take('I')[0]}s")[0].decode())
        if not isinstance(meta, dict):
            raise IntegrityError(f"{filename}: meta is not a JSON object")
        blocks = {}
        for _ in range(take("I")[0]):
            name = take(f"{take('H')[0]}s")[0].decode()
            shape = take(f"{take('B')[0]}Q")
            if name in blocks:
                raise IntegrityError(f"{filename}: block {name!r} repeats")
            # frombuffer checks the size against the bytes left; astype allocates
            view = np.frombuffer(raw, "<f8", math.prod(shape), offset)
            blocks[name] = view.reshape(shape).astype(np.float64)
            offset += view.nbytes
    except (struct.error, ValueError, OverflowError) as exc:
        # a cut-short header; bad UTF-8 or JSON, a block past the end or an
        # impossible shape; a size beyond any buffer
        raise IntegrityError(f"{filename}: truncated or malformed {kind} file "
                             f"({exc})") from exc
    if offset != len(raw):
        raise IntegrityError(f"{filename}: {len(raw) - offset} trailing bytes")
    return tag, meta, blocks
