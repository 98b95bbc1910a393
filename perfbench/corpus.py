"""Frozen benchmark inputs: loading, digest check and the union builder.

The corpus lives in ``perfbench/corpus/`` as plain datum text, one file per
workload (data separated by their ``format=`` header lines), plus
``planted.json`` naming the planted cancellation pairs and the outcome each
was built to have.  ``SHA256SUMS`` pins every file; ``load_corpus`` refuses
to return anything when a digest differs, so an edit to the generator or to
a corpus file cannot silently change what the benchmark measures.
``make_corpus.py`` rebuilds the files.
"""

import hashlib
import json
from pathlib import Path

from halfhandle.morse_data import CriticalPoint, Flags, MorseDatum
from halfhandle.slice_topology import ComponentEffect, SliceComplex, SliceComponent
from halfhandle.trajectory import FlowEdge, TrajectoryGraph

CORPUS_DIR = Path(__file__).resolve().parent / "corpus"
DATA_FILES = ("split_deep", "split_codim1", "small_batch", "checked_moves")
DATUM_HEADER = "format=halfhandle-datum/1\n"
UNION_PREFIX = "u%02d_"


class CorpusError(Exception):
    pass


def split_data(text):
    """Datum texts of a concatenated corpus file, in file order."""
    parts = text.split(DATUM_HEADER)
    if parts[0]:
        raise CorpusError("corpus file does not start with a datum header")
    return [DATUM_HEADER + part for part in parts[1:]]


def read_sums(corpus_dir=CORPUS_DIR):
    sums = {}
    for line in (corpus_dir / "SHA256SUMS").read_text().splitlines():
        digest, name = line.split(None, 1)
        sums[name.lstrip("*")] = digest
    return sums


def load_corpus(corpus_dir=CORPUS_DIR):
    """{workload: [datum text]} plus the planted pair list, digest checked."""
    sums = read_sums(corpus_dir)
    raw = {}
    for name in sorted(sums):
        blob = (corpus_dir / name).read_bytes()
        if hashlib.sha256(blob).hexdigest() != sums[name]:
            raise CorpusError("sha256 mismatch for corpus file %s" % name)
        raw[name] = blob.decode("utf-8")
    missing = ({n + ".data" for n in DATA_FILES} | {"planted.json"}) - set(raw)
    if missing:
        raise CorpusError("corpus files missing from SHA256SUMS: %s" % sorted(missing))
    texts = {n: split_data(raw[n + ".data"]) for n in DATA_FILES}
    return texts, json.loads(raw["planted.json"])


def disjoint_union(*data):
    """Place cobordisms side by side in one datum.

    Every point, edge endpoint and component id of piece ``i`` gets the
    prefix ``UNION_PREFIX % i`` (``u00_``, ``u01_``, ...); points, edges,
    bottom components and effects are concatenated.  All pieces must share
    one ambient pair.  A flag holds for the union when it holds for every
    piece.
    """
    if not data:
        raise ValueError("disjoint_union needs at least one datum")
    ambient = data[0].ambient
    points, edges, bottom, effects = [], [], [], []
    flags = [True, True, True]
    for i, d in enumerate(data):
        pre = UNION_PREFIX % i
        if d.ambient != ambient:
            raise ValueError("pieces of a union must share the ambient pair")
        points += [CriticalPoint(pre + p.id, p.kind, p.index, p.value) for p in d.points]
        edges += [
            FlowEdge(pre + e.src, pre + e.dst, e.count, e.locus) for e in d.graph.edges
        ]
        bottom += [SliceComponent(pre + c.id, c.touches_wall) for c in d.slices.bottom]
        effects += [
            ComponentEffect(
                pre + e.at,
                e.kind,
                tuple(pre + cid for cid in e.inputs),
                tuple(SliceComponent(pre + c.id, c.touches_wall) for c in e.outputs),
            )
            for e in d.slices.effects
        ]
        f = d.flags
        flags = [
            flags[0] and f.no_closed_cobordism,
            flags[1] and f.no_closed_bottom,
            flags[2] and f.no_closed_top,
        ]
    return MorseDatum(
        ambient,
        tuple(points),
        TrajectoryGraph(tuple(edges)),
        SliceComplex(tuple(bottom), tuple(effects)),
        Flags(*flags),
    )
