"""The benchmark's view of the package: traced names and seed-1 outputs.

``perfbench/run.py`` lists the functions it times in ``SPANNED`` and counts
calls of two methods.  A rename or removal in the package would otherwise
show only when the benchmark runs with ``--trace 1``.  The seed-1 output
digests of the split workloads are pinned in ``perfbench/BASELINE.json``;
the driver's output must keep them byte for byte.
"""

import hashlib
import json
import sys

import halfhandle
from halfhandle.morse_data import CriticalPoint
from halfhandle.slice_topology import SliceComplex

from helpers import PERFBENCH, benchmark_workload
from helpers import perfbench_module as load


def test_every_traced_name_resolves_on_the_package():
    spanned = load("run").SPANNED
    assert spanned
    for module, attrs in spanned.items():
        for attr in attrs:
            assert callable(getattr(getattr(halfhandle, module), attr)), (module, attr)
    assert callable(SliceComplex.effect_for)
    assert callable(CriticalPoint.__post_init__)


def test_split_workloads_keep_their_seed_1_output_digests(monkeypatch):
    # one operation of each split workload, built and checked by the
    # benchmark's own code: the union of the seed, global_split, the replay
    # and every check, and the digest of the datum, script and report texts
    pinned = json.loads((PERFBENCH / "BASELINE.json").read_text())["output_sha256_seed1"]
    for name in ("split_deep", "split_codim1"):
        workloads, workload = benchmark_workload(monkeypatch, name, 1)
        rec = workloads.Recorder()
        workload.step(rec)
        assert (rec.attempted, rec.failed, rec.problems) == (1, 0, []), name
        assert rec.digest.hexdigest() == pinned[name], name


def test_make_corpus_rebuilds_every_pinned_corpus_file(monkeypatch):
    # the corpus is frozen bytes made by the generator and the hand-built
    # planted pairs: a generator rewrite must rebuild every file exactly
    monkeypatch.setattr(sys, "path", list(sys.path))  # make_corpus prepends src/
    blobs = load("make_corpus").build()
    sums = (PERFBENCH / "corpus" / "SHA256SUMS").read_text().split("\n")
    pinned = dict(reversed(line.split("  ")) for line in sums if line)
    assert set(blobs) == set(pinned)
    for name, text in blobs.items():
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pinned[name], name
