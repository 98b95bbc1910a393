"""The benchmark's view of the package: traced names and seed-1 outputs.

``perfbench/run.py`` lists the functions it times in ``SPANNED`` and counts
calls of two methods, and the benchmark's scripts import names from the
top-level package or read them off it.  A rename or removal in the package
would otherwise show only when the benchmark runs with ``--trace 1``, or
when its corpus is rebuilt or its self test runs.  The seed-1 output
digests of the split workloads are pinned in ``perfbench/BASELINE.json``;
the driver's output must keep them byte for byte.
"""

import ast
import hashlib
import json
import os
import subprocess
import sys

import halfhandle
from halfhandle.morse_data import CriticalPoint
from halfhandle.slice_topology import SliceComplex

from helpers import PERFBENCH, benchmark_workload
from helpers import perfbench_module as load


def package_names_in_perfbench():
    """The names ``perfbench/*.py`` imports from the top-level package
    (``from halfhandle import ...``) or reads off it (``halfhandle.<name>``)."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "halfhandle":
                names.update(alias.name for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "halfhandle"):
                names.add(node.attr)
    return names


def test_every_traced_name_resolves_on_the_package():
    spanned = load("run").SPANNED
    assert spanned
    for module, attrs in spanned.items():
        for attr in attrs:
            assert callable(getattr(getattr(halfhandle, module), attr)), (module, attr)
    assert callable(SliceComplex.effect_for)
    assert callable(CriticalPoint.__post_init__)
    # every name the benchmark takes from the top level, and every module
    # it reads there with getattr, in a fresh interpreter: here a module
    # another test imported is an attribute of the package already
    names = package_names_in_perfbench() | set(spanned)
    assert {"generate", "parse_datum", "global_split", "normal_form"} <= names
    probe = ("import sys, halfhandle; "
             "print(sorted(n for n in sys.argv[1:] if not hasattr(halfhandle, n)))")
    env = dict(os.environ, PYTHONPATH=str(PERFBENCH.parent / "src"))
    proc = subprocess.run([sys.executable, "-B", "-c", probe] + sorted(names),
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


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
