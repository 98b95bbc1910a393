"""The four benchmark workloads and the checks run on every operation.

A workload is built from the frozen corpus and a seed (that is its set-up)
and then driven one ``step`` at a time by a closed loop in ``run.py``.
Each step times its calls through ``Recorder.timed``, checks what they
returned, and reports every operation to the recorder with the list of
problems found (empty when the operation was correct).

Library calls go through module attributes looked up at call time
(``normal_form.global_split``, not a name bound at import), so a tracer
that wraps those attributes sees them.
"""

import hashlib
import random
from collections import Counter
from time import perf_counter

import halfhandle.cli_io as cli_io
import halfhandle.morse_data as morse_data
import halfhandle.moves as moves
import halfhandle.normal_form as normal_form
from halfhandle.errors import MoveError, ValidationError

from corpus import UNION_PREFIX, disjoint_union

REARRANGE_SAMPLE = 450
MAX_PROBLEMS = 5  # failure messages kept for the report


class Recorder:
    """Timing samples, operation counts, failures and the output digest.

    A sample is a list of wall-clock ``(start, end)`` intervals; ``begin``
    opens a sample that gathers several timed calls until ``end``, which
    keeps it or drops it.  The
    intervals are turned into durations after the run, by ``durations``.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = {"op": [], "replay": []}
        self._open = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.outcomes = Counter()
        self.digest = hashlib.sha256()

    def begin(self, kind):
        self.samples[kind].append([])
        self._open = kind

    def end(self, keep=True):
        if not keep:
            self.samples[self._open].pop()
        self._open = None

    def timed(self, kind, fn, *args, trace=True):
        """Call ``fn(*args)``, adding its wall interval to the ``kind`` samples.

        The tracer, when there is one and ``trace`` is set, records only
        inside this window.
        """
        tracer = self.tracer if trace else None
        if tracer is not None:
            tracer.op_id = self.attempted
            tracer.active = True
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            interval = (start, perf_counter())
            if tracer is not None:
                tracer.active = False
            if self._open == kind:
                self.samples[kind][-1].append(interval)
            else:
                self.samples[kind].append([interval])

    def durations(self, kind, seconds):
        """One duration per ``kind`` sample; ``seconds(start, end)`` measures an interval."""
        return [sum(seconds(s, e) for s, e in sample) for sample in self.samples[kind]]

    def finish_op(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            room = MAX_PROBLEMS - len(self.problems)
            self.problems.extend(problems[:max(room, 0)])

    def output(self, *texts):
        for text in texts:
            self.digest.update(text.encode("utf-8"))
            self.digest.update(b"\0")


def replay_texts(input_text, script_text):
    """The replay unit: re-parse both texts and apply the script."""
    return moves.apply_script(cli_io.parse_datum(input_text), cli_io.parse_script(script_text))


def expected_style(ambient):
    if ambient.codim >= 2:
        return "half_handle"
    return "trivial" if ambient.n == 1 else "monotone"


def split_range(ambient):
    """Interior indices the normal form driver splits."""
    n = ambient.n
    return (1, n) if ambient.codim >= 2 else (2, n - 1)


def normal_form_problems(datum, out, dec, script, texts, replayed):
    """Everything a normal form result must satisfy; [] when it does."""
    out_text, script_text, _ = texts
    problems = []
    lo, hi = split_range(datum.ambient)
    if not normal_form.verify_decomposition(out, dec):
        problems.append("verify_decomposition rejects the driver's report")
    issues = morse_data.validate_datum(out)
    if issues:
        problems.append("normal form is invalid: %s" % issues[0])
    if dec.style != expected_style(datum.ambient):
        problems.append("style %s at codim %d, n=%d" % (dec.style, datum.ambient.codim, datum.ambient.n))
    if lo <= hi and out.interior_points(lo, hi):
        problems.append("interior points of index %d..%d remain" % (lo, hi))
    wanted = len(datum.interior_points(lo, hi)) if lo <= hi else 0
    splits = sum(1 for r in script if r.kind == "split")
    if splits != wanted:
        problems.append("%d splits for %d interior points in range" % (splits, wanted))
    if cli_io.serialize_datum(replayed) != out_text:
        problems.append("replayed script does not give the normal form")
    if cli_io.serialize_datum(cli_io.parse_datum(out_text)) != out_text:
        problems.append("normal form text does not round-trip")
    if cli_io.serialize_script(cli_io.parse_script(script_text)) != script_text:
        problems.append("script text does not round-trip")
    return problems


def serialized(out, dec, script):
    return (
        cli_io.serialize_datum(out),
        cli_io.serialize_script(script),
        cli_io.serialize_decomposition(dec),
    )


class SplitUnion:
    """One union of frozen pieces driven to normal form, then replayed.

    An operation is one ``global_split`` of the union; its replay is timed
    separately.  The pool is a list of matched pairs (pieces ``2j`` and
    ``2j + 1`` split equally often); the seed picks one piece of each pair
    and the order of the union (piece ids are prefixed by position).
    """

    unit = "global_split of the union"
    min_steps = 1

    @staticmethod
    def aliases(stats):
        return {"normal_form_s": (stats["op_mid_ms"] / 1e3, "s")}

    def __init__(self, texts, planted, seed):
        rng = random.Random(seed)
        chosen = [2 * j + rng.randrange(2) for j in range(len(texts) // 2)]
        rng.shuffle(chosen)
        data = [cli_io.parse_datum(texts[i]) for i in chosen]
        self.datum = disjoint_union(*data)
        self.text = cli_io.serialize_datum(self.datum)
        self.first = None
        self.splits = 0

    def input_problems(self):
        if cli_io.serialize_datum(cli_io.parse_datum(self.text)) != self.text:
            return ["union text does not round-trip"]
        issues = morse_data.validate_datum(self.datum)
        return ["union is invalid: %s" % issues[0]] if issues else []

    def step(self, rec):
        try:
            out, dec, script = rec.timed("op", normal_form.global_split, self.datum)
        except Exception as exc:  # counted as a failed operation, the run goes on
            rec.finish_op(["global_split raised %r" % (exc,)])
            return
        texts = serialized(out, dec, script)
        try:
            replayed = rec.timed("replay", replay_texts, self.text, texts[1])
        except Exception as exc:
            rec.finish_op(["replay raised %r" % (exc,)])
            return
        problems = normal_form_problems(self.datum, out, dec, script, texts, replayed)
        if self.first is None:
            self.first = texts
            self.splits = sum(1 for r in script if r.kind == "split")
            rec.output(*texts)
        elif texts != self.first:
            problems.append("global_split output differs between runs")
        rec.outcomes["splits"] += sum(1 for r in script if r.kind == "split")
        rec.finish_op(problems)

    def coverage_problems(self):
        return [] if self.splits > 0 else ["the union never takes the split path"]


def pipeline(text):
    """In-process ``halfhandle normal-form``: parse, validate, drive, serialize."""
    datum = cli_io.parse_datum(text)
    issues = morse_data.validate_datum(datum)
    if issues:
        raise ValidationError("invalid input datum", issues=issues)
    out, dec, script = normal_form.global_split(datum)
    return (datum, out, dec, script) + serialized(out, dec, script)


class SmallBatch:
    """Hundreds of small data, each a short request through the pipeline.

    An operation is one datum through ``pipeline``.  A step is one pass over
    the whole batch in the order the seed fixes, so a run times every datum
    equally often.  The digest covers the first pass in corpus order, so it
    does not depend on the seed.
    """

    unit = "one small datum through parse, validate, global_split, serialize"
    min_steps = 1

    @staticmethod
    def aliases(stats):
        return {"pipeline_p50_ms": (stats["op_p50_ms"], "ms"),
                "pipeline_p90_ms": (stats["op_p90_ms"], "ms")}

    def __init__(self, texts, planted, seed):
        self.texts = list(texts)
        self.order = list(range(len(texts)))
        random.Random(seed).shuffle(self.order)
        self.expected = {}
        self.styles = Counter()

    def input_problems(self):
        bad = sum(1 for t in self.texts if cli_io.serialize_datum(cli_io.parse_datum(t)) != t)
        return ["%d batch texts do not round-trip" % bad] if bad else []

    def step(self, rec):
        first = not self.expected
        for i in self.order:
            rec.finish_op(self._datum(rec, i))
        if first and len(self.expected) == len(self.texts):
            for k in range(len(self.texts)):
                rec.output(*self.expected[k])

    def _datum(self, rec, i):
        text = self.texts[i]
        try:
            datum, out, dec, script, *texts = rec.timed("op", pipeline, text)
            replayed = rec.timed("replay", replay_texts, text, texts[1])
        except Exception as exc:
            return ["datum %d raised %r" % (i, exc)]
        texts = tuple(texts)
        if i not in self.expected:
            self.expected[i] = texts
            self.styles[dec.style, bool(script)] += 1
            return normal_form_problems(datum, out, dec, script, texts, replayed)
        problems = []
        if texts != self.expected[i]:
            problems.append("datum %d: output differs between passes" % i)
        if cli_io.serialize_datum(replayed) != texts[0]:
            problems.append("datum %d: replay does not give the normal form" % i)
        return problems

    def coverage_problems(self):
        problems = []
        if len(self.expected) < len(self.texts):
            problems.append("the run ended before one full pass")
        for style in ("trivial", "monotone", "half_handle"):
            if not any(s == style for s, _ in self.styles):
                problems.append("no %s normal form in the batch" % style)
        if not any(not moved for _, moved in self.styles):
            problems.append("no already-normal datum in the batch")
        return problems


class CheckedMoves:
    """Single checked moves on one fixed base datum.

    A pass tries ``cancel_pair`` on every edge, ``rearrange_pair`` (swap
    the two values) on a seeded sample of pairs and ``split_interior`` on
    every interior point of index 1..n.  An operation is one pass, timed as
    the sum of its attempts; ``attempted`` and ``failed`` count attempts.
    Refusals are expected outcomes.  The planted pairs must end exactly as
    they were built to, and every accepted result of the first pass must
    validate and replay (those replays are the workload's replay samples);
    later passes must reproduce the first one exactly.
    """

    unit = "one pass over the fixed move attempt list"
    min_steps = 2

    def aliases(self, stats):
        return {"attempts_per_s": (len(self.attempts) / (stats["op_mid_ms"] / 1e3), "1/s")}

    def __init__(self, texts, planted, seed):
        rng = random.Random(seed)
        order = list(range(len(texts)))
        rng.shuffle(order)
        position = {piece: k for k, piece in enumerate(order)}
        data = [cli_io.parse_datum(texts[i]) for i in order]
        self.base = disjoint_union(*data)
        self.text = cli_io.serialize_datum(self.base)
        expect = {}
        for entry in planted:
            pre = UNION_PREFIX % position[entry["piece"]]
            expect[tuple(pre + pid for pid in entry["pair"])] = entry["expect"]
        self.planted = expect

        attempts = [("cancel", (e.src, e.dst)) for e in self.base.graph.edges]
        points = self.base.points
        by_piece = {}
        for p in points:
            by_piece.setdefault(p.id.split("_", 1)[0], []).append(p)
        pieces = sorted(by_piece)
        while len(attempts) < len(self.base.graph.edges) + REARRANGE_SAMPLE:
            pool = by_piece[rng.choice(pieces)] if len(attempts) % 2 else points
            if len(pool) < 2:
                continue
            z, w = sorted(rng.sample(pool, 2), key=lambda p: p.sort_key())
            if z.value < w.value:
                attempts.append(("rearrange", (z.id, w.id, w.value, z.value)))
        n = self.base.ambient.n
        attempts += [("split", (p.id,)) for p in self.base.interior_points(1, n)]
        self.attempts = attempts
        self.expected = None

    def input_problems(self):
        if cli_io.serialize_datum(cli_io.parse_datum(self.text)) != self.text:
            return ["base text does not round-trip"]
        issues = morse_data.validate_datum(self.base)
        return ["base datum is invalid: %s" % issues[0]] if issues else []

    def _attempt(self, kind, args):
        fn = {"cancel": moves.cancel_pair, "rearrange": moves.rearrange_pair,
              "split": moves.split_interior}[kind]
        return fn(self.base, *args)

    def step(self, rec):
        first = self.expected is None
        if first:
            self.expected = []
        rec.begin("op")
        for j, (kind, args) in enumerate(self.attempts):
            out = None
            try:
                out, record = rec.timed("op", self._attempt, kind, args)
                outcome = "accept"
            except MoveError as exc:
                outcome = type(exc).__name__
            except Exception as exc:
                rec.finish_op(["%s %s raised %r" % (kind, args[:2], exc)])
                if first:
                    self.expected.append((None, None))
                continue
            problems = []
            if first:
                if out is not None:
                    problems += self._accepted_problems(rec, out, record)
                want = self.planted.get(args) if kind == "cancel" else None
                if want is not None and outcome != want:
                    problems.append("planted pair %s: %s, built for %s" % (args, outcome, want))
                self.expected.append((outcome, out))
            elif (outcome, out) != self.expected[j]:
                problems.append("%s %s: outcome differs between passes" % (kind, args[:2]))
            rec.outcomes[kind, outcome] += 1
            rec.finish_op(problems)
        # The first pass runs the checks between its attempts: a warm-up, not a sample.
        rec.end(keep=not first)

    def _replay_problems(self, rec, out, record):
        replayed = rec.timed("replay", replay_texts, self.text, cli_io.serialize_script([record]),
                             trace=False)
        if cli_io.serialize_datum(replayed) != cli_io.serialize_datum(out):
            return ["accepted %s does not replay" % record.kind]
        return []

    def _accepted_problems(self, rec, out, record):
        problems = self._replay_problems(rec, out, record)
        issues = morse_data.validate_datum(out)
        if issues:
            problems.append("accepted %s leaves an invalid datum: %s" % (record.kind, issues[0]))
        out_text = cli_io.serialize_datum(out)
        if cli_io.serialize_datum(cli_io.parse_datum(out_text)) != out_text:
            problems.append("accepted %s result does not round-trip" % record.kind)
        rec.output(out_text, cli_io.serialize_script([record]))
        return problems

    def coverage_problems(self):
        if self.expected is None:
            return ["no complete pass"]
        outcomes = {o for o, _ in self.expected}
        problems = [] if "accept" in outcomes else ["no move was accepted"]
        for reason in sorted(set(self.planted.values()) - {"accept"} - outcomes):
            problems.append("planted refusal %s never seen" % reason)
        return problems


WORKLOADS = {
    "split_deep": SplitUnion,
    "split_codim1": SplitUnion,
    "small_batch": SmallBatch,
    "checked_moves": CheckedMoves,
}

def build(name, corpus_texts, planted, seed):
    return WORKLOADS[name](corpus_texts[name], planted, seed)
