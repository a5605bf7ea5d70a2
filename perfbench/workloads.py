"""The benchmark's workloads: their inputs, one batch of work, and output checks.

Each workload generates its inputs from the seed in its constructor, names
each op of its batch in ``labels``, runs the fixed batch in ``run_batch`` and
checks every output against the independent references in ``reference``.  Functions are looked up through the flagcalc
modules at call time, so a tracer installed on those modules sees the calls.
"""
from __future__ import annotations

import functools
import gc
import io
import json
import random
import re
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from math import comb
from time import perf_counter

import reference

_LRU_TYPE = type(functools.lru_cache(maxsize=None)(lambda: None))


def clear_caches() -> int:
    """Clear every lru_cache whose function lives in a flagcalc module.

    Caches are found by scanning the live objects rather than from a list of
    names, so caches added to the package later are cleared too.
    """
    found = 0
    for obj in gc.get_objects():
        if isinstance(obj, _LRU_TYPE):
            module = getattr(obj, "__module__", None) or ""
            if module == "flagcalc" or module.startswith("flagcalc."):
                obj.cache_clear()
                found += 1
    return found


@dataclass
class Batch:
    """Outcome of one batch: timings, operation counts and failures."""

    wall_s: float
    latencies: list[float]
    ops: int
    failed: int = 0
    # Failures that are the documented malformed-input defect (uncaught ValueError).
    known: int = 0
    failures: list[str] = field(default_factory=list)
    exit_nonzero: int = 0
    uncaught: int = 0
    # (latency, per-layer self time) of each request; traced cli_mix only.
    request_layers: list[tuple[float, dict[str, float]]] = field(default_factory=list)
    layers: dict[str, float] | None = None
    # Factor from measured to calibrated seconds, set by run.calibrated.
    scale: float = 1.0


def _entry_payload(e) -> dict:
    return {
        "diagram": e.diagram.render(),
        "dim": e.dim,
        "family": e.diagram.components[0][0],
        "marks": [e.i, e.j],
        "r_minus": e.r_minus,
        "r_plus": e.r_plus,
        "rank": e.diagram.rank,
    }


def _mismatch(got: dict, expected: dict) -> str | None:
    bad = {k: (got.get(k), v) for k, v in expected.items() if got.get(k) != v}
    return f"got/expected {bad}" if bad else None


def candidate_pairs(max_rank: int) -> int:
    """Pairs (diagram, i<j) that enumerate_two_bundles scans up to max_rank."""
    ranks = {
        "A": range(2, max_rank + 1),
        "B": range(2, max_rank + 1),
        "C": range(2, max_rank + 1),
        "D": range(4, max_rank + 1),
        "E": range(6, min(8, max_rank) + 1),
        "F": range(4, min(4, max_rank) + 1),
        "G": range(2, min(2, max_rank) + 1),
    }
    return sum(comb(n, 2) for family_ranks in ranks.values() for n in family_ranks)


class EnumerateCold:
    """One enumerate_two_bundles call at max rank 20, every cache cleared first.

    The input is fixed, so the seed changes nothing here.  One op is one
    candidate pair scanned; the call is one latency sample.
    """

    name = "enumerate_cold"
    cold = True

    def __init__(self, api, seed: int, tiny: bool) -> None:
        self.api = api
        self.max_rank = 6 if tiny else 20
        self.pairs = candidate_pairs(self.max_rank)
        self.expected_keys = reference.load_oracles().expected_two_bundle_keys(self.max_rank)
        self.catalogue = [e for e in reference.load_catalogue() if e["rank"] <= self.max_rank]
        self.labels = [f"enumerate_two_bundles({self.max_rank})"]

    def warm(self) -> None:
        clear_caches()
        self.api.homogeneous.enumerate_two_bundles(min(self.max_rank, 8))

    def summary(self) -> dict:
        return {
            "max_rank": self.max_rank,
            "ranks": [2, self.max_rank],
            "candidate_pairs": self.pairs,
            "expected_entries": len(self.expected_keys),
            "repeated_share": 0.0,
            "seed_effect": "none: the input is fixed",
        }

    def check(self, entries) -> str | None:
        keys = [(e.diagram.components[0][0], e.diagram.rank, (e.i, e.j)) for e in entries]
        if len(set(keys)) != len(keys) or set(keys) != self.expected_keys:
            missing = sorted(self.expected_keys - set(keys))[:5]
            extra = sorted(set(keys) - self.expected_keys)[:5]
            return f"entries differ from the oracle list: missing {missing}, extra {extra}"
        low = [_entry_payload(e) for e in entries if e.diagram.rank <= 12]
        if low != self.catalogue:
            return "rank <= 12 entries differ from tests/fixtures/enumerate_rank12.json"
        return None

    def run_batch(self, tracer) -> Batch:
        start = perf_counter()
        try:
            entries = self.api.homogeneous.enumerate_two_bundles(self.max_rank)
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            wall = perf_counter() - start
            return Batch(wall, [wall], self.pairs, self.pairs, failures=[f"uncaught {exc!r}"], uncaught=1)
        wall = perf_counter() - start
        failure = self.check(entries)
        if failure:
            return Batch(wall, [wall], self.pairs, self.pairs, failures=[failure])
        return Batch(wall, [wall], self.pairs)


def drum_fields(built) -> dict:
    return {
        "dim_y": built.dim_y,
        "dim_z": built.dim_z,
        "dim_v_i": built.dim_v_i,
        "dim_v_j": built.dim_v_j,
        "ambient_dim": built.ambient_dim,
        "sink_dim": built.sink.dim,
        "source_dim": built.source.dim,
    }


LEDGER_PAIRS = {
    (divisor, curve)
    for divisor in ("alpha*L", "pi*L-", "pi*L+", "Y+", "Y-", "M+", "M-")
    for curve in ("ell-", "ell+")
}


class DrumCatalog:
    """build_drum, ledger and homogeneous_tags for every catalogue entry of rank <= 12.

    Caches are cleared before each batch; the seed sets the entry order.  One
    op, and one latency sample, is one catalogue entry.
    """

    name = "drum_catalog"
    cold = True

    def __init__(self, api, seed: int, tiny: bool) -> None:
        self.api = api
        self.oracles = reference.load_oracles()
        max_rank = 4 if tiny else 12
        entries = [e for e in reference.load_catalogue() if e["rank"] <= max_rank]
        random.Random(seed).shuffle(entries)
        self.items = [(api.dynkin.parse_diagram(e["diagram"]), e) for e in entries]
        self.labels = [_marked(e) for e in entries]

    def warm(self) -> None:
        clear_caches()
        for d, e in self.items:
            if e["rank"] <= 4:
                self.api.drum.build_drum(d, *e["marks"])

    def summary(self) -> dict:
        ranks = [e["rank"] for _, e in self.items]
        return {
            "entries": len(self.items),
            "ranks": [min(ranks), max(ranks)],
            "repeated_share": 0.0,
            "seed_effect": "entry order",
            "first_entries": self.labels[:3],
        }

    def check(self, entry, built, led, tags) -> str | None:
        failure = _mismatch(drum_fields(built), reference.drum_expectation(entry))
        if failure:
            return failure
        if {pair for pair, _ in led.table} != LEDGER_PAIRS or not all(
            type(value) is int for _, value in led.table
        ):
            return f"ledger table malformed: {led.table}"
        plus, minus = tags.plus, tags.minus
        if plus.diagram.components != (("A", entry["r_plus"]),) or minus.diagram.components != (
            ("A", entry["r_minus"]),
        ):
            return f"tags live on {plus.diagram}, {minus.diagram}"
        oracle = reference.model_tags(entry, self.oracles)
        if oracle is not None and (plus.values, minus.values) != oracle:
            return f"tags {(plus.values, minus.values)} differ from reference {oracle}"
        return None

    def run_batch(self, tracer) -> Batch:
        drum, classifier = self.api.drum, self.api.classifier
        batch = Batch(0.0, [], len(self.items))
        for d, entry in self.items:
            i, j = entry["marks"]
            start = perf_counter()
            try:
                built = drum.build_drum(d, i, j)
                led = drum.ledger(built)
                tags = classifier.homogeneous_tags(d, i, j)
            except Exception as exc:  # a crash is a failed op, not a benchmark error
                failure = f"uncaught {exc!r}"
                batch.uncaught += 1
            else:
                failure = None
            batch.latencies.append(perf_counter() - start)
            failure = failure or self.check(entry, built, led, tags)
            if failure:
                batch.failed += 1
                batch.failures.append(f"{entry['diagram']}{entry['marks']}: {failure}")
        batch.wall_s = sum(batch.latencies)
        return batch


@dataclass(frozen=True)
class Request:
    kind: str
    argv: tuple[str, ...]
    json: bool
    expect: object = None


# One kind per leaf subcommand ("enumerate" covers both spellings).  With no
# usage data to go by, every kind gets the same count per batch; this equal mix
# is an assumption, not a measured one.
KINDS = (
    "roots",
    "gp_dim",
    "gp_fiber",
    "enumerate",
    "tag_reduce",
    "tag_restrict",
    "tag_shape",
    "classify",
    "drum_build",
    "drum_ledger",
)
PER_KIND = 20
MALFORMED_PER_BATCH = 6

# Malformed integer lists.  Under the README's exit-code contract each must
# exit 2 (usage error) with a one-line "error:" message; today each raises an
# uncaught ValueError.
MALFORMED = (
    ("gp", "fiber", "B3{1,3}", "--base", "x"),
    ("tag", "restrict", "A3:1,0,2", "--marks", "1,,2"),
    ("classify", "--r-minus", "1", "--r-plus", "1", "--tag-minus", "a", "--tag-plus", "3"),
)

_ROOT_DIAGRAMS = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(1, 9)]
    + [f"C{n}" for n in range(1, 9)]
    + [f"D{n}" for n in range(2, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)
_FIBER_LINE = re.compile(r"^fiber of \S+ -> \S+: \S+ \(dim (\d+)\)$")
_ENTRY_LINE = re.compile(r"^([A-G])(\d+)\{(\d+),(\d+)\}  r-=(\d+) r\+=(\d+) dim=(\d+)$")
_LEDGER_LINE = re.compile(r"^(\S+) \. (\S+) = (-?\d+)$")
_DIM_FIELD = re.compile(r"dim=(\d+)\)$")


def _marked(entry: dict) -> str:
    i, j = entry["marks"]
    return f"{entry['diagram']}{{{i},{j}}}"


def _values(values) -> str:
    return ",".join(str(v) for v in values)


class CliMix:
    """A seeded, closed-loop, single-client stream of cli.main requests.

    Every subcommand appears in text and JSON, PER_KIND times each, with
    MALFORMED_PER_BATCH malformed requests, in random order.  A set-up pass over the batch warms the caches.
    One op, and one latency sample, is one request.
    """

    name = "cli_mix"
    cold = False

    def __init__(self, api, seed: int, tiny: bool) -> None:
        self.api = api
        self.oracles = reference.load_oracles()
        catalogue = reference.load_catalogue()
        self.models = [e for e in catalogue if e["rank"] <= 8]
        # classify's default --max-rank 8 must exceed both fiber dimensions, and
        # the model's tags must be known independently of flagcalc.
        self.classify_models = [
            e
            for e in self.models
            if max(e["r_minus"], e["r_plus"]) < 8 and reference.model_tags(e, self.oracles)
        ]
        self.catalogue = catalogue
        self.ledger_fixture = reference.load_ledger_fixture()
        self.ledger_table = json.loads(self.ledger_fixture)["table"]
        rng = random.Random(seed)
        per_kind, malformed = (2, 1) if tiny else (PER_KIND, MALFORMED_PER_BATCH)
        requests = []
        for kind, count in [(kind, per_kind) for kind in KINDS] + [("malformed", malformed)]:
            for k in range(count):
                requests.append(getattr(self, f"_make_{kind}")(rng, k))
        rng.shuffle(requests)
        self.requests = requests
        self.labels = [r.kind for r in requests]

    # -- request generation -------------------------------------------------

    @staticmethod
    def _format(rng, argv) -> tuple[tuple[str, ...], bool]:
        if rng.random() < 0.5:
            return tuple(argv) + ("--format", "json"), True
        return tuple(argv), False

    def _make_roots(self, rng, k):
        parts = [rng.choice(_ROOT_DIAGRAMS)]
        if rng.random() < 0.2:
            parts.append(rng.choice(_ROOT_DIAGRAMS[:8]))
        diagram = "+".join(parts)
        argv, js = self._format(rng, ("roots", diagram))
        return Request("roots", argv, js, reference.root_count(diagram, self.oracles))

    def _make_gp_dim(self, rng, k):
        entry = rng.choice(self.models)
        argv, js = self._format(rng, ("gp", "dim", _marked(entry)))
        return Request("gp_dim", argv, js, entry)

    def _make_gp_fiber(self, rng, k):
        entry = rng.choice(self.models)
        i, j = entry["marks"]
        base, dim = (i, entry["r_plus"]) if rng.random() < 0.5 else (j, entry["r_minus"])
        argv, js = self._format(rng, ("gp", "fiber", _marked(entry), "--base", str(base)))
        return Request("gp_fiber", argv, js, dim)

    def _make_enumerate(self, rng, k):
        max_rank = rng.randint(2, 8)
        command = ("enumerate",) if rng.random() < 0.5 else ("gp", "enumerate")
        argv, js = self._format(rng, command + ("--max-rank", str(max_rank)))
        entries = [e for e in self.catalogue if e["rank"] <= max_rank]
        return Request("enumerate", argv, js, (max_rank, entries))

    def _make_tag_reduce(self, rng, k):
        r = rng.randint(1, 8)
        values = [rng.randint(0, 3) for _ in range(r)]
        if rng.random() < 0.5:
            values = values[: (r + 1) // 2] + values[: r // 2][::-1]
        values = tuple(values)
        argv, js = self._format(rng, ("tag", "reduce", f"A{r}:{_values(values)}"))
        return Request("tag_reduce", argv, js, values)

    def _make_tag_restrict(self, rng, k):
        r = rng.randint(2, 8)
        values = tuple(rng.randint(0, 3) for _ in range(r))
        marks = rng.sample(range(1, r + 1), rng.randint(1, r - 1))
        argv, js = self._format(
            rng, ("tag", "restrict", f"A{r}:{_values(values)}", "--marks", _values(marks))
        )
        return Request("tag_restrict", argv, js, (values, set(marks)))

    def _make_tag_shape(self, rng, k):
        r = rng.randint(1, 8)
        d = rng.randint(0, 3)
        pattern = k % 3
        if pattern == 0:
            values = (d,) + (0,) * (r - 1)
        elif pattern == 1 and r >= 3:
            values = (d,) + (0,) * (r - 2) + (d,)
        else:
            values = tuple(rng.randint(0, 3) for _ in range(r))
        argv, js = self._format(rng, ("tag", "shape", f"A{r}:{_values(values)}"))
        return Request("tag_shape", argv, js, values)

    def _make_classify(self, rng, k):
        """A request with the invariants of a drawn model; its answer must list that model.

        Models are drawn only among those whose tags reference.model_tags knows.
        """
        entry = rng.choice(self.classify_models)
        plus, minus = reference.model_tags(entry, self.oracles)
        argv, js = self._format(
            rng,
            (
                "classify",
                "--r-minus", str(entry["r_minus"]),
                "--r-plus", str(entry["r_plus"]),
                "--tag-minus", _values(minus),
                "--tag-plus", _values(plus),
            ),
        )
        return Request("classify", argv, js, entry)

    def _make_drum_build(self, rng, k):
        entry = rng.choice(self.models)
        argv, js = self._format(rng, ("drum", "build", entry["diagram"], *map(str, entry["marks"])))
        return Request("drum_build", argv, js, entry)

    def _make_drum_ledger(self, rng, k):
        if k % 4 == 0:
            entry = next(e for e in self.models if _marked(e) == "B3{1,3}")
        else:
            entry = rng.choice(self.models)
        argv, js = self._format(rng, ("drum", "ledger", entry["diagram"], *map(str, entry["marks"])))
        return Request("drum_ledger", argv, js, entry)

    def _make_malformed(self, rng, k):
        return Request("malformed", MALFORMED[k % len(MALFORMED)], False)

    # -- set-up and summary -------------------------------------------------

    def warm(self) -> None:
        self.run_batch(None)

    def summary(self) -> dict:
        mix: dict[str, int] = {}
        seen: set = set()
        repeats = 0
        for req in self.requests:
            mix[req.kind] = mix.get(req.kind, 0) + 1
            repeats += req.argv in seen
            seen.add(req.argv)
        ranks = [int(n) for req in self.requests for n in re.findall(r"[A-G](\d+)", " ".join(req.argv))]
        return {
            "requests": len(self.requests),
            "mix": mix,
            "json_share": sum(r.json for r in self.requests) / len(self.requests),
            "component_ranks": [min(ranks), max(ranks)],
            "repeated_share": repeats / len(self.requests),
            "malformed_share": mix.get("malformed", 0) / len(self.requests),
            "classify_models": len(self.classify_models),
            "seed_effect": "request parameters, formats and order",
        }

    # -- the batch ----------------------------------------------------------

    def run_batch(self, tracer) -> Batch:
        cli = self.api.cli
        batch = Batch(0.0, [], len(self.requests))
        for req in self.requests:
            out, err = io.StringIO(), io.StringIO()
            before = tracer.layer_self() if tracer else None
            exc = None
            start = perf_counter()
            try:
                with redirect_stderr(err):
                    code = cli.main(list(req.argv), out=out)
            except Exception as caught:  # the installed entry point would print a traceback
                code, exc = None, caught
            latency = perf_counter() - start
            batch.latencies.append(latency)
            if tracer:
                after = tracer.layer_self()
                batch.request_layers.append((latency, {k: after[k] - before[k] for k in after}))
            if exc is not None:
                batch.uncaught += 1
            elif code != 0:
                batch.exit_nonzero += 1
            failure = self._check(req, code, out.getvalue(), err.getvalue(), exc)
            if failure:
                batch.failed += 1
                batch.known += req.kind == "malformed" and isinstance(exc, ValueError)
                batch.failures.append(f"{' '.join(req.argv)}: {failure}")
        batch.wall_s = sum(batch.latencies)
        return batch

    # -- checks -------------------------------------------------------------

    def _check(self, req: Request, code, out: str, err: str, exc) -> str | None:
        if req.kind == "malformed":
            if exc is not None:
                return f"uncaught {type(exc).__name__}: {exc}"
            lines = err.splitlines()
            if code != 2 or len(lines) != 1 or not lines[0].startswith("error:"):
                return f"exit {code} with stderr {err!r}, expected exit 2 and one 'error:' line"
            return None
        if exc is not None:
            return f"uncaught {type(exc).__name__}: {exc}"
        if code != 0 or err:
            return f"exit {code} with stderr {err!r}"
        try:
            if not req.json:
                return getattr(self, f"_check_{req.kind}_text")(req.expect, out)
            payload = json.loads(out)
            if payload.get("schema") != 1:
                return "missing schema 1"
            return getattr(self, f"_check_{req.kind}_json")(req.expect, payload, out)
        except (ValueError, LookupError, TypeError, AttributeError) as exc:
            return f"unparsable output {out[:80]!r}: {exc!r}"

    @staticmethod
    def _check_roots_text(count, out):
        first = out.splitlines()[0]
        m = re.match(r"^\S+: (\d+) positive roots, Weyl order \d+$", first)
        if not m or int(m.group(1)) != count:
            return f"{first!r}, expected {count} roots"
        return None

    @staticmethod
    def _check_roots_json(count, payload, out):
        if payload["count"] != count or len(payload["positive_roots"]) != count:
            return f"count {payload['count']}, expected {count}"
        return None

    @staticmethod
    def _check_gp_dim_text(entry, out):
        expected = f"{_marked(entry)}: dim {entry['dim']}, picard 2\n"
        return None if out == expected else f"{out!r}, expected {expected!r}"

    @staticmethod
    def _check_gp_dim_json(entry, payload, out):
        got = {k: payload.get(k) for k in ("diagram", "marks", "dim", "picard")}
        return _mismatch(got, {"diagram": entry["diagram"], "marks": entry["marks"], "dim": entry["dim"], "picard": 2})

    @staticmethod
    def _check_gp_fiber_text(dim, out):
        m = _FIBER_LINE.match(out.splitlines()[0])
        if not m or int(m.group(1)) != dim:
            return f"{out!r}, expected a fiber of dim {dim}"
        return None

    @staticmethod
    def _check_gp_fiber_json(dim, payload, out):
        got = payload["fiber"]["dim"]
        return None if got == dim else f"fiber dim {got}, expected {dim}"

    def _check_entries(self, max_rank, got: list[dict], expected: list[dict]) -> str | None:
        keys = {reference.entry_key(e) for e in got}
        if keys != self.oracles.expected_two_bundle_keys(max_rank):
            return "entries differ from the oracle list"
        if got != expected:
            return "entries differ from tests/fixtures/enumerate_rank12.json"
        return None

    def _check_enumerate_text(self, expect, out):
        max_rank, expected = expect
        lines = out.splitlines()
        if lines[-1] != f"total: {len(expected)}":
            return f"{lines[-1]!r}, expected total {len(expected)}"
        got = []
        for line in lines[:-1]:
            m = _ENTRY_LINE.match(line)
            if not m:
                return f"unparsable entry line {line!r}"
            fam, rank, i, j, r_minus, r_plus, dim = m.groups()
            got.append(
                {
                    "diagram": f"{fam}{rank}",
                    "dim": int(dim),
                    "family": fam,
                    "marks": [int(i), int(j)],
                    "r_minus": int(r_minus),
                    "r_plus": int(r_plus),
                    "rank": int(rank),
                }
            )
        return self._check_entries(max_rank, got, expected)

    def _check_enumerate_json(self, expect, payload, out):
        max_rank, expected = expect
        if payload["count"] != len(expected) or payload["max_rank"] != max_rank:
            return f"count {payload['count']}, expected {len(expected)}"
        return self._check_entries(max_rank, payload["entries"], expected)

    @staticmethod
    def _check_tag_reduce_text(values, out):
        expected = reference.reduction(values)
        if expected is None:
            reason = "rank even" if len(values) % 2 == 0 else "tag is not palindromic"
            expected = f"no reduction: {reason}"
        return None if out == expected + "\n" else f"{out!r}, expected {expected!r}"

    @staticmethod
    def _check_tag_reduce_json(values, payload, out):
        zeros, support = reference.zeros_support(values)
        got = {k: payload.get(k) for k in ("input", "reduction", "zeros", "support")}
        return _mismatch(
            got,
            {
                "input": f"A{len(values)}:{_values(values)}",
                "reduction": reference.reduction(values),
                "zeros": zeros,
                "support": support,
            },
        )

    @staticmethod
    def _check_tag_restrict_text(expect, out):
        rendered, node_map = reference.restriction(*expect)
        expected = f"{rendered} (node map: {', '.join(f'{a}->{b}' for a, b in node_map)})\n"
        return None if out == expected else f"{out!r}, expected {expected!r}"

    @staticmethod
    def _check_tag_restrict_json(expect, payload, out):
        values, marks = expect
        rendered, node_map = reference.restriction(values, marks)
        zeros, support = reference.zeros_support([values[a - 1] for a, _ in node_map])
        got = {k: payload.get(k) for k in ("restricted", "node_map", "zeros", "support")}
        return _mismatch(
            got,
            {
                "restricted": rendered,
                "node_map": {str(a): b for a, b in node_map},
                "zeros": zeros,
                "support": support,
            },
        )

    @staticmethod
    def _check_tag_shape_text(values, out):
        kind, d, reduced = reference.shape(values)
        expected = {
            "first_node_only": f"FirstNodeOnly(d={d})",
            "symmetric_ends": f"SymmetricEnds(d={d}), reduction {reduced}",
            "other": "Other",
        }[kind]
        return None if out == expected + "\n" else f"{out!r}, expected {expected!r}"

    @staticmethod
    def _check_tag_shape_json(values, payload, out):
        kind, d, reduced = reference.shape(values)
        got = {k: payload.get(k) for k in ("kind", "d", "reduction")}
        return _mismatch(got, {"kind": kind, "d": d, "reduction": reduced})

    @staticmethod
    def _check_classify_text(entry, out):
        expected = f"match: {_marked(entry)} (direct)"
        return None if expected in out.splitlines() else f"{expected!r} not in {out!r}"

    @staticmethod
    def _check_classify_json(entry, payload, out):
        for m in payload["matches"]:
            if m["diagram"] == entry["diagram"] and m["marks"] == entry["marks"] and m["orientation"] == "direct":
                return None
        return f"{_marked(entry)} not among the matches"

    @staticmethod
    def _drum_text_fields(out) -> dict:
        lines = dict(line.split(": ", 1) for line in out.splitlines())
        fields = {k: int(lines[k]) for k in ("dim_y", "dim_z", "dim_v_i", "dim_v_j", "ambient_dim")}
        for side in ("sink", "source"):
            m = _DIM_FIELD.search(lines[side])
            fields[f"{side}_dim"] = int(m.group(1)) if m else None
        return fields

    @staticmethod
    def _drum_json_fields(payload) -> dict:
        fields = {k: payload[k] for k in ("dim_y", "dim_z", "dim_v_i", "dim_v_j", "ambient_dim")}
        fields["sink_dim"] = payload["sink"]["dim"]
        fields["source_dim"] = payload["source"]["dim"]
        return fields

    def _check_drum_build_text(self, entry, out):
        return _mismatch(self._drum_text_fields(out), reference.drum_expectation(entry))

    def _check_drum_build_json(self, entry, payload, out):
        return _mismatch(self._drum_json_fields(payload), reference.drum_expectation(entry))

    def _check_drum_ledger_text(self, entry, out):
        table = {}
        for line in out.splitlines():
            m = _LEDGER_LINE.match(line)
            if not m:
                return f"unparsable ledger line {line!r}"
            table[(m.group(1), m.group(2))] = int(m.group(3))
        if set(table) != LEDGER_PAIRS:
            return f"ledger pairs {sorted(table)}"
        if _marked(entry) == "B3{1,3}":
            expected = {(d, c): v for d, row in self.ledger_table.items() for c, v in row.items()}
            if table != expected:
                return "ledger differs from tests/fixtures/drum_ledger_b3_1_3.json"
        return None

    def _check_drum_ledger_json(self, entry, payload, out):
        if _marked(entry) == "B3{1,3}":
            if out.strip() != self.ledger_fixture:
                return "output differs from tests/fixtures/drum_ledger_b3_1_3.json"
            return None
        pairs = {(d, c) for d, row in payload["table"].items() for c in row}
        if pairs != LEDGER_PAIRS:
            return f"ledger pairs {sorted(pairs)}"
        return _mismatch(self._drum_json_fields(payload), reference.drum_expectation(entry))


WORKLOADS = {w.name: w for w in (EnumerateCold, DrumCatalog, CliMix)}
