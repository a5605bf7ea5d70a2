"""Independent reference values for the benchmark's correctness checks.

Nothing here calls flagcalc.  Expected values come from the repository's
read-only test oracles and golden fixtures, and from closed forms written
out below (Bourbaki, *Lie Groups and Lie Algebras* ch. VI, plates I-IX).
"""
from __future__ import annotations

import importlib.util
import json
import re
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
CATALOGUE = ROOT / "tests" / "fixtures" / "enumerate_rank12.json"
LEDGER_B3_1_3 = ROOT / "tests" / "fixtures" / "drum_ledger_b3_1_3.json"

REQUIRED = (SRC / "flagcalc" / "__init__.py", ORACLES, CATALOGUE, LEDGER_B3_1_3)

# Fundamental representation dimensions of the two exceptional two-bundle
# models (nodes in the Humphreys numbering used by flagcalc: node 1 of G2 and
# nodes 3, 4 of F4 are short).
_EXCEPTIONAL_FUNDAMENTAL = {
    ("G", 2): {1: 7, 2: 14},
    ("F", 4): {1: 52, 2: 1274, 3: 273, 4: 26},
}


def missing_files() -> list[str]:
    return [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]


def load_oracles():
    """The test suite's oracle module, loaded from its file without touching sys.path."""
    spec = importlib.util.spec_from_file_location("perfbench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_catalogue() -> list[dict]:
    """The 164 two-bundle entries of rank <= 12, as recorded in the golden fixture."""
    return json.loads(CATALOGUE.read_text())["entries"]


def load_ledger_fixture() -> str:
    return LEDGER_B3_1_3.read_text().strip()


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def entry_key(entry: dict) -> tuple[str, int, tuple[int, int]]:
    return (entry["family"], entry["rank"], tuple(entry["marks"]))


def fundamental_dim(family: str, rank: int, node: int) -> int:
    """Dimension of the fundamental representation at ``node`` in closed form.

    Exterior powers of the defining representation for A, B, D (non-spin
    nodes) and the traceless part of them for C; spin nodes of B and D give
    the spin representations of dimension 2^n and 2^(n-1).
    """
    n, k = rank, node
    if family == "A":
        return comb(n + 1, k)
    if family == "B":
        return 2**n if k == n else comb(2 * n + 1, k)
    if family == "C":
        return comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0)
    if family == "D":
        return 2 ** (n - 1) if k >= n - 1 else comb(2 * n, k)
    return _EXCEPTIONAL_FUNDAMENTAL[(family, rank)][node]


def drum_expectation(entry: dict) -> dict[str, int]:
    """Dimension data of the drum over a catalogue entry D{i,j}.

    The sink D{i} and the source D{j} are the bases of the two contractions,
    whose fibers have dimensions r_plus and r_minus.
    """
    fam, n, (i, j), dim = entry["family"], entry["rank"], entry["marks"], entry["dim"]
    v_i, v_j = fundamental_dim(fam, n, i), fundamental_dim(fam, n, j)
    return {
        "dim_y": dim,
        "dim_z": dim + 1,
        "dim_v_i": v_i,
        "dim_v_j": v_j,
        "ambient_dim": v_i + v_j - 1,
        "sink_dim": dim - entry["r_plus"],
        "source_dim": dim - entry["r_minus"],
    }


def _differences(degrees) -> tuple[int, ...]:
    degs = sorted(degrees)
    return tuple(b - a for a, b in zip(degs, degs[1:]))


def model_tags(entry: dict, oracles) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """(plus, minus) tag values of a catalogue model from an independent source.

    Type A models (the adjacent flags A_n{r,r+1} and the point-hyperplane
    incidence A_n{1,n}) come from the splitting oracles.  B2{1,2}, G2{1,2} and
    C_n{1,2} are the anchors of the test suite: on C_n{1,2} the plus-side
    fiber is the odd projective space of dimension 2n-3, whose tag is the
    palindrome (1, 0, ..., 0, 1).  Returns None for every other model.
    """
    fam, n, (i, j) = entry["family"], entry["rank"], entry["marks"]
    if fam == "A":
        if j == i + 1:
            plus, minus = oracles.adjacent_flag_degrees(n, i)
        elif (i, j) == (1, n):
            plus, minus = oracles.point_hyperplane_degrees(n)
        else:
            return None
        return _differences(plus), _differences(minus)
    if (fam, n, i, j) == ("B", 2, 1, 2):
        return (1,), (2,)
    if (fam, n, i, j) == ("G", 2, 1, 2):
        return (3,), (1,)
    if fam == "C" and n >= 3 and (i, j) == (1, 2):
        return (1,) + (0,) * (2 * n - 5) + (1,), (1,)
    return None


_COMPONENT = re.compile(r"([A-G])(\d+)")


def root_count(diagram: str, oracles) -> int:
    """Positive-root count of a diagram string, summed over its components.

    The count of each raw component equals that of its low-rank normal form
    (B1, C1 -> A1; D2 -> A1+A1; D3 -> A3), so no normalization is needed.
    """
    return sum(
        oracles.closed_form_root_count(fam, int(rank))
        for fam, rank in _COMPONENT.findall(diagram)
    )


def render_tag(components: list[int], values) -> str:
    """Tag string on a union of type A components of the given ranks."""
    diagram = "+".join(f"A{r}" for r in components)
    return f"{diagram}:{','.join(str(v) for v in values)}"


def zeros_support(values) -> tuple[list[int], list[int]]:
    zeros = [k for k, v in enumerate(values, 1) if v == 0]
    support = [k for k, v in enumerate(values, 1) if v != 0]
    return zeros, support


def reduction(values: tuple[int, ...]) -> str | None:
    """Symplectic reduction of a type A tag: the first half on C_(r+1)/2."""
    r = len(values)
    if r % 2 == 0 or values != values[::-1]:
        return None
    half = (r + 1) // 2
    diagram = "A1" if half == 1 else f"C{half}"
    return f"{diagram}:{','.join(str(v) for v in values[:half])}"


def restriction(values: tuple[int, ...], marks: set[int]) -> tuple[str, list[tuple[int, int]]]:
    """Restriction of a type A tag to the nodes left after deleting ``marks``.

    The kept nodes form runs of consecutive nodes; each run is a type A
    component, numbered left to right.
    """
    kept = [k for k in range(1, len(values) + 1) if k not in marks]
    runs: list[int] = []
    for pos, node in enumerate(kept):
        if pos and node == kept[pos - 1] + 1:
            runs[-1] += 1
        else:
            runs.append(1)
    rendered = render_tag(runs, [values[k - 1] for k in kept])
    return rendered, [(node, new) for new, node in enumerate(kept, 1)]


def shape(values: tuple[int, ...]) -> tuple[str, int | None, str | None]:
    """(kind, d, reduction) of the first-node / symmetric-ends trichotomy."""
    r = len(values)
    if all(v == 0 for v in values[1:]):
        return "first_node_only", values[0], None
    if r >= 3 and r % 2 == 1 and values[0] == values[-1] > 0 and all(v == 0 for v in values[1:-1]):
        return "symmetric_ends", values[0], reduction(values)
    return "other", None, None
