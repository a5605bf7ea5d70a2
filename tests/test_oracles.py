from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

# Loads the oracle module by path, as perfbench/reference.py does, with the
# source tree off sys.path.
_LOAD_BY_PATH = """
import importlib.util, sys
from pathlib import Path
src = Path(sys.argv[2]).resolve()
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != src]
spec = importlib.util.spec_from_file_location("oracles_by_path", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
assert callable(module.weyl_dim_fraction)
# the oracles perfbench calls, run with no flagcalc module
assert len(module.expected_two_bundle_keys(12)) == 164
assert module.adjacent_flag_degrees(3, 1) == ([-1, 0, 0], [-1, 0])
assert module.point_hyperplane_degrees(3) == ([0, 0, 1], [0, 0, 1])
assert module.closed_form_root_count("E", 8) == 120
loaded = sorted(m for m in sys.modules if m == "flagcalc" or m.startswith("flagcalc."))
assert not loaded, loaded
print("ok")
"""


def test_oracle_module_loads_by_path_without_flagcalc(tmp_path):
    result = subprocess.run(
        [sys.executable, "-B", "-I", "-c", _LOAD_BY_PATH, str(TESTS / "oracles.py"), str(TESTS.parent / "src")],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (result.returncode, result.stdout) == (0, "ok\n"), result.stderr


# Each reference, and the flagcalc names that it and the oracles it calls may
# import.  A reference that imports the rule it checks passes that rule's
# mutants, and one that restates the rule's case analysis passes the mutants
# it shares, so: the split references read one breadth-first walk on the
# bond table of ``dynkin``, the only name they import, and check
# ``homogeneous._end_map`` (every base of every connected diagram, and
# shifted on unions) and ``dynkin._split`` (every node set) against it;
# ``side_tag_by_roots`` checks
# ``homogeneous._side_tag`` with the public root machinery; the fiber-read
# catalogue checks ``_classical_pairs`` and the E-G scan with the split
# references, ``_rank_ends`` and ``_scan_ranks``; and the catalogue,
# root and drum references import no flagcalc code.  These are the
# references that catch mutants of ``_side_tag``, ``_rank_ends`` and
# ``homogeneous._projective_rank``.  Of the references for
# ``dynkin``, the subdiagram search (the walk) imports only ``DomainError``,
# the root scan of the dimension (the root counts) only the public root
# machinery, and the dense Cartan blocks (the bond table) and the isomorphism
# search (the automorphisms) nothing.  The rational Weyl dimension imports
# only the public root machinery, and the two integer readers nothing.
SPLIT_IMPORTS = {("flagcalc.dynkin", "_bonds")}
REFERENCE_IMPORTS = {
    "components_by_walk": SPLIT_IMPORTS,
    "split_by_walk": SPLIT_IMPORTS,
    "end_records_by_split": SPLIT_IMPORTS,
    "side_tag_by_roots": {
        ("flagcalc.dynkin", "pairing"),
        ("flagcalc.dynkin", "positive_roots"),
        ("flagcalc.tags", "tag_from_splitting"),
    },
    "expected_two_bundle_keys": set(),
    "enumerate_two_bundles_by_fiber_reads": SPLIT_IMPORTS | {
        ("flagcalc.dynkin", "DynkinDiagram"),
        ("flagcalc.dynkin", "_component_root_count"),
        ("flagcalc.dynkin", "automorphisms"),
        ("flagcalc.homogeneous", "TwoBundleEntry"),
        ("flagcalc.homogeneous", "_rank_ends"),
        ("flagcalc.homogeneous", "_scan_ranks"),
    },
    "reflection_closure": set(),
    "drum_identification": set(),
    "subdiagram_by_search": {("flagcalc.errors", "DomainError")},
    "dimension_by_roots": {("flagcalc.dynkin", "positive_roots")},
    "cartan_matrix_by_blocks": set(),
    "isomorphisms": set(),
    "weyl_dim_fraction": {
        ("flagcalc.dynkin", "cartan_matrix"),
        ("flagcalc.dynkin", "positive_roots"),
        ("flagcalc.errors", "DomainError"),
    },
    "ints_by_entry_regex": set(),
    "ints_by_split": set(),
}

# Each private rule, and a test (file, function) that checks it against a
# reference of ``REFERENCE_IMPORTS`` that does not import the rule, so that a
# mutant of the rule cannot pass on a copy of itself.  The catalogue test runs
# ``_scan_ranks``; the fiber-read test checks the closed-form records of
# ``_classical_pairs`` (A-D) up to the ceiling, field by field, since ``==``
# ignores their class (``test_enumerate_builds_exact_record_types`` checks
# that); the end map test checks
# ``_end_map`` at every base of every connected diagram, and the records of
# ``_fiber_table`` on unions; the walk test checks ``_split`` on every node
# subset of every connected diagram of rank <= 9, at every base up to the
# ceiling and on seeded subsets of unions up to the ceiling;
# the drum test reads dim D{i} and the ranks off the two ``_fiber_table``s of
# ``_pair_tables``, and so through ``_rank_ends`` and ``_projective_rank`` on
# every family, and needs ``_pair_tables`` to accept every catalogue pair
# and hand over the tables of the right bases; and the subdiagram test runs
# ``_components`` and ``_renumber``.
CATALOGUE = ("test_homogeneous.py", "test_enumerate_matches_classification_list", "expected_two_bundle_keys")
END_MAP = ("test_homogeneous.py", "test_end_map_matches_split_records_at_every_base", "end_records_by_split")
DRUMS = ("test_drum.py", "test_drums_match_their_identification_oracle", "drum_identification")
SUBDIAGRAM = ("test_dynkin.py", "test_subdiagram_matches_search_oracle_on_every_node_subset", "subdiagram_by_search")
WALK = ("test_homogeneous.py", "test_components_match_walk_oracle_on_every_node_subset", "components_by_walk")
RULE_CHECKS = {
    ("homogeneous", "_projective_rank"): DRUMS,
    ("homogeneous", "_rank_ends"): DRUMS,
    ("homogeneous", "_end_map"): END_MAP,
    ("homogeneous", "_scan_ranks"): CATALOGUE,
    ("homogeneous", "_classical_pairs"): (
        "test_homogeneous.py",
        "test_enumerate_matches_fiber_read_oracle_at_the_ceiling",
        "enumerate_two_bundles_by_fiber_reads",
    ),
    ("homogeneous", "_fiber_table"): DRUMS,
    ("homogeneous", "_pair_tables"): DRUMS,
    ("homogeneous", "_side_tag"): (
        "test_classifier.py", "test_homogeneous_tags_match_root_scan_oracle", "side_tag_by_roots"
    ),
    ("dynkin", "_components"): SUBDIAGRAM,
    ("dynkin", "_split"): WALK,
    ("dynkin", "_renumber"): SUBDIAGRAM,
    ("dynkin", "_bonds"): (
        "test_dynkin.py", "test_cartan_matrix_matches_dense_block_oracle", "cartan_matrix_by_blocks"
    ),
    ("dynkin", "_component_root_count"): (
        "test_homogeneous.py", "test_dimension_matches_root_scan_oracle", "dimension_by_roots"
    ),
    ("dynkin", "_component_automorphisms"): (
        "test_dynkin.py", "test_automorphisms_match_search_oracle", "isomorphisms"
    ),
}
# The private functions of these modules that no oracle restates, each with the reason.
RULE_EXEMPT = {
    ("homogeneous", "_marked_name"): "the spelling D{i,j}, pinned byte for byte by the golden fixtures",
    ("homogeneous", "_check_max_rank"): "a domain check shared by enumerate_two_bundles and match_model, "
    "pinned by test_max_rank_must_be_an_int and test_max_rank_ceiling_holds_on_every_path",
    ("classifier", "_check_relative_dimensions"): "a domain check shared by TwoBundleData and its from_values, "
    "pinned by test_relative_dimensions_must_be_positive_ints",
    ("classifier", "_product_entry"): "P^a x P^b marked at each first node: a definition, which "
    "test_match_model_product pins",
    ("drum", "_build_ledger"): "one table of the construction, the same for every drum, pinned entry by "
    "entry by the ledger tests of test_drum and the golden ledger fixture",
    ("dynkin", "_in_table"): "a domain check of the normalized table, shared by the parser and _check_table, "
    "pinned by test_parse_errors and test_cartan_matrix_rejects_components_outside_normalized_table",
    ("dynkin", "_check_table"): "_in_table over a diagram's components, shared by check_nodes, _bonds and weyl_order, "
    "pinned by test_functions_reject_components_outside_normalized_table",
    ("tags", "_require_connected_a"): "a domain check shared by the type A operations, pinned by "
    "test_symplectic_reduce_requires_connected_type_a and test_classify_tag_shape_requires_type_a",
    ("tags", "_is_palindrome"): "values == values[::-1], which test_symplectic_reduce_exactly_on_odd_palindromes "
    "restates on every tag of A1-A5 with values 0-3",
}


def _functions(path: Path) -> dict[str, ast.FunctionDef]:
    """The module-level functions of the Python file ``path``, by name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_references_import_only_their_listed_flagcalc_names():
    functions = _functions(TESTS / "oracles.py")
    for reference, allowed in REFERENCE_IMPORTS.items():
        todo, seen, imported = [reference], set(), set()
        while todo:  # the reference and every oracle it calls, transitively
            name = todo.pop()
            if name in seen:
                continue
            seen.add(name)
            for node in ast.walk(functions[name]):
                if isinstance(node, ast.ImportFrom):
                    imported.update((node.module, alias.name) for alias in node.names)
                elif isinstance(node, ast.Import):
                    imported.update((alias.name, None) for alias in node.names)
                elif isinstance(node, ast.Name) and node.id in functions:
                    todo.append(node.id)
        flagcalc = {(module, name) for module, name in imported if module.partition(".")[0] == "flagcalc"}
        assert flagcalc <= allowed, (reference, flagcalc - allowed)


def test_every_private_rule_has_a_test_whose_reference_does_not_import_it():
    src = TESTS.parent / "src" / "flagcalc"
    for (module, rule), (test_file, test, reference) in RULE_CHECKS.items():
        assert rule in _functions(src / f"{module}.py"), (module, rule)
        # the import test above holds each reference to its listed names, transitively
        assert (f"flagcalc.{module}", rule) not in REFERENCE_IMPORTS[reference], (module, rule)
        calls = [node.func for node in ast.walk(_functions(TESTS / test_file)[test]) if isinstance(node, ast.Call)]
        assert reference in {call.id for call in calls if isinstance(call, ast.Name)}, (module, rule, test)
    assert not RULE_CHECKS.keys() & RULE_EXEMPT.keys()
    for module in ("dynkin", "homogeneous", "tags", "classifier", "drum"):
        private = {(module, name) for name in _functions(src / f"{module}.py") if name.startswith("_")}
        exempt = {key for key in RULE_EXEMPT if key[0] == module}
        assert exempt <= private, exempt - private
        assert private <= RULE_CHECKS.keys() | exempt, sorted(private - RULE_CHECKS.keys() - exempt)
