"""Source guards on ``src/mconcave``: code that deletions leave behind.

Each module is parsed with ``ast``. An imported name that its module
never uses fails (``__init__.py`` re-exports, so it is exempt), and so
does a module-level private function, class or constant that no code in
the package references. A fresh import of the CLI must not pay for
reading real tables or for the process pool. The falsification campaign, its drawers and the
sampled regimes draw no value through ``random``'s per-value methods,
and the campaign reseeds the C generator, not ``random.Random``. The
numpy floor in ``pyproject.toml`` has every numpy function the package
calls. Deleted second implementations, unused wrappers and members that
only their own tests read stay deleted, ``exchange.py`` enumerates
moves by ``submasks_*`` only in its scalar search, ``moves.py`` never
names ``NEG_INF``, the scalar ``conjugate`` keeps off the batched
kernel, and every snippet of the mutant catalogue (``scripts/mutants.py``)
occurs once in its module.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mconcave"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _imported(tree):
    """The names an import statement binds, with the line of each."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def _loaded(tree):
    """Every name read in ``tree``: bare names, and attributes (as in
    ``module._name``)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _private_definitions(tree):
    """Module-level functions, classes and constants named ``_x`` (not
    dunders), with the line of each."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
            continue
        targets = node.targets if isinstance(node, ast.Assign) else \
            [node.target] if isinstance(node, ast.AnnAssign) else []
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    yield name.id, node.lineno


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__.py"])
def test_every_import_is_used(module):
    tree = MODULES[module]
    loaded = _loaded(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in loaded]
    assert not unused, f"{module} imports names it never uses: {unused}"


def test_every_private_definition_is_referenced():
    referenced = set()
    for tree in MODULES.values():
        referenced |= _loaded(tree)
        referenced |= {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) for alias in node.names}
    dead = [f"{module}: {name} (line {line})" for module, tree in MODULES.items()
            for name, line in _private_definitions(tree)
            if _is_private(name) and name not in referenced]
    assert not dead, f"private names that no code in the package references: {dead}"


def test_cli_import_leaves_out_real_table_reading():
    """Only a real table reads ``fractions`` (its values as decimals), so
    a fresh ``import mconcave.cli`` loads neither it nor ``decimal``."""
    code = "import sys, mconcave.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_imports_the_process_pool_only_for_workers():
    """``cli.py`` imports nothing from ``concurrent`` at module level: the
    process pool, about 20 ms of a fresh import, loads only when
    ``run_check`` starts workers."""
    named = [f"{ast.unparse(node)} (line {node.lineno})" for node in MODULES["cli.py"].body
             if isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == "concurrent" for alias in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "concurrent"]
    assert not named, f"cli.py imports at module level: {named}"


_PER_VALUE = {"randint", "randrange", "choice"}


@pytest.mark.parametrize("module, name", [("cli.py", "falsify_campaign"),
                                          ("families.py", "_draw_table"),
                                          ("families.py", "_draw_mutation"),
                                          ("duality.py", "_sampled"),
                                          ("moves.py", "sampled_triples"),
                                          ("core.py", "_draws")])
def test_falsify_draws_use_no_per_value_random_method(module, name):
    """Each ``randint``, ``randrange`` or ``choice`` of a falsification
    trial, a sampled grid pair or a sampled triple is drawn by
    ``core._below``'s rule from ``getrandbits``: the Python frames those
    methods add per value were most of the drawing."""
    func = next(node for node in MODULES[module].body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    named = [f"{getattr(node, 'attr', None) or node.id} (line {node.lineno})"
             for node in ast.walk(func)
             if isinstance(node, ast.Attribute) and node.attr in _PER_VALUE
             or isinstance(node, ast.Name) and node.id in _PER_VALUE]
    assert not named, f"{name} reads {named}"


def test_table_drawer_calls_below_only_to_fix_an_empty_domain():
    """``families._draw_table`` runs ``core._below``'s rejection loop inline
    for each value; it calls ``_below`` only on the path that fixes a
    table drawn all minus infinity, never in a loop."""
    func = next(node for node in MODULES["families.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "_draw_table")
    fixes = [node for node in ast.walk(func) if isinstance(node, ast.If)
             and ".count(" in ast.unparse(node.test)]
    inside = {id(node) for fix in fixes for node in ast.walk(fix)}
    loops = {id(node) for loop in ast.walk(func)
             if isinstance(loop, (ast.For, ast.While, ast.ListComp, ast.GeneratorExp))
             for node in ast.walk(loop)}
    calls = [node for node in ast.walk(func) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_below"]
    stray = [f"line {node.lineno}" for node in calls if id(node) not in inside or id(node) in loops]
    assert calls and not stray, f"_draw_table calls _below outside the fix-up: {stray}"


def test_falsify_reseeds_the_c_generator():
    """``falsify_campaign`` builds its one generator as ``_random.Random``
    and no ``random.Random``, whose ``seed`` adds a Python frame to each of
    the two reseeds a trial; ``cli.py`` does not import ``random``."""
    func = next(node for node in MODULES["cli.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "falsify_campaign")
    built = [ast.unparse(node.func) for node in ast.walk(func) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "Random"]
    assert built == ["_random.Random"], built
    assert "random" not in {name for name, _ in _imported(MODULES["cli.py"])}


ROOT = PACKAGE.parents[1]


def test_numpy_floor_covers_the_functions_called():
    """``np.bitwise_count`` came with NumPy 2.0, so a package that calls
    it must not declare an older numpy; README names the same floor."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S).group(1)
    floor = re.search(r'"numpy>=([\d.]+)"', deps).group(1)
    called = set().union(*(_loaded(tree) for tree in MODULES.values()))
    if "bitwise_count" in called:
        assert tuple(int(part) for part in floor.split(".")) >= (2, 0), f"numpy>={floor}"
    assert f"numpy>={floor}" in (ROOT / "README.md").read_text(encoding="utf-8")


_REMOVED = {"_bulk_index", "_bulk_holds", "conjugate_sized", "matroid_base_multi_exchange",
            "attains", "ext_leq", "effective_domain", "_Replay", "_BULK_NEG", "_BULK_FLOOR",
            "_bulk_row", "_FALSIFY_CHUNK", "_needs_facts", "_single_count", "_rule_sweep",
            "_single_sweep", "_lift_rules", "_exchange_rules", "_swap_rules", "_augment_rule",
            "_best", "add_rank", "add_wbasis", "_laminar", "_single_report", "_multi_reports",
            "_SUBMASKS_ASC", "_SUBMASKS_SIZED", "scalar_row", "packed"}

# Class members that only their own tests read; by class, as short names
# such as ``j`` or ``rank`` are also local variables.
_REMOVED_MEMBERS = {
    "ExchangeContext": {"c_mask", "x0_mask", "X", "Y", "I"},
    "ExchangeWitness": {"j"},
    "ConjugateEval": {"argmax", "price"},
    "PriceVector": {"unit", "join", "meet", "dominates", "zero", "__call__"},
    "Matroid": {"rank", "basis_indicator"},
    "_Conjugates": {"plain"},
}


def test_removed_names_are_defined_nowhere():
    """The falsify decider's own triple index and its pass (the decider
    reads ``moves.moves`` blocks), two wrappers nothing called, the
    array kernels' second finiteness test (minus infinity is a number
    there, ``moves.value_table``'s ``neg``), the bulk decoder of seeded
    words (``core._draws`` takes them from ``getrandbits``), the falsify
    decider's own int64 encoding and row encoder (it reads
    ``moves.encoding``), the chunk of rows (chunks are bounded by
    values), the CLI's choice of sweep by the selected suites (every
    selection reads the shared sweep), the single exchange's own
    triple count (one closed form counts it and the lift's), and the rule
    language of the exchange sweep, the functions that made its rules and
    its drop-free single sweep (one fixed sweep gives the single and the facts verdicts,
    the lift is their AND, and no sweep leaves out the drop), and the
    multiple exchange's second, bounded search (``moves.multi_best``
    decides both bounds in one pass), the default corpus's own helpers
    (its specs go through ``families.build_instance``) and the CLI's
    copies of the exchange checkers (``exchange`` keeps the one-entry
    caches they held), the hand-rolled submask caches (``functools``
    bounds them), and the campaign's per-trial row drawer and packing of
    rows by size (every trial is a key of one store)."""
    bound = [f"{module}: {name} (line {node.lineno})" for module, tree in MODULES.items()
             for node in ast.walk(tree)
             for name in ([node.name] if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                           ast.ClassDef))
                          else [node.id] if isinstance(node, ast.Name)
                          and isinstance(node.ctx, ast.Store) else [])
             if name in _REMOVED]
    assert not bound, f"removed names defined again: {bound}"


def test_cli_decides_falsify_trials_in_one_function():
    """``cli.py`` names ``_bulk_decide`` in one function, the decider of
    the campaign's (table, entry, value) keys, so that a second decision
    path cannot grow back."""
    naming = [node.name for node in ast.walk(MODULES["cli.py"])
              if isinstance(node, ast.FunctionDef) and "_bulk_decide" in _loaded(node)]
    assert naming == ["_mutation_verdicts"], naming


def test_removed_members_are_defined_nowhere():
    """Accessors that only their own tests read (``_Conjugates.plain`` is
    now the Fenchel tests' oracle, ``PriceVector``'s lattice operations
    the grid tests' ``_join`` and ``_meet``), ``falsify_campaign``'s
    ``keep_near``, which every caller outside the tests set to 5, and
    ``_Conjugates``' ``scale``, which only the Fenchel tests' oracles
    passed."""
    bound = [f"{module}: {node.name}.{name} (line {item.lineno})"
             for module, tree in MODULES.items()
             for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
             for item in node.body
             for name in ([item.name] if isinstance(item, ast.FunctionDef)
                          else [getattr(item.target, "id", None)]
                          if isinstance(item, ast.AnnAssign) else [])
             if name in _REMOVED_MEMBERS.get(node.name, ())]
    assert not bound, f"removed members defined again: {bound}"
    campaign = next(node for node in MODULES["cli.py"].body
                    if isinstance(node, ast.FunctionDef) and node.name == "falsify_campaign")
    args = campaign.args
    assert "keep_near" not in [a.arg for a in args.args + args.kwonlyargs]
    conj = next(node for node in MODULES["duality.py"].body
                if isinstance(node, ast.ClassDef) and node.name == "_Conjugates")
    init = next(item for item in conj.body
                if isinstance(item, ast.FunctionDef) and item.name == "__init__")
    assert [a.arg for a in init.args.args] == ["self", "f"]


_READER = {"_SHAPES", "_FAMILY_FIELDS", "_MATROID_FIELDS", "_check_fields", "_read_spec",
           "_build_matroid", "build_instance"}


def test_build_instance_makes_every_corpus_instance():
    """Every ``CorpusInstance`` of the package, the default corpus's too,
    is made in ``families.build_instance``, and ``cli.py`` defines no
    family schema: none of the spec reader's names, and no dict keyed by
    a family or a matroid kind."""
    reader = next(node for node in MODULES["families.py"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "build_instance")
    inside = {id(node) for node in ast.walk(reader)}
    made = [f"{module} (line {node.lineno})" for module, tree in MODULES.items()
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and "CorpusInstance" in {getattr(node.func, "id", None),
                                     getattr(node.func, "attr", None)}
            and id(node) not in inside]
    assert not made and "CorpusInstance" in _loaded(reader), made
    cli = MODULES["cli.py"]
    defined = {name for name, _ in _private_definitions(cli)}
    defined |= {node.name for node in cli.body if isinstance(node, ast.FunctionDef)}
    assert not defined & _READER, sorted(defined & _READER)
    from mconcave.families import _FAMILY_FIELDS, _MATROID_FIELDS
    labels = set(_FAMILY_FIELDS) | set(_MATROID_FIELDS)
    keyed = [f"line {node.lineno}" for node in ast.walk(cli) if isinstance(node, ast.Dict)
             and labels & {getattr(key, "value", None) for key in node.keys}]
    assert not keyed, f"cli.py keys a dict by family: {keyed}"


def test_exchange_walks_submasks_only_in_the_scalar_search():
    """``exchange.py`` has one enumeration of triples and moves, the array
    one of ``moves``; ``submasks_ascending`` and ``submasks_by_size`` serve
    only the scalar ``_best_multi``."""
    tree = MODULES["exchange.py"]
    scalar = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_best_multi")
    inside = {id(node) for node in ast.walk(scalar)}
    named = [f"{getattr(node, 'attr', None) or node.id} (line {node.lineno})"
             for node in ast.walk(tree)
             if id(node) not in inside and (
                 isinstance(node, ast.Attribute) and node.attr.startswith("submasks_")
                 or isinstance(node, ast.Name) and node.id.startswith("submasks_"))]
    assert not named, f"exchange.py walks submasks outside _best_multi: {named}"


def test_moves_never_names_neg_inf():
    """The array kernels hold minus infinity as a number on both value
    tiers; ``NEG_INF`` stays in scalar code."""
    assert "NEG_INF" not in (PACKAGE / "moves.py").read_text(encoding="utf-8")


def test_scalar_conjugate_stays_off_the_batched_kernel():
    """``duality.conjugate`` is a plain loop, so that the tests' oracle and
    the benchmark's correctness gate do not check ``_Conjugates`` against
    itself."""
    func = next(node for node in MODULES["duality.py"].body
                if isinstance(node, ast.FunctionDef) and node.name == "conjugate")
    assert "_Conjugates" not in _loaded(func)


def test_every_mutant_snippet_occurs_once():
    """Each entry of ``scripts/mutants.py`` still applies: its snippet
    occurs exactly once in its module, its replacement differs, and the
    tests that must kill it exist."""
    sys.path.insert(0, str(ROOT / "scripts"))
    try:
        import mutants
    finally:
        sys.path.remove(str(ROOT / "scripts"))
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
    for m in mutants.MUTANTS:
        text = (PACKAGE / m.module).read_text(encoding="utf-8")
        assert text.count(m.snippet) == 1, m.name
        assert m.replacement != m.snippet and m.tests, m.name
        for test in m.tests:
            path, name = test.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(encoding="utf-8"), test
