"""scripts/mutants.py's mutants still apply to the sources: a refactor
that moves or rewrites a mutated line fails here, not only in the
mutation run."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


mutants = _mutants()


def test_each_old_text_occurs_exactly_once():
    for m in mutants.MUTANTS:
        assert m.old != m.new, m.claim
        assert mutants.occurrences(m) == 1, m.claim


def test_each_equivalent_names_a_mutant_and_a_reason():
    claims = [m.claim for m in mutants.MUTANTS]
    assert len(set(claims)) == len(claims) == 29
    for claim, reason in mutants.EQUIVALENT.items():
        assert claim in claims and reason
