import affinedescent

# The names README and the benchmark import from the package top level;
# everything else is imported from its submodule.
PUBLIC = ["ArmijoSearch", "ExactSearch", "StrongWolfeSearch", "StoppingSpec",
          "Objective", "Problem", "make_objective", "verify_derivatives",
          "catalog", "descent_direction", "yand_run"]


def test_all_is_the_documented_list():
    assert sorted(affinedescent.__all__) == sorted(PUBLIC)
    assert len(set(affinedescent.__all__)) == len(affinedescent.__all__)


def test_every_exported_name_resolves():
    for name in affinedescent.__all__:
        assert getattr(affinedescent, name) is not None

