import pytest

from helpers import body_spec, render_single
from vcfclass.phantom import CohortSpec, generate_cohort, uniform_heights, wedge_heights


@pytest.fixture(scope="session")
def uniform_case():
    """Noise-free uniform 20 mm vertebra with reference tissues."""
    return render_single(body_spec(uniform_heights(20.0)), with_refs=True)


@pytest.fixture(scope="session")
def wedge_case():
    """Noise-free wedge vertebra: anterior 10 mm, posterior 20 mm."""
    return render_single(body_spec(wedge_heights(10.0, 20.0)), with_refs=True)


@pytest.fixture(scope="session")
def small_cohort(tmp_path_factory):
    """3 patients x 3 studies, written to disk once per session."""
    out = tmp_path_factory.mktemp("cohort")
    spec = CohortSpec(n_patients=3, studies_per_patient=3, seed=42)
    manifest = generate_cohort(spec, out)
    return spec, manifest, out
