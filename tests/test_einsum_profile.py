"""Smoke test of tests/einsum_profile.py: einsum call sites of one small pipeline, per record."""

import numpy as np
from einsum_profile import profile, report


def test_profile_charges_call_sites_to_records():
    real = np.einsum
    stats = profile("fubini_study", 1, 2, 7)
    records = {record for record, _, _ in stats}
    assert records == {"structure", "webster", "comparison", "submersion", "fefferman", "rescale",
                       "theorem2"}
    sites = {site.split(" ")[1] for _, site, _ in stats}
    # the closed-form Ricci and the operator both run, each where it is read
    assert {"levi_civita_ricci", "curvature_from_connection"} <= sites
    text = report("fubini_study", 1, 2, 7, stats)
    assert text.splitlines()[0].startswith("fubini_study m=1, 2 points, seed 7:")
    assert "| theorem2 |" in text and "levi_civita_ricci" in text
    # the wrapper is gone again
    assert np.einsum is real
