"""The CLI's reports on bundled inputs, byte for byte, against the committed manifest.

`golden_reports.py` lists the cases and regenerates the manifest; the benchmark-input cases
of the same manifest run in CI.
"""

import golden_reports


def test_bundled_reports_match_the_manifest():
    manifest = golden_reports.load_manifest()
    got = golden_reports.run_cases(bench=False)
    assert golden_reports.moved(got, manifest) == []
    assert set(got) == {name for name in manifest if not name.startswith("bench.")}
