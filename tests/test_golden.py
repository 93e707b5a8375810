"""Every CLI output at fixed seeds, regenerated in-process and compared with
the committed copies under ``tests/golden/`` (see ``golden_outputs.py``)."""

import golden_outputs as golden


def test_outputs_match_the_golden_files(tmp_path, monkeypatch):
    monkeypatch.setenv("RADIAL_THREADS", "1")
    got = golden.generate(tmp_path)
    committed = {p.name for p in golden.GOLDEN.iterdir()} - {golden.TRAIN, ".gitattributes"}
    assert set(got) == committed
    results = [golden.compare(name, golden.read(golden.GOLDEN / name), text)
               for name, text in sorted(got.items())]
    failed = [str(r) for r in results if not r.ok]
    assert not failed, (
        f"outputs differ from tests/golden/ (floats within {golden.ATOL:g} + "
        f"{golden.RTOL:g} |golden|; integers, classes and text exactly):\n" + "\n".join(failed))


def test_comparison_names_what_moved():
    result = golden.compare("x.csv", "a,1,0.5,2.0\r\n", "a,1,0.5000000001,2.5\r\n")
    assert not result.ok
    assert (result.values, result.moved, result.beyond_tolerance, result.exact_mismatches) == (3, 2, 1, 0)
    assert result.largest == 0.5
    assert "x.csv: 2 of 3 values moved, largest change 0.5" in str(result)
    assert not golden.compare("x.csv", "k=3", "k=4").ok
    assert not golden.compare("x.csv", "a,1", "b,1").ok
    assert golden.compare("x.csv", "a,nan,1e-300", "a,nan,1e-300").ok
    flip = golden.compare(next(iter(golden.CLASS_FILES)), "0.4999999999999", "0.5")
    assert flip.beyond_tolerance == 0 and flip.class_flips == 1 and not flip.ok
