"""Every output byte of eight small runs against ``tests/golden/manifest.json``,
and of the three runs that map samples again on two workers; and what
``regen.py --diff`` prints for two kept trees.

A refactor that claims to move no result must pass this test unchanged;
a change that moves results rewrites the manifest with
``tests/golden/regen.py`` and says so.  See that script for the runs.
"""

import importlib.util
import json
import pathlib
import shutil

import pytest

_GOLDEN = pathlib.Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regen", _GOLDEN / "regen.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def _manifest() -> dict:
    manifest = json.loads((_GOLDEN / "manifest.json").read_text())
    here = regen.fingerprint()
    moved = {key: (value, here.get(key)) for key, value in manifest["platform"].items()
             if here.get(key) != value}
    if moved:
        pytest.skip(f"golden manifest made on another platform: {moved}")
    return manifest["outputs"]


def test_outputs_match_golden_manifest(tmp_path):
    manifest = _manifest()
    hashes = regen.outputs(str(tmp_path))
    assert sorted(hashes) == sorted(manifest)
    changed = [name for name, digest in hashes.items() if digest != manifest[name]]
    assert not changed, f"outputs differ from the golden manifest: {changed}"


def test_two_worker_outputs_match_golden_manifest(tmp_path):
    # the manifest's runs map on one process; the same runs spread over two
    # workers of one shared pool must write the same bytes (report.json
    # enters without its provenance, which records the worker count)
    manifest = _manifest()
    hashes = regen.outputs(str(tmp_path), ("real_density", "semicircle", "verify"), threads=2)
    assert len(hashes) == 8
    changed = [name for name, digest in hashes.items() if digest != manifest[name]]
    assert not changed, f"two-worker outputs differ from the golden manifest: {changed}"


def test_diff_of_a_tree_with_itself_prints_nothing(tmp_path, capsys):
    regen.outputs(str(tmp_path), ("gap_signature", "theory"))
    assert regen.main(["--diff", str(tmp_path), str(tmp_path)]) == 0
    assert capsys.readouterr().out == ""


def test_diff_names_the_moved_line_and_column(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    regen.outputs(str(old), ("gap_signature",))
    shutil.copytree(old, new)
    path = new / "gap_signature" / "gap_grid.csv"
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[5].rstrip("\n").split(",")
    j = lines[0].rstrip("\n").split(",").index("re_G")
    before = float(fields[j])
    fields[j] = repr(before + 0.25)
    lines[5] = ",".join(fields) + "\n"
    path.write_text("".join(lines))
    assert regen.main(["--diff", str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "gap_signature/gap_grid.csv: differs",
        "  lines 6",
        f"  re_G: max |delta| {abs(before + 0.25 - before)!r}",
    ]


def test_diff_names_the_moved_verification_record(tmp_path, capsys):
    old, new = tmp_path / "old", tmp_path / "new"
    regen.outputs(str(old), ("verify",))
    shutil.copytree(old, new)
    path = new / "verify" / "verification.json"
    records = json.loads(path.read_text())
    moved = next(r for r in records if r["check_name"] == "identity[block]")
    before = moved["residual"]
    moved["residual"], moved["pass"] = 1.0, False
    path.write_text(json.dumps(records, indent=2) + "\n")
    assert regen.main(["--diff", str(old), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "verify/verification.json: differs",
        f"  identity[block].residual: {json.dumps(before)} -> 1.0",
        "  identity[block].pass: true -> false",
    ]
