"""`tools/dj_instances.py`: seeded plane de Jonquieres instance files."""

import importlib.util
import os

from jonq.cli import main
from jonq.instance import load_instance

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "dj_instances.py")
_spec = importlib.util.spec_from_file_location("dj_instances", _PATH)
dj_instances = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(dj_instances)


def _write(tmp_path, d, deg_f, seed):
    path = tmp_path / f"dj{d}{deg_f}_{seed}.jonq"
    argv = ["--d", str(d), "--deg-f", str(deg_f), "--seed", str(seed), "--out", str(path)]
    assert dj_instances.main(argv) == 0
    return path


def test_a_degree_2_draw_verifies_and_runs_rees(tmp_path, capsys):
    path = _write(tmp_path, 2, 1, 5)
    assert main(["verify-cremona", str(path), "--machine"]) == 0
    assert "cremona.verified = holds" in capsys.readouterr().out
    assert main(["rees", str(path), "--machine"]) == 0
    out = capsys.readouterr().out
    assert "fails" not in out and "skipped" not in out


def test_a_seed_names_one_instance(tmp_path):
    first = _write(tmp_path, 3, 1, 8).read_text()
    assert _write(tmp_path, 3, 1, 8).read_text() == first
    assert _write(tmp_path, 3, 1, 9).read_text() != first
    inst = load_instance(str(_write(tmp_path, 3, 2, 8)))
    assert [c.total_degree() for c in inst.cremona_coords] == [3, 3, 3]
    assert (inst.f.total_degree(), inst.g.total_degree()) == (2, 5)
