import hashlib
import json
import shutil
from pathlib import Path

import pytest

import gammaq.cache as cache
import gammaq.qkostka as qkostka
from gammaq.cache import Cache
from gammaq.cli import main
from gammaq.memo import clear_memos, persistent
from gammaq.qkostka import l_table
from gammaq.tpoly import TPoly


@pytest.fixture(autouse=True)
def _fresh_memos():
    clear_memos()
    yield
    clear_memos()


def _run(capsys, argv):
    assert main(argv) == 0, argv
    return capsys.readouterr().out


def _files(directory):
    """name -> (bytes, mtime_ns, inode) of every file in directory."""
    if not directory.exists():
        return {}
    return {
        p.name: (p.read_bytes(), p.stat().st_mtime_ns, p.stat().st_ino)
        for p in directory.iterdir()
    }


# Each command with the persistent memos it reads.
COMMANDS = [
    (["lkostka", "--n", "6"], {"L"}),
    (["spin-green", "--n", "5"], {"Y"}),
    (["spin-char", "--n", "5"], {"Y"}),
    (["expand", "--family", "G", "--lambda", "4,2,1", "--basis", "Q"], {"L"}),
    (["expand", "--family", "Q", "--lambda", "4,2,1", "--basis", "Q"], set()),
    (["expand", "--family", "G", "--lambda", "4,2,1", "--basis", "p"], {"vacuum"}),
    (["expand", "--family", "Q", "--lambda", "4,2,1", "--basis", "p"], {"vacuum"}),
]


@pytest.mark.parametrize("argv, reads", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_warm_repeat_is_read_only_and_scoped(tmp_path, capsys, argv, reads):
    cdir = tmp_path / "cache"
    expected = _run(capsys, argv + ["--no-cache"])
    for first, _ in COMMANDS:  # fills every cache file, this command's too
        clear_memos()
        _run(capsys, first + ["--cache-dir", str(cdir)])
    before = _files(cdir)
    assert set(before) == {f"{m.name}.json" for m in persistent()}
    clear_memos()
    assert _run(capsys, argv + ["--cache-dir", str(cdir)]) == expected
    assert _files(cdir) == before
    for m in persistent():
        assert bool(m.table) == (m.name in reads), m.name


def test_saves_of_disjoint_entries_merge(tmp_path):
    cdir = str(tmp_path)
    k0, k1, k2 = ((3,), (2, 1)), ((4, 1), (3, 2)), ((5,), (4, 1))
    qkostka._l_memo[k0] = TPoly([0, 2])
    Cache(cdir).save()
    # two processes load the same file, then each adds its own entry
    clear_memos()
    first, second = Cache(cdir), Cache(cdir)
    first.load()
    second.load()
    qkostka._l_memo[k1] = TPoly([0, 2])
    first.save()
    del qkostka._l_memo[k1]
    qkostka._l_memo[k2] = TPoly([0, 1])
    second.save()
    clear_memos()
    Cache(cdir).load()
    assert qkostka._l_memo == {k0: TPoly([0, 2]), k1: TPoly([0, 2]), k2: TPoly([0, 1])}


def test_failed_save_keeps_the_old_file(tmp_path, monkeypatch):
    l_table(3)
    Cache(str(tmp_path)).save()
    before = (tmp_path / "L.json").read_bytes()
    clear_memos()
    l_table(4)

    def dump_then_fail(obj, fh, **kwargs):
        fh.write('{"version": ')
        raise RuntimeError("disk full")

    monkeypatch.setattr(cache.json, "dump", dump_then_fail)
    with pytest.raises(RuntimeError):
        Cache(str(tmp_path)).save()
    assert (tmp_path / "L.json").read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["L.json"]


def test_writing_save_removes_only_fmt1_files(tmp_path, capsys):
    fmt1 = {"version": "gammaq-0.1.0-fmt1", "kind": "qhl", "entries": {}}
    (tmp_path / "qhl.json").write_text(json.dumps(fmt1))
    (tmp_path / "schur_q.json").write_text(json.dumps(dict(fmt1, version="mine")))
    (tmp_path / "notes.json").write_text(json.dumps(fmt1))
    kept = {name: (tmp_path / name).read_bytes() for name in ("schur_q.json", "notes.json")}
    _run(capsys, ["expand", "--family", "G", "--lambda", "3,1", "--basis", "p", "--cache-dir", str(tmp_path)])
    assert not (tmp_path / "qhl.json").exists()
    assert (tmp_path / "vacuum.json").exists()
    assert {name: (tmp_path / name).read_bytes() for name in kept} == kept


def test_unwritable_cache_warns_and_keeps_the_answer(tmp_path, capsys):
    expected = _run(capsys, ["lkostka", "--n", "3", "--no-cache"])
    clear_memos()
    blocker = tmp_path / "not-a-directory"
    blocker.write_bytes(b"keep me")
    assert main(["lkostka", "--n", "3", "--cache-dir", str(blocker)]) == 0
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err.startswith("warning: ") and captured.err.count("\n") == 1
    assert blocker.read_bytes() == b"keep me"


def test_file_tagged_by_the_module_list_rule_is_ignored(tmp_path, capsys):
    # The earlier rule hashed seven named modules and tagged files "fmt2".
    named = ("partitions", "tpoly", "gamma", "vertexops", "qkostka", "spingreen", "memo")
    package = Path(cache.__file__).parent
    source = b"".join((package / f"{name}.py").read_bytes() for name in named)
    tag = "gammaq-0.1.0-fmt2-" + hashlib.sha256(source).hexdigest()[:12]
    argv = ["spin-green", "--n", "3", "--format", "csv"]
    expected = _run(capsys, argv + ["--no-cache"])
    clear_memos()
    old = {"version": tag, "kind": "Y", "entries": {"2,1|3": ["7"]}}
    (tmp_path / "Y.json").write_text(json.dumps(old))
    assert _run(capsys, argv + ["--cache-dir", str(tmp_path)]) == expected


def test_fingerprint_covers_every_module(tmp_path, monkeypatch):
    package = Path(cache.__file__).parent
    copy = tmp_path / "gammaq"
    copy.mkdir()
    for path in package.glob("*.py"):
        shutil.copy(path, copy / path.name)
    monkeypatch.setattr(cache, "__file__", str(copy / "cache.py"))
    assert cache._fingerprint() in cache.VERSION_TAG
    seen = {cache._fingerprint()}
    with open(copy / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\n")
    seen.add(cache._fingerprint())
    (copy / "extra.py").write_text("")
    seen.add(cache._fingerprint())
    assert len(seen) == 3


def test_file_without_source_fingerprint_is_ignored(tmp_path, capsys):
    expected = _run(capsys, ["lkostka", "--n", "3", "--no-cache"])
    clear_memos()
    old = {"version": "gammaq-0.1.0-fmt2", "kind": "L", "entries": {"3|2,1": ["9"]}}
    (tmp_path / "L.json").write_text(json.dumps(old))
    assert _run(capsys, ["lkostka", "--n", "3", "--cache-dir", str(tmp_path)]) == expected
