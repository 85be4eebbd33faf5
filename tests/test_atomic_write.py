"""Every output file is written whole or not at all, with the umask's permissions.

A failed write leaves the path as it was (an earlier file included) and
no temp file beside it.
"""

import errno
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

import neartag
from neartag import fvec, synth
from neartag.annotator import Annotation, write_annotations
from neartag.cli import main
from neartag.index import IndexConfig, build_index_from_arrays, save_index

resource = pytest.importorskip("resource")

WRITERS = ("vectors", "index", "annotations", "lines")

# Writes about 9 kB of one kind of output with RLIMIT_FSIZE at 4096 bytes,
# so the write fails part-way with EFBIG; prints the errno it failed with.
_CHILD = r"""
import resource, signal, sys
import numpy as np
from neartag import fvec, synth
from neartag.annotator import Annotation, write_annotations
from neartag.index import IndexConfig, build_index_from_arrays, save_index

kind, path = sys.argv[1:]
ids = [f"img{i:05d}" for i in range(300)]
matrix = np.ones((300, 6), dtype=np.float32)
index = build_index_from_arrays(ids, matrix, IndexConfig(dim=6))
write = {
    "vectors": lambda: fvec.write_vectors(path, ids, matrix),
    "index": lambda: save_index(index, path),
    "annotations": lambda: write_annotations(path, [Annotation(i, (("cat", 0.5), ("dog", 0.25))) for i in ids]),
    "lines": lambda: synth._write_lines(path, (f"{i}\tkeyword" for i in ids * 2)),
}[kind]
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, 4096))
try:
    write()
except OSError as exc:
    print(exc.errno)
"""


def _write(kind, path):
    ids = ["a", "b"]
    matrix = np.ones((2, 3), dtype=np.float32)
    if kind == "vectors":
        fvec.write_vectors(path, ids, matrix)
    elif kind == "index":
        save_index(build_index_from_arrays(ids, matrix, IndexConfig(dim=3)), path)
    elif kind == "annotations":
        write_annotations(path, [Annotation("a", (("cat", 0.5),))])
    else:
        synth._write_lines(path, ["a\tcat"])


@pytest.mark.parametrize("kind", WRITERS)
def test_failed_write_keeps_the_earlier_file(tmp_path, kind):
    path = tmp_path / "out"
    path.write_bytes(b"the earlier file\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(neartag.__file__)))
    done = subprocess.run([sys.executable, "-c", _CHILD, kind, str(path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(errno.EFBIG)
    assert path.read_bytes() == b"the earlier file\n"
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("mask", (0o022, 0o027), ids=("022", "027"))
@pytest.mark.parametrize("kind", WRITERS)
def test_outputs_take_the_umask_permissions(tmp_path, kind, mask):
    path = str(tmp_path / "out")
    old = os.umask(mask)
    try:
        _write(kind, path)
    finally:
        os.umask(old)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o666 & ~mask
    assert os.listdir(tmp_path) == ["out"]


def test_build_leaves_other_files_beside_the_index_alone(tmp_path, capsys):
    root = tmp_path / "corpus"
    assert main(["generate", "--out", str(root), "--dim", "4", "--concepts", "3", "--refs", "5",
                 "--queries", "2"]) == 0
    neighbour = root / "refs.index.tmp"
    neighbour.write_bytes(b"another build's file\n")
    assert main(["build", "--config", str(root / "engine.conf")]) == 0
    capsys.readouterr()
    assert neighbour.read_bytes() == b"another build's file\n"
    assert (root / "refs.index").stat().st_size > 0
