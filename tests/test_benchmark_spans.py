"""Every span name the benchmark's per-layer figures read is a traced engine function.

``perfbench/phases.py`` reads its traced figures by span name, such as
``lexicon.Lexicon.senses``. Renaming or deleting the function behind one
leaves that figure absent, and ``perfbench/run.py --trace 1`` then fails
(it cannot format an absent figure), so the names are checked here.
"""

import os
import sys
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import phases  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402

from neartag.fvec import write_vectors  # noqa: E402


class AskedNames:
    """A tracer's ``wrapped`` set that holds every name and records each one asked for."""

    def __init__(self):
        self.asked = set()

    def __contains__(self, name):
        self.asked.add(name)
        return True


def test_every_span_name_the_benchmark_reads_is_traced(tmp_path):
    names = AskedNames()
    stub = SimpleNamespace(wrapped=names, observer_errors=set(), window=tracer.Window)
    workload = tiny(WORKLOADS["desk100k"])
    write_vectors(str(tmp_path / "refs.fvec"), ["a", "b"], np.ones((2, workload.dim)))
    phases.run_build(workload, str(tmp_path), 1, stub)
    phases.serve_layers(stub, SimpleNamespace(index=SimpleNamespace()), [tracer.Window()], [tracer.Window()],
                        [tracer.Window()], 1, [1.0])
    read = names.asked | set(tracer.OBSERVERS)
    assert "lexicon.Lexicon.senses" in read and "index.save_index" in read
    real = tracer.Tracer()
    try:
        real.install()
        assert sorted(read - real.wrapped) == []
    finally:
        real.uninstall()
