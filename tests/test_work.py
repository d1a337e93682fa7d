"""Work counts: what each README command does, counted, not timed.

The six commands of the README's "Command line" section run through
``cli.main`` in one fresh process, in the README's order (the carrier
check reads ``tests/data/carriers/odd.json``).  Spies wrap, from
outside the package, the functions that measure the work:

    checks         calls of ``equal_on_window``
    labels         the labels those checks compared (their ``instances``)
    kernels        law kernels compiled (``_Compiler.kernel``)
    images         image functions compiled (``_Compiler.image``)
    apply          calls of ``LinMap.apply``
    tensor_spaces  tensor spaces built (``_tensor_space``)
    complexes      chain complexes built (``ChainComplex._check``)
    products       matrix products (``_Matrix.dot``)

The table is pinned exactly in ``tests/data/work.json``: a change that
moves a cell updates the file and says why.  A count is not a bound.
The commands run in a subprocess, so the test order and the caches a
process keeps (the law kernels, the fixed rings) cannot move a count.

Regenerate the table with::

    PYTHONPATH=src python tests/test_work.py > tests/data/work.json
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

COMMANDS = [
    ("verify-pareigis", ["--command", "verify-pareigis", "--s=-1", "--window", "6"]),
    ("check-axioms", ["--command", "check-axioms", "--ring", "laurent", "--window", "6",
                      "--format", "text"]),
    ("carrier-check", ["--command", "carrier-check",
                       "--carrier-file", str(DATA / "carriers" / "odd.json")]),
    ("build-semidirect", ["--command", "build-semidirect", "--s", "1", "--window", "4"]),
    ("roundtrip", ["--command", "roundtrip", "--trials", "100", "--seed", "42"]),
    ("bicomplex-check", ["--command", "bicomplex-check", "--trials", "25", "--seed", "7"]),
]

COUNTERS = ["checks", "labels", "kernels", "images", "apply", "tensor_spaces",
            "complexes", "products"]


def work_table():
    "Run the commands in this process and return their counts, command by command."
    from hopfchains import chains, cli, linalg

    counts = dict.fromkeys(COUNTERS, 0)

    def spy(counter, fn, weigh=None):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[counter] += 1
            if weigh:
                counts[weigh] += out.instances
            return out
        return wrapped

    # a function imported by name is rebound in every module that holds it
    for fn, wrapped in [(linalg.equal_on_window, spy("checks", linalg.equal_on_window, "labels")),
                        (linalg._tensor_space, spy("tensor_spaces", linalg._tensor_space))]:
        for name, module in list(sys.modules.items()):
            if name == "hopfchains" or name.startswith("hopfchains."):
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapped)
    for cls, attr, counter in [(linalg._Compiler, "kernel", "kernels"),
                               (linalg._Compiler, "image", "images"),
                               (linalg.LinMap, "apply", "apply"),
                               (chains.ChainComplex, "_check", "complexes"),
                               (chains._Matrix, "dot", "products")]:
        setattr(cls, attr, spy(counter, getattr(cls, attr)))

    table = {}
    for name, argv in COMMANDS:
        for counter in counts:
            counts[counter] = 0
        status = cli.main(argv + ["--output", os.devnull])
        table[name] = dict(counts, status=status)
    return table


def test_the_work_of_each_readme_command_is_pinned():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, __file__], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == json.loads((DATA / "work.json").read_text())


if __name__ == "__main__":
    print(json.dumps(work_table(), indent=1))
