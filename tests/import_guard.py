"""Import-path guard: the package and its CLI load without scipy or networkx.

Runs ``import repro, repro.api, repro.campaign`` and then
``python -m repro --help`` in this interpreter, and exits non-zero,
naming the offenders, if either pulled in a module of a package listed
in :data:`HEAVY`.  Needs only the package itself (no test extras)::

    python tests/import_guard.py

``tests/test_import_path.py`` runs it in a fresh interpreter.
"""

import contextlib
import io
import runpy
import sys

#: Top-level packages the import path must not load: scipy is only for
#: ``ResultFrame.mean_ci``, networkx only for ``TaskGraph.as_networkx``.
HEAVY = ("scipy", "networkx")


def heavy_packages():
    return sorted({m.split(".")[0] for m in sys.modules} & set(HEAVY))


def main() -> int:
    import repro  # noqa: F401
    import repro.api  # noqa: F401
    import repro.campaign  # noqa: F401

    sys.argv = ["repro", "--help"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        if exc.code not in (None, 0):
            print(f"python -m repro --help exited {exc.code}")
            return 1
    found = heavy_packages()
    if found:
        print("the import path loaded " + " and ".join(found))
        return 1
    print("import path clean: no " + " or ".join(HEAVY))
    return 0


if __name__ == "__main__":
    sys.exit(main())
