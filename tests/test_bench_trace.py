"""The benchmark tracer must resolve every traced name in the current package.

``bench/run.py --trace 1`` wraps chainkit functions by module path and
qualified name; a renamed or removed target would stop it with a KeyError.
"""

import sys
from pathlib import Path

import chainkit
import chainkit.cli  # noqa: F401  (traced, and not imported by the package)

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    from tracing import TARGETS, Tracer
finally:
    sys.path.remove(BENCH)


def _snapshot():
    modules = {k: m for k, m in sys.modules.items()
               if k == "chainkit" or k.startswith("chainkit.")}
    state = {k: dict(vars(m)) for k, m in modules.items()}
    for target in TARGETS:
        modname, qualname = target.where.split(":")
        owner = sys.modules[modname]
        *path, _ = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if path:
            state[target.where] = dict(vars(owner))
    return state, dict(chainkit.suites.SUITES)


def test_tracer_installs_every_target_and_uninstalls_cleanly():
    before, suites_before = _snapshot()
    tracer = Tracer()
    try:
        tracer.install()
        for target in TARGETS:
            modname, qualname = target.where.split(":")
            owner = sys.modules[modname]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            wrapped = vars(owner)[attr]
            wrapped = getattr(wrapped, "__func__", wrapped)
            assert hasattr(wrapped, "__wrapped__"), target.where
        assert len(tracer._patches) >= len(TARGETS)
    finally:
        tracer.uninstall()
    assert not tracer._patches
    after, suites_after = _snapshot()
    assert suites_after == suites_before
    assert after.keys() == before.keys()
    for key, names in before.items():
        for name, value in names.items():
            assert after[key][name] is value, (key, name)
