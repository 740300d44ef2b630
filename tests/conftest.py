import warnings

import pytest

from wachkit.cyclo import get_context

# Hypothesis's pytest plugin imports hypothesis.extra._patching while it
# reports a failing example, and that import warns (mypy_extensions.TypedDict
# is deprecated).  Under filterwarnings = error the warning escapes the
# plugin's report hook, pytest stops with INTERNALERROR, and no later test
# runs or is counted.  Importing the module once here, with that warning
# ignored, leaves the report nothing to import.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@pytest.fixture(scope="session")
def ctx3():
    return get_context(3)


@pytest.fixture(scope="session")
def ctx5():
    return get_context(5)


@pytest.fixture(scope="session")
def ctx7():
    return get_context(7)


@pytest.fixture(scope="session")
def contexts(ctx3, ctx5, ctx7):
    return {3: ctx3, 5: ctx5, 7: ctx7}


class _Captured(Exception):
    pass


@pytest.fixture
def solver_step(monkeypatch):
    """Call a solver and return the (step, start) it hands to iterate_to_window.

    The solver stops there, so a test can run the step, the shared
    fixed-point map of wach.lift_identity, on inputs of its own.
    """
    from wachkit import wach

    def capture(solve, *args, **kwargs):
        seen = []

        def stop(step, X, budget):
            seen.append((step, X))
            raise _Captured

        with monkeypatch.context() as mp:
            mp.setattr(wach, "iterate_to_window", stop)
            with pytest.raises(_Captured):
                solve(*args, **kwargs)
        return seen[0]

    return capture
