"""One call watcher for the tests: `watch` records, or forbids, the calls
of a package function, whichever binding the caller reads it through.

A test that pins what a path calls or never calls (no rank table after
the search, no `equals`, one rank query per pipeline) installs a watch
after its set-up, runs the path, and asserts on the log.  The watch is
undone with the test's `monkeypatch`.

`lines_run` records the lines of one source file that a block runs, so
that a refusal table can name the `raise` or `return` that refused a
row, even when the caller catches the error.
"""

import sys
from contextlib import contextmanager
from functools import wraps


def forbid(*args, **kwargs):
    """A `key` for calls that must not happen."""
    raise AssertionError("a forbidden call was made")


def watch(monkeypatch, target, log, key=None):
    """Rebind `target` so that each call appends `key(*args, **kwargs)` to
    `log`, by default the function's name, and then runs the original; a
    `key` that raises forbids the call.

    `target` is a function, rebound under every name in every loaded
    `matroidfrag` module that binds that very object, so a call through
    any import path is seen; or a `(class, name)` pair, the attribute
    of that class alone, where a staticmethod or classmethod stays one.
    A target bound nowhere is refused."""
    if isinstance(target, tuple):
        cls, name = target
        original = vars(cls)[name]
        bindings = [target]
    else:
        original = target
        bindings = [(module, name) for module_name, module in list(sys.modules.items())
                    if module is not None and module_name.partition(".")[0] == "matroidfrag"
                    for name, value in vars(module).items() if value is target]
        if not bindings:
            raise LookupError(f"{target.__qualname__} is bound in no matroidfrag module")
    kind = type(original) if isinstance(original, (staticmethod, classmethod)) else None
    fn = original.__func__ if kind else original
    key = key or (lambda *args, **kwargs: fn.__name__)

    @wraps(fn)
    def watched(*args, **kwargs):
        log.append(key(*args, **kwargs))
        return fn(*args, **kwargs)

    for owner, name in bindings:
        monkeypatch.setattr(owner, name, kind(watched) if kind else watched)


@contextmanager
def lines_run(path):
    """Yield the set of line numbers of the source file `path` that run
    inside the block, filled as they run; no other file is traced."""
    lines = set()

    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return line

    before = sys.gettrace()
    sys.settrace(lambda frame, event, arg: line if frame.f_code.co_filename == path else None)
    try:
        yield lines
    finally:
        sys.settrace(before)
