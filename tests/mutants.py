"""Faults put into the package in-process, for the tests that show a check
catches them.  A mutant is one exact text replacement in the source of one
module-level function; replacements made one after another compose."""

import inspect


def mutate(monkeypatch, module, name, old, new):
    """Replace the function ``module.name``, until ``monkeypatch`` is undone,
    by one compiled from its source with the text ``old``, which must occur
    there exactly once, replaced by ``new``.  On a function that is already
    a mutant the source is the mutant's, so a fault that needs several
    replacements is made by one call each.  The mutant runs in the module's
    globals, so it calls the module's other functions, and they call it, by
    name; it keeps the original's line numbers."""
    function = getattr(module, name)
    source, first = getattr(function, "mutant_source", None) or _source(function)
    found = source.count(old)
    if found != 1:
        raise ValueError(f"{old!r} occurs {found} times in {module.__name__}.{name}")
    source = source.replace(old, new)
    scope = {}
    exec(compile("\n" * (first - 1) + source, module.__file__, "exec"), vars(module), scope)
    scope[name].mutant_source = source, first
    monkeypatch.setattr(module, name, scope[name])


def _source(function):
    lines, first = inspect.getsourcelines(function)
    return "".join(lines), first
