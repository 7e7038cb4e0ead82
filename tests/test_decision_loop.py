"""The decision loop knows nothing of traces and resolves no letter.

A stdlib AST check on ``equivalence.py``: nowhere in ``_decide``, its
signature and nested functions included, does a name ``trace``,
``Extraction`` or ``from_ints`` appear, nor a ``try`` statement, so
traced and untraced runs take one path and a run returns what it
recorded; a trace is rebuilt from the returned parents by the caller.
Inside the ``for`` and ``while`` loops of ``_decide`` no ``steps`` or
alphabet is read: each letter is paired with its step once, before the
loop, not once per extraction.  Exactly one function of the module constructs
an ``Extraction``, and exactly one, ``OutputKind.target``, names the word
sets ``Cone`` and ``FiniteWord`` that read an output row.
"""

import ast
from pathlib import Path

MODULE = Path(__file__).resolve().parents[1] / "src" / "ptstrace" / "equivalence.py"
TRACE_NAMES = {"trace", "Extraction", "from_ints"}
STEP_NAMES = {"steps", "alphabet"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _function(source: str, name: str) -> ast.AST:
    tree = ast.parse(source)
    return next(node for node in tree.body if getattr(node, "name", "") == name)


def trace_marks(source: str, function: str = "_decide") -> list[tuple[int, str]]:
    """``(line, word)`` of each ``try`` statement in ``function`` and each
    appearance there of a name of ``TRACE_NAMES``: a bare name, read or
    bound, an attribute or a parameter, anywhere in its definition."""
    marks = set()
    for node in ast.walk(_function(source, function)):
        if isinstance(node, ast.Try):
            marks.add((node.lineno, "try"))
        elif isinstance(node, ast.Name):
            marks.add((node.lineno, node.id))
        elif isinstance(node, ast.Attribute):
            marks.add((node.lineno, node.attr))
        elif isinstance(node, ast.arg):
            marks.add((node.lineno, node.arg))
    return sorted(mark for mark in marks if mark[1] in TRACE_NAMES | {"try"})


def loop_reads(source: str, names: set[str], function: str = "_decide") -> list[tuple[int, str]]:
    """``(line, name)`` of each read of one of ``names`` inside a ``for``
    or ``while`` loop of ``function``, as a bare name or an attribute."""
    body = _function(source, function)
    reads = set()
    for loop in ast.walk(body):
        if isinstance(loop, (ast.For, ast.While)):
            for node in ast.walk(loop):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    reads.add((node.lineno, node.id))
                elif isinstance(node, ast.Attribute):
                    reads.add((node.lineno, node.attr))
    return sorted(read for read in reads if read[1] in names)


def functions(source: str) -> list[ast.FunctionDef]:
    """The functions at module level or in a class body."""
    tree = ast.parse(source)
    found = [node for node in tree.body if isinstance(node, FUNCTIONS)]
    return found + [node for c in tree.body if isinstance(c, ast.ClassDef)
                    for node in c.body if isinstance(node, FUNCTIONS)]


def constructors(source: str, name: str = "Extraction") -> list[str]:
    """The functions, at module level or in a class body, that call ``name``."""
    return sorted(f.name for f in functions(source)
                  if any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
                         for node in ast.walk(f)))


def readers(source: str, names: set[str]) -> list[str]:
    """The functions, at module level or in a class body, that read any of
    ``names``: a call, or the bare name bound or passed on to be called later."""
    return sorted(f.name for f in functions(source)
                  if any(isinstance(node, ast.Name) and node.id in names
                         for node in ast.walk(f)))


SOURCE = MODULE.read_text(encoding="utf-8")


def test_the_decision_loop_reads_no_trace_name():
    assert trace_marks(SOURCE) == []


def test_one_function_constructs_extractions():
    assert len(constructors(SOURCE)) == 1


def test_a_trace_branch_in_the_loop_is_reported():
    source = (
        "def _decide(rep, store, trace=None):\n"
        "    configs = []\n"
        "    if trace is not None:\n"
        "        pass\n"
        "    while store.todo:\n"
        "        item = store.pop()\n"
        "        if trace is not None:\n"
        "            trace.append(Extraction(item, linear.from_ints(item)))\n"
        "        trace = None\n"
        "    for item in store.items:\n"
        "        configs.append(trace)\n"
        "    return Extraction(configs)\n"
        "class Store:\n"
        "    def dump(self):\n"
        "        return [Extraction(x) for x in self.items]\n"
        "def _extractions(links):\n"
        "    return [Extraction(link) for link in links]\n")
    # every appearance in _decide counts, in or out of its loops, the
    # parameter and a store to the name included; none in other functions
    assert trace_marks(source) == [(1, "trace"), (3, "trace"), (7, "trace"),
                                   (8, "Extraction"), (8, "from_ints"), (8, "trace"),
                                   (9, "trace"), (11, "trace"), (12, "Extraction")]
    assert constructors(source) == ["_decide", "_extractions", "dump"]


def test_a_trace_filled_in_a_finally_is_reported():
    # a run that fills its caller's trace on every exit, with no trace
    # name inside its loops
    source = (
        "def _decide(rep, start, store, max_steps, trace=None):\n"
        "    parents, iterations = [], 1\n"
        "    try:\n"
        "        for k, item in enumerate(store.items):\n"
        "            if (iterations := 2 + k) > max_steps:\n"
        "                return Inconclusive(max_steps)\n"
        "        return Equivalent(iterations)\n"
        "    finally:\n"
        "        if trace is not None:\n"
        "            trace.extend(_extractions(rep, start, parents, iterations))\n"
        "def _budgeted(rep, start, store, max_steps, trace):\n"
        "    return _decide(rep, start, store, max_steps, trace)\n")
    assert loop_reads(source, TRACE_NAMES) == []
    assert trace_marks(source) == [(1, "trace"), (3, "try"), (9, "trace"), (10, "trace")]


def test_the_decision_loop_resolves_no_letter():
    assert loop_reads(SOURCE, STEP_NAMES) == []


def test_a_letter_resolved_in_the_loop_is_reported():
    source = (
        "def _decide(rep, store):\n"
        "    by_letter = tuple(rep.steps.items())\n"
        "    while store.todo:\n"
        "        for letter in rep.alphabet:\n"
        "            store.push(scaled_step(rep.steps[letter], store.pop()))\n"
        "        for letter, step in by_letter:\n"
        "            store.push(scaled_step(step, store.pop()))\n"
        "        for step in steps:\n"
        "            store.push(scaled_step(step, store.pop()))\n"
        "        alphabet = steps = by_letter\n"
        "    return rep.alphabet, rep.steps\n")
    # the steps paired before the loop, a store to a name and the return
    # are not reads in it; a bare name and an attribute are
    assert loop_reads(source, STEP_NAMES) == [(4, "alphabet"), (5, "steps"), (8, "steps")]


ROW_SETS = {"Cone", "FiniteWord"}


def test_one_function_maps_an_output_row_to_its_word_set():
    assert readers(SOURCE, ROW_SETS) == ["target"]


def test_a_second_mapping_of_a_row_is_reported():
    source = (
        "class OutputKind(Enum):\n"
        "    def target(self, word):\n"
        "        return Cone(word) if self is TOTAL_MASS else FiniteWord(word)\n"
        "def _decide(rep, output, word):\n"
        "    kind = Cone if output is TOTAL_MASS else FiniteWord\n"
        "    return kind(word)\n"
        "def _check(rep, word):\n"
        "    return [measure(rep, FiniteWord(word))]\n"
        "def _other(rep, word):\n"
        "    return InfCone(word)\n")
    # a bare name counts as a mapping, a call of another word set does not
    assert readers(source, ROW_SETS) == ["_check", "_decide", "target"]
    assert constructors(source, "Cone") == ["target"]
