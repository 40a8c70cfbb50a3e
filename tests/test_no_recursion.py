"""The engine never recurses: its module-level call graph has no cycle.

``normalform`` and ``wordexpr`` walk nested forms and expressions on
explicit stacks, so that nesting depth costs no Python stack.  A function
that calls itself, directly or through others in these modules, breaks that.
"""

import ast
import graphlib
import pathlib

import amalgam

ENGINE = ("normalform", "wordexpr")


def call_graph(sources):
    """{function: functions it calls} over modules given as {name: text}.

    Functions are module-level functions and methods, named
    ``module.function``; a call inside a nested function counts for the one
    around it.  A called plain name resolves to a function of the same
    module or one imported from another given module, ``self.name`` to a
    method of the same module.
    """
    bodies, scopes = {}, {}
    for module, text in sources.items():
        scope = scopes[module] = {}
        for node in ast.parse(text).body:
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.rpartition(".")[2]
                if source in sources:
                    scope.update({a.asname or a.name: f"{source}.{a.name}"
                                  for a in node.names})
            for member in (node.body if isinstance(node, ast.ClassDef)
                           else [node]):
                if isinstance(member, ast.FunctionDef):
                    bodies[f"{module}.{member.name}"] = (module, member)
                    scope.setdefault(member.name, f"{module}.{member.name}")
    graph = {}
    for qual, (module, node) in bodies.items():
        graph[qual] = set()
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                target = scopes[module].get(func.id)
            elif (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "self"):
                target = f"{module}.{func.attr}"
            else:
                continue
            if target in bodies:
                graph[qual].add(target)
    return graph


def cycle(graph):
    """One cycle of the graph as a list of nodes, or None."""
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        return exc.args[1]
    return None


def test_engine_call_graph_is_acyclic():
    package = pathlib.Path(amalgam.__file__).parent
    graph = call_graph({m: (package / f"{m}.py").read_text() for m in ENGINE})
    # the graph is the real one, across both modules
    assert {"normalform._close", "normalform._assemble"} <= graph[
        "normalform.reduce_word"]
    assert "normalform._close" in graph["normalform.mul"]
    assert "normalform.inv" in graph["wordexpr.eval_expr"]
    assert cycle(graph) is None


def test_recursion_is_seen():
    direct = "def f(x):\n    return f(x - 1) if x else 0\n"
    assert cycle(call_graph({"a": direct})) == ["a.f", "a.f"]
    method = ("class C:\n"
              "    def walk(self, x):\n"
              "        return [self.walk(y) for y in x]\n")
    assert cycle(call_graph({"a": method})) == ["a.walk", "a.walk"]
    mutual = {"a": "from pkg.b import g\ndef f(x):\n    return g(x)\n",
              "b": "from pkg.a import f\ndef g(x):\n    return f(x)\n"}
    assert sorted(set(cycle(call_graph(mutual)))) == ["a.f", "b.g"]
    chain = {"a": "from pkg.b import g\ndef f(x):\n    return g(x)\n",
             "b": "def g(x):\n    return h(x)\ndef h(x):\n    return x\n"}
    assert cycle(call_graph(chain)) is None
