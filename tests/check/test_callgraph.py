"""Package-wide call graph: imports, qualnames, edges, worker sites.

Each test writes a small synthetic package into ``tmp_path`` and
builds a :class:`~repro.check.callgraph.Program` over it, pinning the
resolution rules the whole-program analyses depend on: absolute,
relative and aliased imports; re-export canonicalization through
``__init__``; transitive reachability that expands instantiated
classes; and detection of pool/thread hand-off sites.
"""

from pathlib import Path

from repro.check.callgraph import Program


def _make_package(tmp_path: Path, files) -> Path:
    root = tmp_path / "pkg"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    if not (root / "__init__.py").exists():
        (root / "__init__.py").write_text("")
    return root


def _build(tmp_path, files) -> Program:
    return Program.build(_make_package(tmp_path, files), "pkg")


# ----------------------------------------------------------------------
# Module and definition indexing
# ----------------------------------------------------------------------
class TestIndexing:
    def test_module_names_and_init_mapping(self, tmp_path):
        program = _build(tmp_path, {
            "__init__.py": "",
            "a.py": "def f():\n    pass\n",
            "sub/__init__.py": "",
            "sub/b.py": "def g():\n    pass\n",
        })
        assert set(program.modules) == {"pkg", "pkg.a", "pkg.sub",
                                        "pkg.sub.b"}

    def test_qualnames_for_functions_methods_and_module(self, tmp_path):
        program = _build(tmp_path, {
            "a.py": ("def f():\n"
                     "    pass\n"
                     "class C:\n"
                     "    def m(self):\n"
                     "        pass\n"),
        })
        assert "pkg.a.f" in program.functions
        assert "pkg.a.C.m" in program.functions
        assert "pkg.a.<module>" in program.functions
        assert program.class_methods["pkg.a.C"] == {"m"}

    def test_global_names_collected(self, tmp_path):
        program = _build(tmp_path, {
            "a.py": "STATE = {}\ndef f():\n    local = 1\n",
        })
        assert "STATE" in program.modules["pkg.a"].global_names
        assert "local" not in program.modules["pkg.a"].global_names


# ----------------------------------------------------------------------
# Import resolution
# ----------------------------------------------------------------------
class TestImports:
    def test_absolute_aliased_and_relative_imports(self, tmp_path):
        program = _build(tmp_path, {
            "a.py": ("import numpy as np\n"
                     "import os.path\n"
                     "from pkg.b import helper\n"
                     "from . import b\n"
                     "from .b import helper as h2\n"),
            "b.py": "def helper():\n    pass\n",
        })
        imports = program.modules["pkg.a"].imports
        assert imports["np"] == "numpy"
        assert imports["os"] == "os"
        assert imports["helper"] == "pkg.b.helper"
        assert imports["b"] == "pkg.b"
        assert imports["h2"] == "pkg.b.helper"

    def test_canonicalize_chases_reexports(self, tmp_path):
        program = _build(tmp_path, {
            "util/__init__.py": "from .timing import reset\n",
            "util/timing.py": "def reset():\n    pass\n",
        })
        assert program.canonicalize("pkg.util.reset") \
            == "pkg.util.timing.reset"
        # Already-canonical names are fixed points.
        assert program.canonicalize("pkg.util.timing.reset") \
            == "pkg.util.timing.reset"


# ----------------------------------------------------------------------
# Call edges and reachability
# ----------------------------------------------------------------------
class TestReachability:
    def test_cross_module_call_edges(self, tmp_path):
        program = _build(tmp_path, {
            "a.py": ("from .b import helper\n"
                     "def caller():\n"
                     "    helper()\n"),
            "b.py": ("def helper():\n"
                     "    leaf()\n"
                     "def leaf():\n"
                     "    pass\n"),
        })
        assert "pkg.b.helper" in program.functions["pkg.a.caller"].calls
        reach = program.reachable(["pkg.a.caller"])
        assert {"pkg.a.caller", "pkg.b.helper", "pkg.b.leaf"} <= reach

    def test_reachability_through_reexport(self, tmp_path):
        program = _build(tmp_path, {
            "util/__init__.py": "from .timing import reset\n",
            "util/timing.py": "def reset():\n    pass\n",
            "a.py": ("from .util import reset\n"
                     "def caller():\n"
                     "    reset()\n"),
        })
        assert "pkg.util.timing.reset" in program.reachable(["pkg.a.caller"])

    def test_instantiating_a_class_reaches_all_methods(self, tmp_path):
        program = _build(tmp_path, {
            "a.py": ("class Flow:\n"
                     "    def __init__(self):\n"
                     "        pass\n"
                     "    def run(self):\n"
                     "        self.step()\n"
                     "    def step(self):\n"
                     "        pass\n"),
            "b.py": ("from .a import Flow\n"
                     "def main():\n"
                     "    Flow().run()\n"),
        })
        reach = program.reachable(["pkg.b.main"])
        assert {"pkg.a.Flow.__init__", "pkg.a.Flow.run",
                "pkg.a.Flow.step"} <= reach

    def test_unresolvable_calls_are_dropped_not_invented(self, tmp_path):
        program = _build(tmp_path, {
            "a.py": ("def caller(cb):\n"
                     "    cb()\n"
                     "    some_external.thing()\n"),
        })
        reach = program.reachable(["pkg.a.caller"])
        assert reach == {"pkg.a.caller"}


# ----------------------------------------------------------------------
# Worker-site detection
# ----------------------------------------------------------------------
class TestWorkerSites:
    def test_process_pool_submit(self, tmp_path):
        program = _build(tmp_path, {
            "a.py": ("from concurrent.futures import ProcessPoolExecutor\n"
                     "def work(x):\n"
                     "    return x\n"
                     "def fan_out(items):\n"
                     "    with ProcessPoolExecutor() as pool:\n"
                     "        return [pool.submit(work, i) for i in items]\n"),
        })
        sites = program.worker_sites()
        assert len(sites) == 1
        site = sites[0]
        assert site.kind == "process"
        assert site.target_qualname == "pkg.a.work"
        assert site.caller == "pkg.a.fan_out"
        assert "pkg.a.work" in program.worker_reachable()

    def test_thread_target_keyword(self, tmp_path):
        program = _build(tmp_path, {
            "a.py": ("import threading\n"
                     "def work():\n"
                     "    pass\n"
                     "def spawn():\n"
                     "    t = threading.Thread(target=work)\n"
                     "    t.start()\n"),
        })
        sites = program.worker_sites()
        assert len(sites) == 1
        assert sites[0].kind == "thread"
        assert sites[0].target_qualname == "pkg.a.work"

    def test_pool_map_on_assigned_executor(self, tmp_path):
        program = _build(tmp_path, {
            "a.py": ("from concurrent.futures import ThreadPoolExecutor\n"
                     "def work(x):\n"
                     "    return x\n"
                     "def fan_out(items):\n"
                     "    pool = ThreadPoolExecutor(4)\n"
                     "    return list(pool.map(work, items))\n"),
        })
        sites = program.worker_sites()
        assert len(sites) == 1
        assert sites[0].kind == "thread"
        assert sites[0].target_qualname == "pkg.a.work"

    def test_mp_context_process_constructor(self, tmp_path):
        """`ctx = get_context(...); ctx.Process(target=...)` is a
        process hand-off even though `ctx` is an unresolvable local."""
        program = _build(tmp_path, {
            "a.py": ("import multiprocessing\n"
                     "def work(ch):\n"
                     "    pass\n"
                     "def spawn():\n"
                     "    ctx = multiprocessing.get_context('fork')\n"
                     "    p = ctx.Process(target=work, args=(1,))\n"
                     "    p.start()\n"),
        })
        sites = program.worker_sites()
        assert len(sites) == 1
        assert sites[0].kind == "process"
        assert sites[0].target_qualname == "pkg.a.work"
        assert "pkg.a.work" in program.worker_reachable()

    def test_no_false_sites_in_plain_code(self, tmp_path):
        program = _build(tmp_path, {
            "a.py": ("def f(xs):\n"
                     "    return list(map(str, xs))\n"),
        })
        assert program.worker_sites() == []

    def test_real_package_worker_site(self):
        # The repo's process hand-off: the flow cache's parallel
        # cold-build fan-out.
        import repro

        program = Program.build(Path(repro.__file__).parent, "repro")
        targets = {s.target_qualname for s in program.worker_sites()
                   if s.kind == "process"}
        assert "repro.flow.cache._flow_worker" in targets


# ----------------------------------------------------------------------
# Threaded server handler classes
# ----------------------------------------------------------------------
class TestThreadedHandlers:
    def test_base_http_handler_methods_are_worker_reachable(self,
                                                            tmp_path):
        program = _build(tmp_path, {
            "srv.py": ("from http.server import BaseHTTPRequestHandler\n"
                       "def shared_mutation():\n"
                       "    pass\n"
                       "class Handler(BaseHTTPRequestHandler):\n"
                       "    def do_GET(self):\n"
                       "        shared_mutation()\n"),
        })
        assert program.threaded_handler_classes() == {"pkg.srv.Handler"}
        reach = program.worker_reachable()
        assert "pkg.srv.Handler.do_GET" in reach
        assert "pkg.srv.shared_mutation" in reach

    def test_threading_mixin_subclass_detected(self, tmp_path):
        program = _build(tmp_path, {
            "srv.py": ("import socketserver\n"
                       "class Server(socketserver.ThreadingMixIn,\n"
                       "             socketserver.TCPServer):\n"
                       "    def process(self):\n"
                       "        pass\n"),
        })
        assert program.threaded_handler_classes() == {"pkg.srv.Server"}
        assert "pkg.srv.Server.process" in program.worker_reachable()

    def test_transitive_subclass_within_program(self, tmp_path):
        program = _build(tmp_path, {
            "base.py": ("from http.server import BaseHTTPRequestHandler\n"
                        "class Base(BaseHTTPRequestHandler):\n"
                        "    pass\n"),
            "srv.py": ("from .base import Base\n"
                       "class Handler(Base):\n"
                       "    def do_POST(self):\n"
                       "        pass\n"),
        })
        assert "pkg.srv.Handler" in program.threaded_handler_classes()
        assert "pkg.srv.Handler.do_POST" in program.worker_reachable()

    def test_plain_classes_are_not_flagged(self, tmp_path):
        program = _build(tmp_path, {
            "a.py": ("class Plain:\n"
                     "    def method(self):\n"
                     "        pass\n"),
        })
        assert program.threaded_handler_classes() == set()
        assert "pkg.a.Plain.method" not in program.worker_reachable()

    def test_repo_serve_handler_is_worker_reachable(self):
        import repro

        program = Program.build(Path(repro.__file__).parent, "repro")
        assert "repro.serve.server._Handler" \
            in program.threaded_handler_classes()
        assert "repro.serve.server._Handler.do_POST" \
            in program.worker_reachable()
