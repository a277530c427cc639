"""The whole-program lint pass: call graph, rules TH010-TH014, cache.

Fixtures build miniature programs through :func:`summarize_source` with
realistic module names (the rules key on module position: a coroutine in
``repro.serving``, a dispatch method in a ``*.server`` module), one
tripping and one compliant variant per rule. The cache tests drive
:func:`run_flow` against a real tree on disk and assert on
:class:`FlowStats` — the observable contract of incremental invalidation.
"""

import json
from pathlib import Path

import pytest

from repro.lint import lint_paths
from repro.lint.flow import (
    build_program,
    run_flow,
    summarize_source,
    to_dot,
    to_sarif,
)
from repro.lint.flow.engine import CODE_ALIASES, DEFAULT_BASELINE
from repro.lint.flow.graph import summarize_module
from repro.lint.flow.rules import (
    TOOLING_MODULES,
    all_flow_rules,
    event_loop_entries,
)

ROOT = Path(__file__).resolve().parents[1]


def build(sources):
    """A linked Program from ``{module_name: source}``."""
    summaries = {}
    for module, code in sources.items():
        path = Path(module.replace(".", "/") + ".py")
        summaries[module] = summarize_source(code, path, module)
    return build_program(summaries)


def findings(program, code):
    rule = {r.code: r for r in all_flow_rules()}[code]
    return list(rule.checker(program))


def codes(violations):
    return sorted(v.code for v in violations)


def _real_summaries():
    """Every module of the package, summarized."""
    summaries = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        summary = summarize_module(path)
        summaries[summary.module] = summary
    return summaries


#: Program methods that share their names with container methods, and
#: block.
_BLOCKING_LOG = (
    "import time\n\n\n"
    "class Log:\n"
    "    def append(self, data):\n"
    "        time.sleep(1)\n\n"
    "    def get(self, key):\n"
    "        self.append(key)\n\n"
    "    def add(self, item):\n"
    "        self.append(item)\n"
)


# ======================================================================
# TH010 — blocking calls reachable from serving coroutines
# ======================================================================
class TestTH010:
    def test_trips_through_a_sync_helper_chain(self):
        # The retired per-file TH009 saw only the coroutine body; the
        # flow rule follows the chain into another module entirely.
        program = build({
            "repro.serving.server": (
                "from repro.util.pacing import backoff\n\n"
                "async def pump(conn):\n"
                "    backoff(1)\n"
            ),
            "repro.util.pacing": (
                "import time\n\n"
                "def backoff(n):\n"
                "    time.sleep(n)\n"
            ),
        })
        found = findings(program, "TH010")
        assert codes(found) == ["TH010"]
        assert found[0].path == "repro/util/pacing.py"
        assert "time.sleep" in found[0].message
        assert "pump" in found[0].message  # the chain names the entry

    def test_passes_when_the_helper_is_loop_safe(self):
        program = build({
            "repro.serving.server": (
                "import asyncio\n\n"
                "async def pump(conn):\n"
                "    await asyncio.sleep(1)\n"
            ),
        })
        assert findings(program, "TH010") == []

    def test_blocking_is_fine_off_the_event_loop(self):
        # A sync facade sleeping on the caller's thread has no async
        # caller — the old TH009 exemption, preserved interprocedurally.
        program = build({
            "repro.serving.client": (
                "import time\n\n"
                "def sleep(seconds):\n"
                "    time.sleep(seconds)\n"
            ),
        })
        assert findings(program, "TH010") == []

    def test_aliased_import_does_not_hide_the_call(self):
        program = build({
            "repro.serving.server": (
                "import time as t\n\n"
                "async def pump(conn):\n"
                "    t.sleep(1)\n"
            ),
        })
        assert codes(findings(program, "TH010")) == ["TH010"]

    def test_trips_through_a_protocol_that_schedules_a_batch(self):
        # No coroutine anywhere: the loop enters through the protocol's
        # data_received, which schedules the server's batch callback.
        program = build({
            "repro.serving.server": (
                "import asyncio\n"
                "from repro.util.pacing import backoff\n\n\n"
                "class Conn(asyncio.Protocol):\n"
                "    def __init__(self, server):\n"
                "        self.server = server\n\n"
                "    def data_received(self, data):\n"
                "        self.server.loop.call_soon(self.server.run_batch)\n\n\n"
                "class Server:\n"
                "    def run_batch(self):\n"
                "        backoff(1)\n"
            ),
            "repro.util.pacing": (
                "import time\n\n"
                "def backoff(n):\n"
                "    time.sleep(n)\n"
            ),
        })
        found = findings(program, "TH010")
        assert codes(found) == ["TH010"]
        assert found[0].path == "repro/util/pacing.py"
        assert "Server.run_batch -> util.pacing.backoff" in found[0].message

    def test_a_protocol_callback_is_an_entry_of_its_own(self):
        program = build({
            "repro.serving.server": (
                "from asyncio import BaseProtocol\n"
                "import time\n\n\n"
                "class Conn(BaseProtocol):\n"
                "    def eof_received(self):\n"
                "        time.sleep(1)\n"
            ),
        })
        found = findings(program, "TH010")
        assert codes(found) == ["TH010"]
        assert "server.Conn.eof_received" in found[0].message

    @pytest.mark.parametrize(
        "schedule",
        [
            "call_soon(self.tick)",
            "call_soon_threadsafe(self.tick)",
            "call_later(1.0, self.tick)",
            "call_at(5.0, self.tick)",
        ],
    )
    def test_a_scheduled_callable_is_an_entry_of_its_own(self, schedule):
        # arm() runs off the loop, but what it schedules runs on it.
        program = build({
            "repro.serving.server": (
                "import time\n\n\n"
                "class Server:\n"
                "    def arm(self, loop):\n"
                f"        loop.{schedule}\n\n"
                "    def tick(self):\n"
                "        time.sleep(1)\n"
            ),
        })
        found = findings(program, "TH010")
        assert codes(found) == ["TH010"]
        assert "server.Server.tick" in found[0].message

    def test_loop_safe_callbacks_pass(self):
        program = build({
            "repro.serving.server": (
                "import asyncio\n"
                "import time\n\n\n"
                "class Conn(asyncio.Protocol):\n"
                "    def connection_made(self, transport):\n"
                "        self.transport = transport\n\n"
                "    def data_received(self, data):\n"
                "        asyncio.get_running_loop().call_soon(self.echo, data)\n\n"
                "    def echo(self, data):\n"
                "        self.transport.write(data)\n\n\n"
                "def pace(seconds):\n"
                "    time.sleep(seconds)  # never scheduled on the loop\n"
            ),
        })
        assert findings(program, "TH010") == []

    @pytest.mark.parametrize(
        "setup, call",
        [
            ("self._q: list = []", "self._q.append(data)"),
            ("self._q = []", "self._q.append(data)"),
            ("self._q, self._r = [], {}", "self._r.get(data)"),
            ("pass", "pending = []\n        pending.append(data)"),
            ("pass", "room: dict = {}\n        room.get(data)"),
            ("pass", "buffer = bytearray()\n        buffer.append(data)"),
            ("pass", "seen = set(data)\n        seen.add(1)"),
        ],
    )
    def test_a_builtin_container_receiver_does_not_widen(self, setup, call):
        # The list's append is not Log.append (nor its get Log.get): a
        # receiver bound only to a builtin container calls no program
        # code.
        program = build({
            "repro.serving.server": (
                "import asyncio\n\n\n"
                "class Conn(asyncio.Protocol):\n"
                "    def __init__(self):\n"
                f"        {setup}\n\n"
                "    def data_received(self, data):\n"
                f"        {call}\n"
            ),
            "repro.storage.log": _BLOCKING_LOG,
        })
        assert findings(program, "TH010") == []

    @pytest.mark.parametrize(
        "setup, call",
        [
            # An unknown receiver still widens to every append.
            ("self.sink = sink", "self.sink.append(data)"),
            # So does an attribute the class also binds to something else.
            ("self._q = []\n        self._q = sink", "self._q.append(data)"),
            ("self._q = []", "q = self._q\n        q.append(data)"),
            # A parameter without a container annotation is unknown.
            ("pass", "sink.append(data)"),
        ],
    )
    def test_an_unknown_receiver_still_widens(self, setup, call):
        program = build({
            "repro.serving.server": (
                "import asyncio\n\n\n"
                "class Conn(asyncio.Protocol):\n"
                "    def __init__(self, sink=None):\n"
                f"        {setup}\n\n"
                "    def data_received(self, data, sink=None):\n"
                f"        {call}\n"
            ),
            "repro.storage.log": _BLOCKING_LOG,
        })
        found = findings(program, "TH010")
        assert codes(found) == ["TH010"]
        assert "Conn.data_received -> storage.log.Log.append" in found[0].message

    @pytest.mark.parametrize(
        "base, mid",
        [
            ("self._q = []", "pass"),
            ("self._q: dict[str, int] = {}", "pass"),
            ("self._q = dict()\n        self._q = {}", "pass"),
            # Two levels up, past a class that does not bind it.
            ("self._q = bytearray()", "self._r = make()"),
            # A middle class may bind it as a container too.
            ("self._q = set()", "self._q = {k for k in 'ab'}"),
        ],
        ids=[
            "list-display", "annotated-dict", "rebound-to-a-dict",
            "two-levels-up", "middle-class-container",
        ],
    )
    def test_a_container_a_base_class_binds_does_not_widen(self, base, mid):
        # StableStore binds self._objects as a dict; its subclass's
        # self._objects.get is dict.get, not every get in the program.
        program = build({
            "repro.serving.base": (
                "import asyncio\n\n\n"
                "class Base(asyncio.Protocol):\n"
                "    def __init__(self):\n"
                f"        {base}\n"
            ),
            "repro.serving.server": (
                "from repro.serving.base import Base\n"
                "from repro.util import make\n\n\n"
                "class Mid(Base):\n"
                "    def reset(self):\n"
                f"        {mid}\n\n\n"
                "class Conn(Mid):\n"
                "    def data_received(self, data):\n"
                "        self._q.get(data)\n"
            ),
            "repro.storage.log": _BLOCKING_LOG,
        })
        assert findings(program, "TH010") == []

    @pytest.mark.parametrize(
        "base, mid, own",
        [
            # The base binds it to something else as well.
            ("self._q = []\n        self._q = make()", "pass", "pass"),
            # A class on the way down rebinds it.
            ("self._q = []", "self._q = make()", "pass"),
            # The calling class rebinds it itself.
            ("self._q = []", "pass", "self._q = make()"),
            # No in-program base binds it at all.
            ("pass", "pass", "pass"),
        ],
        ids=["base-rebinds", "middle-class-rebinds", "own-class-rebinds", "unbound"],
    )
    def test_an_attribute_a_subclass_rebinds_still_widens(self, base, mid, own):
        program = build({
            "repro.serving.base": (
                "import asyncio\n"
                "from repro.util import make\n\n\n"
                "class Base(asyncio.Protocol):\n"
                "    def __init__(self):\n"
                f"        {base}\n"
            ),
            "repro.serving.server": (
                "from repro.serving.base import Base\n"
                "from repro.util import make\n\n\n"
                "class Mid(Base):\n"
                "    def reset(self):\n"
                f"        {mid}\n\n\n"
                "class Conn(Mid):\n"
                "    def connection_made(self, transport):\n"
                f"        {own}\n\n"
                "    def data_received(self, data):\n"
                "        self._q.get(data)\n"
            ),
            "repro.storage.log": _BLOCKING_LOG,
        })
        found = findings(program, "TH010")
        assert codes(found) == ["TH010"]
        assert "Conn.data_received -> storage.log.Log.get" in found[0].message

    def test_the_real_stable_store_dict_does_not_widen(self):
        # StableStore.__init__ binds self._objects as a dict; the
        # crash-point stores read it in their _physical overrides.
        program = build_program(_real_summaries())
        for function in (
            "repro.storage.crashpoints.RecordingStableStore._physical",
            "repro.storage.crashpoints.CrashingStore._physical",
        ):
            node = program.functions[function]
            sites = [
                i for i, site in enumerate(node.summary.calls)
                if site.recv == "_objects" and site.attr == "get"
            ]
            assert sites, function
            for index in sites:
                assert node.summary.calls[index].on_self
                assert node.widened[index] == [] and node.edges[index] == []

    @pytest.mark.parametrize(
        "call",
        [
            # The list a nested def builds is its own local: the outer
            # name is still the module's.
            "def fill():\n"
            "            sink = []\n"
            "            return sink\n\n"
            "        sink.append(data)",
            # A lambda's parameter may be anything, whatever the
            # enclosing function binds to the same name.
            "sink = []\n"
            "        push = lambda sink: sink.append(data)\n"
            "        push(self)",
        ],
    )
    def test_a_name_bound_in_a_nested_scope_still_widens(self, call):
        program = build({
            "repro.serving.server": (
                "import asyncio\n\n"
                "sink = None\n\n\n"
                "class Conn(asyncio.Protocol):\n"
                "    def data_received(self, data):\n"
                f"        {call}\n"
            ),
            "repro.storage.log": _BLOCKING_LOG,
        })
        found = findings(program, "TH010")
        assert codes(found) == ["TH010"]
        assert "Conn.data_received -> storage.log.Log.append" in found[0].message

    @pytest.mark.parametrize(
        "setup, call",
        [
            ("_Q: dict = {}", "_Q.get(data)"),
            ("_Q = {}", "_Q.get(data)"),
            ("_Q = {k: 1 for k in 'ab'}", "_Q.get(data)"),
            ("_Q = list()\n_Q += [1]", "_Q.append(data)"),
            ("try:\n    _Q = set()\nexcept ImportError:\n    _Q = {1}", "_Q.add(data)"),
            (
                "from contextvars import ContextVar\n"
                "_Q: ContextVar = ContextVar('q', default=None)",
                "_Q.get()",
            ),
            ("import contextvars\n_Q = contextvars.ContextVar('q')", "_Q.get()"),
        ],
        ids=[
            "annotated-dict", "dict-display", "dict-comprehension",
            "list-constructor", "set-in-a-try", "context-var", "context-var-dotted",
        ],
    )
    def test_a_module_level_container_does_not_widen(self, setup, call):
        program = build({
            "repro.serving.server": (
                "import asyncio\n"
                f"{setup}\n\n\n"
                "class Conn(asyncio.Protocol):\n"
                "    def data_received(self, data):\n"
                f"        {call}\n"
            ),
            "repro.storage.log": _BLOCKING_LOG,
        })
        assert findings(program, "TH010") == []

    @pytest.mark.parametrize(
        "setup, body",
        [
            # One binding of something else is enough.
            ("_Q = {}\n_Q = make()", "_Q.get(data)"),
            # A function may rebind it through global.
            ("_Q = {}\n\n\ndef reset():\n    global _Q\n    _Q = make()", "_Q.get(data)"),
            # The function's own name hides the module's...
            ("_Q = {}", "_Q = make()\n        _Q.get(data)"),
            ("_Q = {}", "for _Q in data:\n            _Q.get(data)"),
            # ...and so does an enclosing function's.
            (
                "_Q = {}",
                "_Q = make()\n\n"
                "        def inner():\n"
                "            _Q.get(data)\n\n"
                "        inner()",
            ),
            # A ContextVar of another module's making is unknown.
            ("from repro.util import ContextVar\n_Q = ContextVar('q')", "_Q.get()"),
            ("from repro.util import _Q", "_Q.get(data)"),
        ],
        ids=[
            "bound-to-another-value", "rebound-by-global", "shadowed-by-a-local",
            "shadowed-by-a-loop", "shadowed-by-an-encloser", "foreign-context-var",
            "imported",
        ],
    )
    def test_a_module_name_not_only_a_container_still_widens(self, setup, body):
        program = build({
            "repro.serving.server": (
                "import asyncio\n"
                "from repro.util import make\n"
                f"{setup}\n\n\n"
                "class Conn(asyncio.Protocol):\n"
                "    def data_received(self, data):\n"
                f"        {body}\n"
            ),
            "repro.storage.log": _BLOCKING_LOG,
        })
        found = findings(program, "TH010")
        assert codes(found) == ["TH010"]
        assert "-> storage.log.Log." in found[0].message

    def test_the_real_module_containers_do_not_widen(self):
        # group_commit's ContextVar and the codec's error registries.
        program = build_program(_real_summaries())
        for function, receiver in (
            ("repro.storage.recovery.DurableFile._commit_barrier", "_GROUP"),
            ("repro.storage.recovery.group_commit.__enter__", "_GROUP"),
            ("repro.distributed.codec._error_code", "_CODE_OF"),
            ("repro.distributed.codec._read_value", "ERROR_CODES"),
        ):
            node = program.functions[function]
            sites = [
                i for i, site in enumerate(node.summary.calls)
                if site.recv == receiver
            ]
            assert sites, function
            for index in sites:
                assert node.summary.calls[index].form == "builtin"
                assert node.widened[index] == [] and node.edges[index] == []

    def test_the_real_pending_list_does_not_widen(self):
        # ServingServer._accept appends to its own pending list; that
        # append must not stand for StableStore.append.
        program = build_program(_real_summaries())
        node = program.functions["repro.serving.server.ServingServer._accept"]
        (index,) = [
            i for i, site in enumerate(node.summary.calls)
            if site.attr == "append"
        ]
        assert node.summary.calls[index].form == "builtin"
        assert node.widened[index] == [] and node.edges[index] == []

    def test_the_real_event_loop_reaches_the_batch_path(self):
        # The serving server has no coroutine on its request path: the
        # protocol and loop-callback entries must carry the traversal.
        program = build_program(_real_summaries())
        parents = program.reachable(
            event_loop_entries(program),
            follow_widened=True,
            skip_modules=TOOLING_MODULES,
        )
        for name in ("_process", "_execute", "_run_control"):
            assert f"repro.serving.server.ServingServer.{name}" in parents


# ======================================================================
# TH011 — wire-protocol exhaustiveness
# ======================================================================
_WIRE_MESSAGES = (
    'GET = "get"\n'
    'PUT = "put"\n'
    "\n\n"
    "class Op:\n"
    "    @classmethod\n"
    "    def get(cls, key):\n"
    "        return cls()\n"
    "\n"
    "    @classmethod\n"
    "    def put(cls, key):\n"
    "        return cls()\n"
)

_WIRE_ERRORS = (
    "class WireError(Exception):\n"
    "    pass\n"
    "\n\n"
    "class TeapotError(WireError):\n"
    "    pass\n"
)


class TestTH011:
    def test_clean_protocol_passes(self):
        program = build({
            "repro.x.messages": _WIRE_MESSAGES,
            "repro.x.errors": _WIRE_ERRORS,
            "repro.x.codec": (
                "from repro.x.errors import TeapotError, WireError\n\n"
                "ERROR_CODES = {1: WireError, 2: TeapotError}\n"
            ),
            "repro.x.server": (
                "from repro.x.messages import GET, PUT\n"
                "from repro.x.errors import TeapotError\n\n\n"
                "class ShardServer:\n"
                "    def _dispatch(self, op):\n"
                "        if op.kind == GET:\n"
                "            return 1\n"
                "        if op.kind == PUT:\n"
                "            raise TeapotError('no put today')\n"
            ),
        })
        assert findings(program, "TH011") == []

    def test_kind_without_dispatch_or_constructor_trips_twice(self):
        # SCAN exists on the wire but no server tests for it and Op
        # cannot build it: both halves of the contract are gone.
        program = build({
            "repro.x.messages": _WIRE_MESSAGES + 'SCAN = "scan"\n',
            "repro.x.server": (
                "from repro.x.messages import GET, PUT\n\n\n"
                "class ShardServer:\n"
                "    def _dispatch(self, op):\n"
                "        if op.kind == GET or op.kind == PUT:\n"
                "            return 1\n"
            ),
        })
        found = findings(program, "TH011")
        assert codes(found) == ["TH011", "TH011"]
        assert any("no dispatch handler" in v.message for v in found)
        assert any("no Op.scan() constructor" in v.message for v in found)
        assert all(v.path == "repro/x/messages.py" for v in found)

    def test_unregistered_exception_on_the_dispatch_surface_trips(self):
        program = build({
            "repro.x.errors": _WIRE_ERRORS,
            "repro.x.codec": (
                "from repro.x.errors import WireError\n\n"
                "ERROR_CODES = {1: WireError}\n"
            ),
            "repro.x.helpers": (
                "from repro.x.errors import TeapotError\n\n\n"
                "def brew():\n"
                "    raise TeapotError('I am a teapot')\n"
            ),
            "repro.x.server": (
                "from repro.x.helpers import brew\n\n\n"
                "class ShardServer:\n"
                "    def _dispatch(self, op):\n"
                "        return brew()\n"
            ),
        })
        found = findings(program, "TH011")
        assert codes(found) == ["TH011"]
        assert "TeapotError" in found[0].message
        assert "catch-all" in found[0].message
        assert found[0].path == "repro/x/helpers.py"

    def test_registered_ancestor_covers_subclasses(self):
        # TeapotError's *parent* is registered (beyond the catch-all):
        # the wire degrades one MRO step, which round-trips typed enough.
        program = build({
            "repro.x.errors": (
                "class WireError(Exception):\n"
                "    pass\n"
                "\n\n"
                "class KettleError(WireError):\n"
                "    pass\n"
                "\n\n"
                "class TeapotError(KettleError):\n"
                "    pass\n"
            ),
            "repro.x.codec": (
                "from repro.x.errors import KettleError, WireError\n\n"
                "ERROR_CODES = {1: WireError, 2: KettleError}\n"
            ),
            "repro.x.server": (
                "from repro.x.errors import TeapotError\n\n\n"
                "class ShardServer:\n"
                "    def _dispatch(self, op):\n"
                "        raise TeapotError('still hot')\n"
            ),
        })
        assert findings(program, "TH011") == []


# ======================================================================
# TH012 — commit-ordering discipline
# ======================================================================
class TestTH012:
    def test_ack_before_fsync_trips(self):
        program = build({
            "repro.storage.fake": (
                "class Store:\n"
                "    def op(self, rid, out):\n"
                "        self.wal.append('r', {})\n"
                "        self.dedup.record(rid, out)\n"
                "        self.wal.commit()\n"
            ),
        })
        found = findings(program, "TH012")
        assert codes(found) == ["TH012"]
        assert "before any fsync barrier" in found[0].message

    def test_append_log_fsync_ack_passes(self):
        program = build({
            "repro.storage.fake": (
                "class Store:\n"
                "    def op(self, rid, out):\n"
                "        self.wal.append('r', {})\n"
                "        self.wal.commit()\n"
                "        self.dedup.record(rid, out)\n"
            ),
        })
        assert findings(program, "TH012") == []

    def test_append_with_no_following_barrier_trips(self):
        # The function owns a barrier, but one append can only run
        # *after* it (the loop body has no back edge to the commit).
        program = build({
            "repro.storage.fake": (
                "class Store:\n"
                "    def op(self, items):\n"
                "        self.wal.commit()\n"
                "        for item in items:\n"
                "            self.wal.append('r', item)\n"
            ),
        })
        found = findings(program, "TH012")
        assert codes(found) == ["TH012"]
        assert "no fsync barrier after it" in found[0].message

    def test_reply_before_ship_trips_only_after_a_mutation(self):
        program = build({
            "repro.distributed.fake": (
                "class Reply:\n"
                "    pass\n"
                "\n\n"
                "class Server:\n"
                "    def mutate(self, rid):\n"
                "        self.dedup.record(rid, None)\n"
                "        out = Reply()\n"
                "        self.replicator.ship([rid])\n"
                "        return out\n"
                "\n"
                "    def read(self, key):\n"
                "        if key in self.cache:\n"
                "            return Reply()\n"
                "        self.replicator.ship([])\n"
                "        return Reply()\n"
            ),
        })
        found = findings(program, "TH012")
        assert codes(found) == ["TH012"]
        assert "ship-before-ack" in found[0].message
        assert found[0].line == 8  # mutate()'s reply, not read()'s

    def test_ship_then_reply_passes(self):
        program = build({
            "repro.distributed.fake": (
                "class Reply:\n"
                "    pass\n"
                "\n\n"
                "class Server:\n"
                "    def mutate(self, rid):\n"
                "        self.dedup.record(rid, None)\n"
                "        self.replicator.ship([rid])\n"
                "        return Reply()\n"
            ),
        })
        assert findings(program, "TH012") == []

    def test_a_scheduled_commit_is_no_barrier(self):
        # The commit runs later, on the loop: the ack still precedes it.
        program = build({
            "repro.serving.fake": (
                "class Store:\n"
                "    def op(self, rid, out):\n"
                "        self.wal.append('r', {})\n"
                "        self.loop.call_soon(self.wal.commit)\n"
                "        self.dedup.record(rid, out)\n"
            ),
        })
        found = findings(program, "TH012")
        assert codes(found) == ["TH012"]
        assert "before any fsync barrier" in found[0].message

    def test_a_scheduled_publish_does_not_precede_the_reply(self):
        # The publish is only scheduled before the reply; the one ship
        # that runs here comes after it.
        program = build({
            "repro.distributed.fake": (
                "class Reply:\n"
                "    pass\n"
                "\n\n"
                "class Server:\n"
                "    def mutate(self, rid):\n"
                "        self.dedup.record(rid, None)\n"
                "        self.loop.call_soon(self._publish)\n"
                "        out = Reply()\n"
                "        self.replicator.ship([rid])\n"
                "        return out\n"
            ),
        })
        found = findings(program, "TH012")
        assert codes(found) == ["TH012"]
        assert "ship-before-ack" in found[0].message

    def test_out_of_scope_modules_are_ignored(self):
        program = build({
            "repro.analysis.fake": (
                "class Store:\n"
                "    def op(self, rid):\n"
                "        self.wal.append('r', {})\n"
                "        self.dedup.record(rid, None)\n"
            ),
        })
        assert findings(program, "TH012") == []


# ======================================================================
# TH013 — wall-clock reads on the simulated fabric
# ======================================================================
class TestTH013:
    def test_trips_through_a_helper_module(self):
        program = build({
            "repro.distributed.chaos": (
                "from repro.util.stamps import stamp\n\n\n"
                "def run_chaos(ops):\n"
                "    return stamp()\n"
            ),
            "repro.util.stamps": (
                "import time\n\n\n"
                "def stamp():\n"
                "    return time.monotonic()\n"
            ),
        })
        found = findings(program, "TH013")
        assert codes(found) == ["TH013"]
        assert "time.monotonic" in found[0].message
        assert found[0].path == "repro/util/stamps.py"

    def test_fabric_clock_reads_pass(self):
        program = build({
            "repro.distributed.chaos": (
                "def run_chaos(router):\n"
                "    return router.now()\n"
            ),
        })
        assert findings(program, "TH013") == []

    def test_the_serving_tier_is_pruned(self):
        # Serving is wall-clock land by design; a widened name match
        # into it must not implicate the fabric.
        program = build({
            "repro.distributed.chaos": (
                "def run_chaos(router):\n"
                "    router.tick()\n"
            ),
            "repro.serving.loop": (
                "import time\n\n\n"
                "class Loop:\n"
                "    def tick(self):\n"
                "        return time.monotonic()\n"
            ),
        })
        assert findings(program, "TH013") == []


# ======================================================================
# TH014 — paranoid-audit coverage of mutating methods
# ======================================================================
_AUDIT_REG = (
    "from repro.check.framework import register_audit\n\n\n"
    "@register_audit('repro.z.store.Box')\n"
    "def check_box(obj, level):\n"
    "    return []\n"
)


class TestTH014:
    def test_unaudited_public_mutator_trips(self):
        program = build({
            "repro.z.store": (
                "class Box:\n"
                "    def insert(self, key):\n"
                "        self._apply(key)\n"
                "\n"
                "    def _apply(self, key):\n"
                "        pass\n"
            ),
            "repro.z.audits": _AUDIT_REG,
        })
        found = findings(program, "TH014")
        assert codes(found) == ["TH014"]
        assert "Box.insert()" in found[0].message

    def test_hook_behind_a_private_helper_passes(self):
        # insert -> _apply -> maybe_audit: direct self-dispatch edges.
        program = build({
            "repro.z.store": (
                "from repro.check.hook import maybe_audit\n\n\n"
                "class Box:\n"
                "    def insert(self, key):\n"
                "        self._apply(key)\n"
                "\n"
                "    def _apply(self, key):\n"
                "        maybe_audit(self, 'Box')\n"
            ),
            "repro.z.audits": _AUDIT_REG,
        })
        assert findings(program, "TH014") == []

    def test_widened_edges_do_not_count_as_coverage(self):
        # self.inner.insert() could be *anything*; paranoid coverage
        # must hold along edges the analyzer actually resolved.
        program = build({
            "repro.z.store": (
                "class Box:\n"
                "    def insert(self, key):\n"
                "        self.inner.insert(key)\n"
            ),
            "repro.z.inner": (
                "from repro.check.hook import maybe_audit\n\n\n"
                "class Inner:\n"
                "    def insert(self, key):\n"
                "        maybe_audit(self, 'Inner')\n"
            ),
            "repro.z.audits": _AUDIT_REG,
        })
        assert codes(findings(program, "TH014")) == ["TH014"]

    def test_non_mutating_and_private_methods_are_exempt(self):
        program = build({
            "repro.z.store": (
                "class Box:\n"
                "    def get(self, key):\n"
                "        return key\n"
                "\n"
                "    def _insert(self, key):\n"
                "        pass\n"
            ),
            "repro.z.audits": _AUDIT_REG,
        })
        assert findings(program, "TH014") == []


# ======================================================================
# The call graph itself
# ======================================================================
class TestCallGraph:
    def test_cross_module_name_resolution(self):
        program = build({
            "repro.a": "from repro.b import helper\n\n\ndef go():\n    helper()\n",
            "repro.b": "def helper():\n    pass\n",
        })
        parents = program.reachable(["repro.a.go"], follow_widened=False)
        assert "repro.b.helper" in parents
        assert program.chain(parents, "repro.b.helper") == [
            "repro.a.go",
            "repro.b.helper",
        ]

    def test_self_dispatch_includes_subclass_overrides(self):
        program = build({
            "repro.a": (
                "class Base:\n"
                "    def run(self):\n"
                "        self.step()\n"
                "\n"
                "    def step(self):\n"
                "        pass\n"
                "\n\n"
                "class Sub(Base):\n"
                "    def step(self):\n"
                "        pass\n"
            ),
        })
        parents = program.reachable(["repro.a.Base.run"], follow_widened=False)
        assert "repro.a.Base.step" in parents
        assert "repro.a.Sub.step" in parents

    def test_unknown_attribute_calls_widen_by_name(self):
        program = build({
            "repro.a": "def go(x):\n    x.flush()\n",
            "repro.b": (
                "class Sink:\n"
                "    def flush(self):\n"
                "        pass\n"
            ),
        })
        widened = program.reachable(["repro.a.go"], follow_widened=True)
        narrow = program.reachable(["repro.a.go"], follow_widened=False)
        assert "repro.b.Sink.flush" in widened
        assert "repro.b.Sink.flush" not in narrow

    def test_super_calls_resolve_through_the_bases(self):
        # super().__init__() is the base's __init__, not every __init__
        # in the program: widening must not reach an unrelated class.
        program = build({
            "repro.a": (
                "class Base:\n"
                "    def __init__(self):\n"
                "        pass\n"
                "\n\n"
                "class Sub(Base):\n"
                "    def __init__(self):\n"
                "        super().__init__()\n"
                "\n\n"
                "class Fault(Exception):\n"
                "    def __init__(self, message):\n"
                "        super().__init__(message)\n"
            ),
            "repro.b": (
                "class Unrelated:\n"
                "    def __init__(self):\n"
                "        pass\n"
            ),
        })
        parents = program.reachable(["repro.a.Sub.__init__"], follow_widened=True)
        assert "repro.a.Base.__init__" in parents
        assert "repro.b.Unrelated.__init__" not in parents
        # A base outside the program (Exception) gives no edge at all.
        fault = program.reachable(["repro.a.Fault.__init__"], follow_widened=True)
        assert set(fault) == {"repro.a.Fault.__init__"}

    def test_import_cycles_land_in_one_scc(self):
        program = build({
            "repro.a": "from repro.b import g\n\n\ndef f():\n    g()\n",
            "repro.b": "from repro.a import f\n\n\ndef g():\n    pass\n",
        })
        components = [set(c) for c in program.sccs()]
        assert {"repro.a", "repro.b"} in components

    def test_dot_output_names_functions_and_edges(self):
        program = build({
            "repro.a": "from repro.b import helper\n\n\ndef go():\n    helper()\n",
            "repro.b": "def helper():\n    pass\n",
        })
        dot = to_dot(program)
        assert dot.startswith("digraph")
        assert '"repro.a.go" -> "repro.b.helper"' in dot


# ======================================================================
# Incremental cache + SCC invalidation (on-disk, via run_flow)
# ======================================================================
@pytest.fixture
def tree(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    (src / "alpha.py").write_text("def leaf():\n    pass\n")
    (src / "beta.py").write_text(
        "from alpha import leaf\n\n\ndef mid():\n    leaf()\n"
    )
    (src / "gamma.py").write_text("def lone():\n    pass\n")
    return tmp_path


def _flow(tree, **kw):
    kw.setdefault("cache", str(tree / "cache.json"))
    kw.setdefault("baseline", str(tree / "no-baseline.json"))
    return run_flow([str(tree / "src")], **kw)


class TestCache:
    def test_cold_then_warm(self, tree):
        cold = _flow(tree)
        assert len(cold.stats.reparsed) == 3
        assert cold.stats.cached == 0
        warm = _flow(tree)
        assert warm.stats.reparsed == []
        assert warm.stats.cached == 3
        assert warm.stats.dirty_sccs == 0
        assert warm.stats.reanalyzed_modules == []

    def test_editing_one_file_dirties_only_its_scc(self, tree):
        _flow(tree)
        (tree / "src" / "alpha.py").write_text(
            "def leaf():\n    return 1\n"
        )
        run = _flow(tree)
        assert [Path(p).name for p in run.stats.reparsed] == ["alpha.py"]
        assert run.stats.cached == 2
        assert run.stats.dirty_sccs == 1
        assert run.stats.reanalyzed_modules == ["alpha"]

    def test_corrupt_cache_degrades_to_cold(self, tree):
        _flow(tree)
        (tree / "cache.json").write_text("{not json")
        run = _flow(tree)
        assert len(run.stats.reparsed) == 3

    def test_no_cache_mode_always_reparses(self, tree):
        run_flow([str(tree / "src")], cache=None)
        run = run_flow([str(tree / "src")], cache=None)
        assert len(run.stats.reparsed) == 3


# ======================================================================
# Suppressions, aliasing and the baseline
# ======================================================================
_TRIPPING_SERVING = (
    "import time\n\n\n"
    "async def pump(conn):\n"
    "    time.sleep(1)\n"
)


@pytest.fixture
def serving_tree(tmp_path):
    pkg = tmp_path / "repro" / "serving"
    pkg.mkdir(parents=True)
    (pkg / "srv.py").write_text(_TRIPPING_SERVING)
    return tmp_path


def _srv_path(tree):
    return str(tree / "repro" / "serving" / "srv.py")


class TestSuppressionsAndBaseline:
    def test_the_finding_fires_without_a_baseline(self, serving_tree):
        run = run_flow(
            [str(serving_tree)],
            cache=None,
            baseline=str(serving_tree / "absent.json"),
        )
        assert codes(run.report.violations) == ["TH010"]

    def test_inline_suppression_via_the_retired_alias(self, serving_tree):
        # A disable written against TH009 keeps silencing its successor.
        assert CODE_ALIASES == {"TH009": "TH010"}
        path = Path(_srv_path(serving_tree))
        path.write_text(
            _TRIPPING_SERVING.replace(
                "time.sleep(1)",
                "time.sleep(1)  # repro-lint: disable=TH009 -- facade test",
            )
        )
        run = run_flow(
            [str(serving_tree)],
            cache=None,
            baseline=str(serving_tree / "absent.json"),
        )
        assert run.report.violations == []

    def test_stale_flow_suppression_is_lint002(self, serving_tree):
        path = Path(_srv_path(serving_tree))
        path.write_text(
            "async def pump(conn):\n"
            "    return 1  # repro-lint: disable=TH010 -- nothing here\n"
        )
        run = run_flow(
            [str(serving_tree)],
            cache=None,
            baseline=str(serving_tree / "absent.json"),
        )
        assert codes(run.report.violations) == ["LINT002"]

    def _baseline(self, serving_tree, entries):
        path = serving_tree / "baseline.json"
        path.write_text(json.dumps({"entries": entries}))
        return str(path)

    def test_baseline_entry_silences_the_finding(self, serving_tree):
        baseline = self._baseline(serving_tree, [{
            "code": "TH010",
            "path": _srv_path(serving_tree),
            "line": 5,
            "justification": "fixture: sync facade",
        }])
        run = run_flow([str(serving_tree)], cache=None, baseline=baseline)
        assert run.report.violations == []

    def test_baseline_honours_the_th009_alias(self, serving_tree):
        baseline = self._baseline(serving_tree, [{
            "code": "TH009",
            "path": _srv_path(serving_tree),
            "line": 5,
            "justification": "fixture: grandfathered pre-rename",
        }])
        run = run_flow([str(serving_tree)], cache=None, baseline=baseline)
        assert run.report.violations == []

    def test_unjustified_baseline_entry_is_lint001(self, serving_tree):
        baseline = self._baseline(serving_tree, [{
            "code": "TH010",
            "path": _srv_path(serving_tree),
            "line": 5,
            "justification": "   ",
        }])
        run = run_flow([str(serving_tree)], cache=None, baseline=baseline)
        assert codes(run.report.violations) == ["LINT001"]
        assert run.report.violations[0].path == baseline

    def test_stale_baseline_entry_is_lint002(self, serving_tree):
        baseline = self._baseline(serving_tree, [
            {
                "code": "TH010",
                "path": _srv_path(serving_tree),
                "line": 5,
                "justification": "fixture: real",
            },
            {
                "code": "TH013",
                "path": "src/repro/gone.py",
                "line": 1,
                "justification": "fixture: long since fixed",
            },
        ])
        run = run_flow([str(serving_tree)], cache=None, baseline=baseline)
        assert codes(run.report.violations) == ["LINT002"]
        assert "matched no finding" in run.report.violations[0].message

    def test_per_file_pass_leaves_flow_suppressions_alone(self, serving_tree):
        # The per-file engine must not flag a TH010 disable as unused —
        # only the flow pass knows whether it matched.
        path = Path(_srv_path(serving_tree))
        path.write_text(
            _TRIPPING_SERVING.replace(
                "time.sleep(1)",
                "time.sleep(1)  # repro-lint: disable=TH010 -- facade test",
            )
        )
        report = lint_paths([str(serving_tree)])
        assert report.violations == []


# ======================================================================
# SARIF
# ======================================================================
class TestSarif:
    def test_shape_rules_and_results(self, serving_tree):
        run = run_flow(
            [str(serving_tree)],
            cache=None,
            baseline=str(serving_tree / "absent.json"),
        )
        doc = to_sarif(run.report)
        assert doc["version"] == "2.1.0"
        driver = doc["runs"][0]["tool"]["driver"]
        rule_ids = {rule["id"] for rule in driver["rules"]}
        assert {"TH010", "TH011", "TH012", "TH013", "TH014"} <= rule_ids
        assert {"LINT000", "LINT001", "LINT002"} <= rule_ids
        results = doc["runs"][0]["results"]
        assert len(results) == 1
        assert results[0]["ruleId"] == "TH010"
        location = results[0]["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("srv.py")
        assert location["region"]["startLine"] == 5


# ======================================================================
# The tree itself stays clean (dogfooding)
# ======================================================================
class TestDogfood:
    def test_the_tree_passes_the_flow_rules(self, monkeypatch):
        # The committed baseline is part of the contract: paths inside
        # it are repo-relative, so run from the repo root like CI does.
        monkeypatch.chdir(ROOT)
        run = run_flow(["src"], cache=None, baseline=DEFAULT_BASELINE)
        assert run.report.ok, run.report.render_table()
        assert run.stats.files > 100

    def test_every_flow_rule_code_is_in_flow_codes(self):
        from repro.lint.engine import FLOW_CODES

        registered = {r.code for r in all_flow_rules()}
        assert registered <= FLOW_CODES
        assert set(CODE_ALIASES) <= FLOW_CODES
