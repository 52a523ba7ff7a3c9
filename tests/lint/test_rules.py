"""Per-rule fixture corpus: each RPR rule fires on its historical bug
pattern (positive) and stays quiet on the sanctioned idiom (negative).

Fixtures are inline source snippets, not files on disk, so the nightly
strict sweep over ``tests/`` never trips over its own corpus.  The
``path=`` argument drives rule scoping exactly as it does for real
files.
"""

import textwrap

from repro.lint import lint_source


def run(src: str, path: str, *, strict: bool = False):
    return lint_source(textwrap.dedent(src), path, strict=strict)


def codes(diags):
    return [d.rule for d in diags]


class TestRPR001Pow:
    BUG = """\
        import math

        def sq_dist(ax, ay, bx, by):
            return (ax - bx) ** 2 + (ay - by) ** 2

        def norm(x):
            return math.pow(x, 2)
    """

    def test_fires_on_pow_in_distance_code(self):
        diags = run(self.BUG, "src/repro/rtree/dist.py")
        assert codes(diags) == ["RPR001", "RPR001", "RPR001"]
        assert [d.line for d in diags] == [4, 4, 7]

    def test_quiet_on_explicit_product(self):
        ok = """\
            def sq_dist(ax, ay, bx, by):
                dx, dy = ax - bx, ay - by
                return dx * dx + dy * dy
        """
        assert run(ok, "src/repro/rtree/dist.py") == []

    def test_quiet_on_variable_exponent_and_out_of_scope(self):
        # 2 ** order is the Hilbert curve's genuine arithmetic: the
        # exponent is not a literal 2/0.5, and hilbert/ is out of scope.
        assert run("side = 2 ** order\n", "src/repro/rtree/grid.py") == []
        assert run("x = y ** 2\n", "src/repro/hilbert/curve.py") == []
        assert run("x = y ** 2\n", "src/repro/serve/engine.py") == []


class TestRPR002Randomness:
    BUG = """\
        import random

        import numpy as np

        def jitter(xs):
            random.shuffle(xs)
            rng = np.random.default_rng()
            return np.random.rand(3), rng
    """

    def test_fires_on_ambient_and_unseeded_rng(self):
        diags = run(self.BUG, "src/repro/core/noise.py")
        assert codes(diags) == ["RPR002", "RPR002", "RPR002"]
        assert [d.line for d in diags] == [6, 7, 8]

    def test_quiet_on_seeded_generator(self):
        ok = """\
            import numpy as np

            def sample(seed):
                rng = np.random.default_rng(seed)
                return rng.random(3)
        """
        assert run(ok, "src/repro/core/noise.py") == []

    def test_datagen_is_exempt(self):
        assert run(self.BUG, "src/repro/datagen/noise.py") == []

    def test_from_import_alias_is_resolved(self):
        src = """\
            from numpy.random import default_rng as mk

            def f():
                return mk()
        """
        assert codes(run(src, "src/repro/flow/x.py")) == ["RPR002"]


class TestRPR003SetOrder:
    BUG = """\
        def drain(done):
            finished = set()
            finished |= done
            for item in finished:
                print(item)
            squares = [x for x in {1, 2, 3}]
            return list(finished), squares
    """

    def test_fires_on_set_iteration(self):
        diags = run(self.BUG, "src/repro/core/loop.py")
        assert codes(diags) == ["RPR003", "RPR003", "RPR003"]
        assert [d.line for d in diags] == [4, 6, 7]

    def test_quiet_on_sorted_and_membership(self):
        ok = """\
            def drain(done):
                finished = set(done)
                if 3 in finished:
                    return []
                return [x for x in sorted(finished)]
        """
        assert run(ok, "src/repro/core/loop.py") == []

    def test_quiet_outside_ordered_subpackages(self):
        assert run(self.BUG, "src/repro/rtree/loop.py") == []

    def test_fires_on_dict_fromkeys_of_set(self):
        src = """\
            def index(ids):
                pending = frozenset(ids)
                return dict.fromkeys(pending)
        """
        assert codes(run(src, "src/repro/serve/x.py")) == ["RPR003"]


class TestRPR004Env:
    BUG = """\
        import os

        def knobs():
            a = os.environ.get("REPRO_X")
            b = os.getenv("REPRO_Y")
            return a, b, "REPRO_Z" in os.environ
    """

    def test_fires_everywhere_incl_outside_package(self):
        diags = run(self.BUG, "src/repro/core/config.py")
        assert codes(diags) == ["RPR004", "RPR004", "RPR004"]
        assert [d.line for d in diags] == [4, 5, 6]
        assert codes(run(self.BUG, "tests/core/test_x.py")) == ["RPR004"] * 3

    def test_former_config_seam_is_not_exempt(self):
        # core/faults.py used to be allowlisted for its fault-plan env hook;
        # the hook is gone, so no module is exempt any more.
        assert codes(run(self.BUG, "src/repro/core/faults.py")) == ["RPR004"] * 3

    def test_quiet_without_environ(self):
        ok = """\
            def knobs(env_alias=None):
                return env_alias
        """
        assert run(ok, "src/repro/core/config.py") == []


class TestRPR005Executor:
    BUG = """\
        from dataclasses import dataclass

        @dataclass
        class RepackTask:
            x: int

        class Driver:
            def go(self, pool, payload):
                def helper(p):
                    return p
                pool.submit(lambda: payload)
                pool.submit(self.work, payload)
                pool.submit(helper, payload)
    """

    def test_fires_on_unpicklable_submissions_and_mutable_payload(self):
        diags = run(self.BUG, "src/repro/core/driver.py")
        assert codes(diags) == ["RPR005"] * 4
        assert [d.line for d in diags] == [4, 11, 12, 13]

    def test_quiet_on_module_function_and_frozen_payload(self):
        ok = """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class RepackTask:
                x: int

            def solve_one(task):
                return task.x

            def fan_out(pool, tasks):
                return [pool.submit(solve_one, t) for t in tasks]
        """
        assert run(ok, "src/repro/core/driver.py") == []

    def test_scoped_to_core(self):
        # serve/ submits bound methods into a *thread* pool on purpose.
        assert run(self.BUG, "src/repro/serve/driver.py") == []


class TestRPR006WallClock:
    BUG = """\
        import time

        def solve_loop(budget):
            start = time.monotonic()
            while time.monotonic() - start < budget:
                time.sleep(0.01)
            return time.perf_counter()
    """

    def test_fires_on_wall_clock_in_solver(self):
        diags = run(self.BUG, "src/repro/flow/loop.py")
        assert codes(diags) == ["RPR006"] * 3
        assert [d.line for d in diags] == [4, 5, 6]

    def test_perf_counter_is_fine(self):
        ok = """\
            import time

            def timed(fn):
                t0 = time.perf_counter()
                out = fn()
                return out, time.perf_counter() - t0
        """
        assert run(ok, "src/repro/flow/loop.py") == []

    def test_serving_layer_may_use_clocks(self):
        assert run(self.BUG, "src/repro/serve/loop.py") == []


class TestRPR007SharedMemory:
    BUG = """\
        from multiprocessing import shared_memory

        def make(n):
            return shared_memory.SharedMemory(create=True, size=n)
    """

    def test_fires_globally(self):
        assert codes(run(self.BUG, "src/repro/core/transport.py")) == ["RPR007"]
        assert codes(run(self.BUG, "src/repro/serve/engine.py")) == ["RPR007"]
        assert codes(run(self.BUG, "tests/core/test_x.py")) == ["RPR007"]

    def test_direct_class_import_is_resolved(self):
        src = """\
            from multiprocessing.shared_memory import SharedMemory

            def make(n):
                return SharedMemory(create=True, size=n)
        """
        assert codes(run(src, "benchmarks/bench_x.py")) == ["RPR007"]

    def test_guarded_constructor_module_is_exempt(self):
        assert run(self.BUG, "src/repro/core/shm.py") == []


class TestRPR008BroadExcept:
    BUG = """\
        def attempt(task):
            try:
                return task()
            except Exception:
                return None

        def attempt_bare(task):
            try:
                return task()
            except:
                return None
    """

    def test_fires_on_swallowing_handlers(self):
        diags = run(self.BUG, "src/repro/core/run.py")
        assert codes(diags) == ["RPR008", "RPR008"]
        assert [d.line for d in diags] == [4, 10]

    def test_reraise_escapes(self):
        ok = """\
            def attempt(task, log):
                try:
                    return task()
                except Exception:
                    log.flush()
                    raise
        """
        assert run(ok, "src/repro/core/run.py") == []

    def test_narrow_handler_is_fine_and_flow_is_out_of_scope(self):
        ok = """\
            def attempt(task):
                try:
                    return task()
                except ValueError:
                    return None
        """
        assert run(ok, "src/repro/core/run.py") == []
        assert run(self.BUG, "src/repro/flow/run.py") == []


def test_rule_catalogue_is_complete():
    from repro.lint import all_rules

    rules = all_rules()
    assert [r.id for r in rules] == [f"RPR00{i}" for i in range(1, 9)]
    for rule in rules:
        assert rule.title and rule.rationale and rule.node_types
