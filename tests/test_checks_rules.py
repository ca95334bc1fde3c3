"""The shipped RB rule catalog, against fixture snippets.

Every rule gets (at least) a triggering snippet, a clean snippet, and a
suppressed variant — run in throwaway tmp-path projects so the fixtures
can violate invariants the real tree must keep.
"""

import textwrap

import pytest

from repro.checks import run_checks
from repro.checks.rules import RULES
from repro.checks.rules.api_surface import ApiSurfaceRule
from repro.checks.rules.determinism import DeterminismRule
from repro.checks.rules.env_reads import ReproEnvReadRule
from repro.checks.rules.float_equality import FloatEqualityRule
from repro.checks.rules.kernel_parity import KernelParityRule
from repro.checks.rules.shm_lifecycle import ShmLifecycleRule


def check(tmp_path, files, rule_class, scan=("src",)):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return run_checks(
        [tmp_path / target for target in scan],
        rules=[rule_class()],
        root=tmp_path,
    )


def rule_ids(result):
    return [finding.rule_id for finding in result.findings]


def test_catalog_ids_are_unique_and_stable():
    ids = [rule.rule_id for rule in RULES]
    assert ids == [
        "RB101",
        "RB201",
        "RB301",
        "RB401",
        "RB501",
        "RB601",
        "RB701",
        "RB702",
        "RB703",
        "RB704",
        "RB705",
    ]


class TestDeterminismRB101:
    def test_legacy_global_numpy_rng_flagged(self, tmp_path):
        result = check(
            tmp_path,
            {"src/m.py": "import numpy as np\nx = np.random.uniform()\n"},
            DeterminismRule,
        )
        assert rule_ids(result) == ["RB101"]

    def test_unseeded_default_rng_flagged(self, tmp_path):
        result = check(
            tmp_path,
            {"src/m.py": "import numpy as np\nrng = np.random.default_rng()\n"},
            DeterminismRule,
        )
        assert rule_ids(result) == ["RB101"]

    def test_seeded_default_rng_ok(self, tmp_path):
        source = """\
            import numpy as np
            rng = np.random.default_rng(42)
            draw = rng.uniform()
        """
        result = check(tmp_path, {"src/m.py": source}, DeterminismRule)
        assert result.findings == ()

    def test_stdlib_random_module_flagged(self, tmp_path):
        result = check(
            tmp_path,
            {"src/m.py": "import random\nx = random.random()\n"},
            DeterminismRule,
        )
        assert rule_ids(result) == ["RB101"]

    def test_seeded_random_random_ok_unseeded_flagged(self, tmp_path):
        source = """\
            import random
            ok = random.Random(7)
            nope = random.Random()
        """
        result = check(tmp_path, {"src/m.py": source}, DeterminismRule)
        assert rule_ids(result) == ["RB101"]
        assert "unseeded" in result.findings[0].message

    def test_wall_clock_flagged_perf_counter_ok(self, tmp_path):
        source = """\
            import time
            stamp = time.time()
            t0 = time.perf_counter()
        """
        result = check(tmp_path, {"src/m.py": source}, DeterminismRule)
        assert rule_ids(result) == ["RB101"]
        assert "wall-clock" in result.findings[0].message

    def test_datetime_now_flagged(self, tmp_path):
        source = """\
            from datetime import datetime
            stamp = datetime.now()
        """
        result = check(tmp_path, {"src/m.py": source}, DeterminismRule)
        assert rule_ids(result) == ["RB101"]

    def test_tests_are_exempt(self, tmp_path):
        result = check(
            tmp_path,
            {"tests/test_m.py": "import time\nx = time.time()\n"},
            DeterminismRule,
            scan=("tests",),
        )
        assert result.findings == ()

    def test_noqa_suppresses(self, tmp_path):
        source = "import time\nx = time.time()  # repro: noqa(RB101)\n"
        result = check(tmp_path, {"src/m.py": source}, DeterminismRule)
        assert result.findings == ()


class TestKernelParityRB201:
    """Synthetic sweep kernel⇄oracle pair; the real anchors are covered
    by tests/test_checks_meta.py."""

    KERNELS = """\
        __all__ = ["foo_sweep_kernel"]

        def foo_sweep_kernel():
            return 0
    """
    FASTPATH = """\
        def fast_foo_outcome():
            return 0
    """
    TEST = """\
        import numpy as np
        from repro.market.fastpath import fast_foo_outcome
        from repro.sweep.kernels import foo_sweep_kernel

        def test_equivalence():
            rng = np.random.default_rng(0)
            assert foo_sweep_kernel() == fast_foo_outcome()
    """

    def files(self, **overrides):
        files = {
            "src/repro/sweep/kernels.py": self.KERNELS,
            "src/repro/market/fastpath.py": self.FASTPATH,
            "tests/test_foo_equivalence.py": self.TEST,
        }
        files.update(overrides)
        return {rel: src for rel, src in files.items() if src is not None}

    def test_complete_table_is_clean(self, tmp_path):
        result = check(tmp_path, self.files(), KernelParityRule)
        assert result.findings == ()

    def test_missing_oracle_in_table_flagged(self, tmp_path):
        fastpath = """\
            def fast_bar_outcome():
                return 0
        """
        result = check(
            tmp_path,
            self.files(**{"src/repro/market/fastpath.py": fastpath}),
            KernelParityRule,
        )
        assert "RB201" in rule_ids(result)
        assert any("oracle" in f.message for f in result.findings)

    def test_deleted_equivalence_test_flagged(self, tmp_path):
        result = check(
            tmp_path,
            self.files(**{"tests/test_foo_equivalence.py": None}),
            KernelParityRule,
        )
        assert rule_ids(result) == ["RB201"]
        assert "no equivalence test" in result.findings[0].message

    def test_unrandomized_equivalence_test_flagged(self, tmp_path):
        boring = """\
            from repro.market.fastpath import fast_foo_outcome
            from repro.sweep.kernels import foo_sweep_kernel

            def test_equivalence():
                assert foo_sweep_kernel() == fast_foo_outcome()
        """
        result = check(
            tmp_path,
            self.files(**{"tests/test_foo_equivalence.py": boring}),
            KernelParityRule,
        )
        assert rule_ids(result) == ["RB201"]
        assert "not randomized" in result.findings[0].message

    def test_kernel_not_defined_in_kernels_module_flagged(self, tmp_path):
        result = check(
            tmp_path,
            self.files(
                **{"src/repro/sweep/kernels.py": '__all__ = ["foo_sweep_kernel"]\n'}
            ),
            KernelParityRule,
        )
        assert "RB201" in rule_ids(result)
        assert any("not defined" in f.message for f in result.findings)

    def test_imported_kernels_count_as_defined(self, tmp_path):
        # kernels.py may re-export a kernel from an implementation module.
        kernels = """\
            from .impl import foo_sweep_kernel

            __all__ = ["foo_sweep_kernel"]
        """
        result = check(
            tmp_path,
            self.files(**{"src/repro/sweep/kernels.py": kernels}),
            KernelParityRule,
        )
        assert result.findings == ()

    def test_file_noqa_on_anchor_suppresses(self, tmp_path):
        kernels = "# repro: noqa-file(RB201)\n" + textwrap.dedent(self.KERNELS)
        result = check(
            tmp_path,
            self.files(
                **{
                    "src/repro/sweep/kernels.py": kernels,
                    "tests/test_foo_equivalence.py": None,
                }
            ),
            KernelParityRule,
        )
        assert result.findings == ()


class TestEnvRegistryRB301:
    def test_direct_environ_subscript_flagged(self, tmp_path):
        source = "import os\nx = os.environ['REPRO_FOO']\n"
        result = check(tmp_path, {"src/m.py": source}, ReproEnvReadRule)
        assert rule_ids(result) == ["RB301"]

    def test_os_getenv_flagged(self, tmp_path):
        source = "import os\nx = os.getenv('REPRO_FOO', 'dflt')\n"
        result = check(tmp_path, {"src/m.py": source}, ReproEnvReadRule)
        assert rule_ids(result) == ["RB301"]

    def test_environ_get_flagged(self, tmp_path):
        source = "import os\nx = os.environ.get('REPRO_FOO')\n"
        result = check(tmp_path, {"src/m.py": source}, ReproEnvReadRule)
        assert rule_ids(result) == ["RB301"]

    def test_non_repro_vars_ignored(self, tmp_path):
        source = "import os\nx = os.environ.get('HOME')\n"
        result = check(tmp_path, {"src/m.py": source}, ReproEnvReadRule)
        assert result.findings == ()

    def test_constants_module_is_not_exempt(self, tmp_path):
        source = "import os\nx = os.environ.get('REPRO_FOO')\n"
        result = check(
            tmp_path, {"src/repro/constants.py": source}, ReproEnvReadRule
        )
        assert rule_ids(result) == ["RB301"]

    def test_noqa_suppresses(self, tmp_path):
        source = (
            "import os\n"
            "x = os.environ['REPRO_FOO']  # repro: noqa(RB301)\n"
        )
        result = check(tmp_path, {"src/m.py": source}, ReproEnvReadRule)
        assert result.findings == ()


class TestFloatEqualityRB401:
    def test_approx_in_equivalence_test_flagged(self, tmp_path):
        source = """\
            import numpy as np

            def test_parity():
                assert np.isclose(1.0, 1.0)
        """
        result = check(
            tmp_path,
            {"tests/test_foo_kernel.py": source},
            FloatEqualityRule,
            scan=("tests",),
        )
        assert rule_ids(result) == ["RB401"]

    def test_exact_equality_in_equivalence_test_ok(self, tmp_path):
        source = """\
            import numpy as np

            def test_parity():
                assert np.array_equal(np.zeros(2), np.zeros(2))
        """
        result = check(
            tmp_path,
            {"tests/test_foo_kernel.py": source},
            FloatEqualityRule,
            scan=("tests",),
        )
        assert result.findings == ()

    def test_non_equivalence_test_may_use_approx(self, tmp_path):
        source = """\
            import numpy as np

            def test_something():
                assert np.isclose(1.0, 1.0)
        """
        result = check(
            tmp_path,
            {"tests/test_misc.py": source},
            FloatEqualityRule,
            scan=("tests",),
        )
        assert result.findings == ()

    def test_nonzero_float_literal_eq_in_src_flagged(self, tmp_path):
        result = check(
            tmp_path,
            {"src/m.py": "def f(x):\n    return x == 1.5\n"},
            FloatEqualityRule,
        )
        assert rule_ids(result) == ["RB401"]

    def test_zero_literal_eq_is_allowed(self, tmp_path):
        result = check(
            tmp_path,
            {"src/m.py": "def f(x):\n    return x == 0.0\n"},
            FloatEqualityRule,
        )
        assert result.findings == ()

    def test_oracle_modules_exempt(self, tmp_path):
        result = check(
            tmp_path,
            {
                "src/repro/sweep/kernels.py": (
                    "def f(x):\n    return x == 1.5\n"
                )
            },
            FloatEqualityRule,
        )
        assert result.findings == ()

    def test_noqa_suppresses(self, tmp_path):
        source = "def f(x):\n    return x == 1.5  # repro: noqa(RB401)\n"
        result = check(tmp_path, {"src/m.py": source}, FloatEqualityRule)
        assert result.findings == ()


class TestShmLifecycleRB501:
    def test_bare_creation_flagged(self, tmp_path):
        source = """\
            from repro.sweep.shm import SharedPriceStack

            def f(stack):
                handle = SharedPriceStack(stack)
                return handle
        """
        result = check(tmp_path, {"src/m.py": source}, ShmLifecycleRule)
        assert rule_ids(result) == ["RB501"]

    def test_with_block_is_clean(self, tmp_path):
        source = """\
            from repro.sweep.shm import SharedPriceStack

            def f(stack):
                with SharedPriceStack(stack) as handle:
                    return handle.meta
        """
        result = check(tmp_path, {"src/m.py": source}, ShmLifecycleRule)
        assert result.findings == ()

    def test_try_finally_is_clean(self, tmp_path):
        source = """\
            from repro.sweep.shm import SharedPriceStack

            def f(stack):
                try:
                    handle = SharedPriceStack(stack)
                    return handle.meta
                finally:
                    handle.close()
        """
        result = check(tmp_path, {"src/m.py": source}, ShmLifecycleRule)
        assert result.findings == ()

    def test_try_without_finally_flagged(self, tmp_path):
        source = """\
            from repro.sweep.shm import SharedPriceStack

            def f(stack):
                try:
                    handle = SharedPriceStack(stack)
                except OSError:
                    handle = None
                return handle
        """
        result = check(tmp_path, {"src/m.py": source}, ShmLifecycleRule)
        assert rule_ids(result) == ["RB501"]

    def test_raw_shared_memory_flagged(self, tmp_path):
        source = """\
            from multiprocessing import shared_memory

            def f():
                return shared_memory.SharedMemory(create=True, size=8)
        """
        result = check(tmp_path, {"src/m.py": source}, ShmLifecycleRule)
        assert rule_ids(result) == ["RB501"]

    def test_owner_module_and_tests_exempt(self, tmp_path):
        source = "def f(s):\n    return SharedPriceStack(s)\n"
        result = check(
            tmp_path,
            {
                "src/repro/sweep/shm.py": source,
                "tests/test_shm.py": source,
            },
            ShmLifecycleRule,
            scan=("src", "tests"),
        )
        assert result.findings == ()

    def test_noqa_suppresses(self, tmp_path):
        source = (
            "def f(s):\n"
            "    return SharedPriceStack(s)  # repro: noqa(RB501)\n"
        )
        result = check(tmp_path, {"src/m.py": source}, ShmLifecycleRule)
        assert result.findings == ()


class TestApiSurfaceRB601:
    def test_stale_all_entry_flagged(self, tmp_path):
        source = "__all__ = ['exists', 'ghost']\n\ndef exists():\n    pass\n"
        result = check(tmp_path, {"src/m.py": source}, ApiSurfaceRule)
        assert rule_ids(result) == ["RB601"]
        assert "ghost" in result.findings[0].message

    def test_bound_all_entries_clean(self, tmp_path):
        source = """\
            from os.path import join

            __all__ = ['CONST', 'Klass', 'exists', 'join']

            CONST = 1

            class Klass:
                pass

            def exists():
                pass
        """
        result = check(tmp_path, {"src/m.py": source}, ApiSurfaceRule)
        assert result.findings == ()

    def test_star_import_module_skipped(self, tmp_path):
        source = "from os.path import *\n\n__all__ = ['anything']\n"
        result = check(tmp_path, {"src/m.py": source}, ApiSurfaceRule)
        assert result.findings == ()

    def test_noqa_suppresses(self, tmp_path):
        source = "__all__ = ['ghost']  # repro: noqa(RB601)\n"
        result = check(tmp_path, {"src/m.py": source}, ApiSurfaceRule)
        assert result.findings == ()
