"""Public-API surface tests: everything exported exists and is documented."""

import importlib

import pytest

import repro

SUBPACKAGES = [
    "repro.anonymize",
    "repro.baselines",
    "repro.core",
    "repro.data",
    "repro.experiments",
    "repro.knowledge",
    "repro.maxent",
    "repro.utils",
]


class TestTopLevel:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_all_is_sorted(self):
        assert list(repro.__all__) == sorted(repro.__all__)

    def test_exports_are_documented(self):
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"repro.{name} lacks a docstring"

    def test_version(self):
        assert repro.__version__ == "1.0.0"


class TestSubpackages:
    @pytest.mark.parametrize("module_name", SUBPACKAGES)
    def test_importable_with_resolving_all(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module_name}.{name} missing"

    @pytest.mark.parametrize(
        "module_name",
        [
            "repro.anonymize.anatomy",
            "repro.anonymize.suppress",
            "repro.baselines.enumeration",
            "repro.core.invariants",
            "repro.core.utility",
            "repro.data.paper_example",
            "repro.knowledge.compiler",
            "repro.knowledge.skyline",
            "repro.maxent.diagnostics",
            "repro.maxent.dual",
            "repro.experiments.figures",
            "repro.cli",
        ],
    )
    def test_leaf_modules_documented(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__ and len(module.__doc__) > 40, (
            f"{module_name} needs a real module docstring"
        )


class TestNoAccidentalHeavyImports:
    def test_import_is_fast_enough_for_cli(self):
        # The CLI should not drag in pytest/hypothesis at import time.
        import subprocess
        import sys

        code = (
            "import sys, repro; "
            "banned = {'pytest', 'hypothesis'}; "
            "loaded = banned & set(sys.modules); "
            "sys.exit(1 if loaded else 0)"
        )
        result = subprocess.run([sys.executable, "-c", code])
        assert result.returncode == 0

    def test_serving_boot_leaves_the_solve_stack_unloaded(self, tmp_path):
        # scipy (sparse matrices, L-BFGS) is imported by the first numeric
        # solve, not by the entry points: a server boots, recovers its
        # journal and answers a knowledge-free (Eq. 9) posterior without it.
        import subprocess
        import sys
        import textwrap

        code = textwrap.dedent(
            """
            import sys

            import repro
            import repro.cli
            import repro.cluster.frontend
            import repro.engine.engine
            import repro.service.server
            from repro.core.privacy_maxent import PrivacyMaxEnt
            from repro.core.serialize import published_from_dict, published_to_dict
            from repro.data.paper_example import S2, paper_published
            from repro.engine.engine import PrivacyEngine
            from repro.knowledge.statements import ConditionalProbability
            from repro.service.durability import DurableState
            from repro.service.server import PrivacyService, ServiceConfig
            from repro.service.store import SessionStore, release_digest

            state_dir = sys.argv[1]
            payload = published_to_dict(paper_published())
            digest = release_digest(payload)
            durable = DurableState(state_dir)
            SessionStore().register_digest(digest, published_from_dict(payload))
            durable.record_register(digest, payload)
            durable.close()

            engine = PrivacyEngine()
            service = PrivacyService(ServiceConfig(port=0, state_dir=state_dir))
            assert len(service.store) == 1, "the journaled release was not recovered"
            PrivacyMaxEnt(paper_published(), engine=engine).posterior()
            loaded = sorted(
                name for name in sys.modules
                if name == "scipy" or name.startswith("scipy.")
            )
            assert not loaded, f"loaded before any numeric solve: {loaded[:5]}"

            knowledge = [
                ConditionalProbability(
                    given={"gender": "male"}, sa_value=S2, probability=0.4
                )
            ]
            posterior = PrivacyMaxEnt(
                paper_published(), knowledge=knowledge, engine=engine
            ).posterior()
            assert abs(posterior.matrix.sum(axis=1) - 1.0).max() < 1e-9
            assert "scipy.optimize" in sys.modules, "no numeric solve ran"
            service.close()
            engine.close()
            """
        )
        result = subprocess.run(
            [sys.executable, "-c", code, str(tmp_path / "state")],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
