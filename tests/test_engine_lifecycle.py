"""Tests for engine shutdown hygiene: idempotent close, resilient teardown."""

import logging

import pytest

from repro.core.privacy_maxent import PrivacyMaxEnt
from repro.data.paper_example import S2, paper_published
from repro.engine import PrivacyEngine, shared_engine, shutdown_shared_engines
from repro.knowledge.statements import ConditionalProbability
from repro.maxent.config import MaxEntConfig


class TestIdempotentClose:
    def test_close_twice_is_safe(self):
        engine = PrivacyEngine()
        engine.close()
        engine.close()
        assert engine.closed

    def test_context_manager_then_close(self):
        with PrivacyEngine() as engine:
            PrivacyMaxEnt(
                paper_published(),
                knowledge=[
                    ConditionalProbability(
                        given={"gender": "male"}, sa_value=S2, probability=0.3
                    )
                ],
                engine=engine,
            ).solve()
        engine.close()  # second close after __exit__ must be harmless
        assert engine.closed


class TestCloseResilience:
    def test_failed_cache_save_still_closes_the_engine(self, tmp_path):
        engine = PrivacyEngine(cache_path=tmp_path / "c.pkl")
        engine.cache.put("k", object())  # non-empty so close() tries saving

        def broken_save(path=None):
            raise OSError("disk full")

        engine.save_cache = broken_save
        with pytest.raises(OSError):
            engine.close()
        assert engine.closed

    def test_shutdown_survives_a_failing_engine(self):
        # The failure is reported through the structured `repro.engine`
        # logger (not bare stderr), so capture at the logger itself —
        # immune to whether `configure_logging` disabled propagation.
        messages: list[str] = []
        handler = logging.Handler()
        handler.emit = lambda record: messages.append(record.getMessage())
        log = logging.getLogger("repro.engine")
        log.addHandler(handler)
        try:
            shutdown_shared_engines()
            bad = shared_engine(MaxEntConfig(cache_size=7))
            good = shared_engine(MaxEntConfig(cache_size=9))

            def explode():
                raise RuntimeError("boom")

            bad.close = explode
            assert shutdown_shared_engines() == 2
            assert good.closed
            assert any("close failed" in message for message in messages)
        finally:
            log.removeHandler(handler)


class TestSharedEngineShutdown:
    def test_shutdown_closes_and_forgets(self):
        shutdown_shared_engines()
        first = shared_engine(MaxEntConfig())
        again = shared_engine(MaxEntConfig())
        assert again is first
        closed = shutdown_shared_engines()
        assert closed >= 1
        assert first.closed
        fresh = shared_engine(MaxEntConfig())
        assert fresh is not first
        shutdown_shared_engines()

    def test_shutdown_with_nothing_registered(self):
        shutdown_shared_engines()
        assert shutdown_shared_engines() == 0
