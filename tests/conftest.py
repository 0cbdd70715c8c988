"""Shared fixtures.

The expensive artifacts (kernel images, booted machines, clean-run
probes, small campaign batteries) are session-scoped: building the
kernel takes ~1 s and booting a machine ~0.5 s, so tests share them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.injection.campaign import CampaignContext
from repro.isa import codecache
from repro.kernel.build import build_kernel, kernel_program
from repro.machine.machine import Machine


@pytest.fixture(scope="session", autouse=True)
def _isolated_campaign_context_cache():
    """Start and end the session with an empty context cache.

    ``CampaignContext._cache`` is process-global and never invalidated
    on its own, so contexts built by an earlier in-process run (or left
    behind for a later one) could leak between parametrized arches.
    """
    CampaignContext.clear_cache()
    yield
    CampaignContext.clear_cache()


@pytest.fixture
def code_cache(tmp_path, monkeypatch) -> Path:
    """An empty code cache under *tmp_path*, with zeroed counters."""
    monkeypatch.setattr(sys, "pycache_prefix", str(tmp_path))
    monkeypatch.setattr(codecache, "stats",
                        dict.fromkeys(codecache.stats, 0))
    return tmp_path / "repro-generated"


@pytest.fixture(scope="session")
def kernel_program_fixture():
    return kernel_program()


@pytest.fixture(scope="session")
def x86_image():
    return build_kernel("x86")


@pytest.fixture(scope="session")
def ppc_image():
    return build_kernel("ppc")


def _static_triple(arch, image):
    from repro.static.cfg import build_cfg
    from repro.static.liveness import compute_liveness
    from repro.static.predictor import analyze_image
    cfg = build_cfg(arch, image)
    liveness = compute_liveness(cfg)
    report = analyze_image(arch, image, cfg=cfg, liveness=liveness)
    return cfg, liveness, report


@pytest.fixture(scope="session")
def x86_static(x86_image):
    """(KernelCFG, LivenessResult, StaticSensitivityReport) for x86."""
    return _static_triple("x86", x86_image)


@pytest.fixture(scope="session")
def ppc_static(ppc_image):
    """(KernelCFG, LivenessResult, StaticSensitivityReport) for ppc."""
    return _static_triple("ppc", ppc_image)


@pytest.fixture(scope="session")
def x86_context() -> CampaignContext:
    return CampaignContext.get("x86", seed=0, ops=36)


@pytest.fixture(scope="session")
def ppc_context() -> CampaignContext:
    return CampaignContext.get("ppc", seed=0, ops=36)


def _booted(arch: str) -> Machine:
    machine = Machine(arch)
    machine.boot()
    return machine


@pytest.fixture(scope="session")
def booted_x86() -> Machine:
    return _booted("x86")


@pytest.fixture(scope="session")
def booted_ppc() -> Machine:
    return _booted("ppc")


@pytest.fixture()
def fresh_x86(booted_x86) -> Machine:
    """A pristine fork per test (cheap)."""
    return booted_x86.fork()


@pytest.fixture()
def fresh_ppc(booted_ppc) -> Machine:
    return booted_ppc.fork()
