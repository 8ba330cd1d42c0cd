"""Tests for how the native kernel is named, built and configured.

The cached shared object is keyed by a digest of what was built, so an
edited source or another flag set can never load a stale library; the
thread dial rejects anything but a positive integer instead of quietly
running single-threaded.
"""

from __future__ import annotations

import pytest

from repro.engine.native import MAX_KERNEL_THREADS, _kernel_paths, kernel_thread_count

_SOURCE = "int repro_answer(void) { return 42; }\n"
_FLAGS = ["-O2", "-shared", "-fPIC", "-pthread"]


def test_kernel_paths_are_named_by_source_and_flags(tmp_path):
    build = str(tmp_path)
    c_path, so_path = _kernel_paths(build, _SOURCE, _FLAGS)
    assert c_path.endswith(".c") and so_path.endswith(".so")
    assert c_path[:-2] == so_path[:-3]
    assert _kernel_paths(build, _SOURCE, list(_FLAGS)) == (c_path, so_path)

    variants = [
        _kernel_paths(build, _SOURCE.replace("42", "43"), _FLAGS),
        _kernel_paths(build, _SOURCE + " ", _FLAGS),
        _kernel_paths(build, _SOURCE, _FLAGS + ["-fsanitize=address"]),
        _kernel_paths(build, _SOURCE, _FLAGS[:-1]),
        _kernel_paths(build, _SOURCE, ["-O2", "-shared", "-fPIC -pthread"]),
    ]
    paths = {so_path} | {so for _, so in variants}
    assert len(paths) == len(variants) + 1
    assert len({c for c, _ in variants} | {c_path}) == len(variants) + 1


def test_kernel_thread_count_defaults_and_caps(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_THREADS", raising=False)
    assert kernel_thread_count() == 1
    monkeypatch.setenv("REPRO_KERNEL_THREADS", " 3 ")
    assert kernel_thread_count() == 3
    monkeypatch.setenv("REPRO_KERNEL_THREADS", str(MAX_KERNEL_THREADS + 10))
    assert kernel_thread_count() == MAX_KERNEL_THREADS


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "1.5"])
def test_kernel_thread_count_rejects_malformed_values(monkeypatch, raw):
    monkeypatch.setenv("REPRO_KERNEL_THREADS", raw)
    with pytest.raises(ValueError, match="REPRO_KERNEL_THREADS"):
        kernel_thread_count()
