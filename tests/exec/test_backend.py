"""Backend selection, worker sizing, and the pool-sizing policy."""

import pytest

from repro.errors import ExecError
from repro.exec import (
    BACKEND_NAMES,
    MAX_DEFAULT_WORKERS,
    Backend,
    SerialBackend,
    default_workers,
    get_backend,
)


class TestGetBackend:
    def test_names_resolve(self):
        assert isinstance(get_backend("serial"), SerialBackend)

    def test_instances_pass_through(self):
        be = SerialBackend()
        assert get_backend(be) is be

    def test_unknown_name_raises(self):
        with pytest.raises(ExecError, match="unknown backend"):
            get_backend("gpu")
        with pytest.raises(ExecError, match="unknown backend"):
            get_backend("process")
        # the in-process thread pool is retired; the error lists the survivors
        with pytest.raises(ExecError, match=r"'thread' \(expected one of serial, warm\)"):
            get_backend("thread")

    def test_names_list_is_complete(self):
        assert BACKEND_NAMES == ("serial", "warm")
        for name in BACKEND_NAMES:
            assert isinstance(get_backend(name), Backend)
            assert get_backend(name).name == name

    def test_workers_size_pooled_backends_only(self):
        assert get_backend("warm", 3).planned_workers() == 3
        with pytest.raises(ExecError, match=r"no pool to size \(pooled backends: warm\)"):
            get_backend("serial", 3)

    def test_warm_resolves_to_pool_backend(self):
        from repro.exec import WarmPoolBackend

        be = get_backend("warm")
        assert isinstance(be, WarmPoolBackend)
        assert get_backend(be) is be


class TestDefaultWorkers:
    def test_env_var_wins(self, monkeypatch):
        monkeypatch.setenv("JPG_WORKERS", "5")
        assert default_workers() == 5

    def test_env_var_must_be_an_integer(self, monkeypatch):
        monkeypatch.setenv("JPG_WORKERS", "many")
        with pytest.raises(ExecError, match="integer"):
            default_workers()

    def test_env_var_must_be_positive(self, monkeypatch):
        monkeypatch.setenv("JPG_WORKERS", "0")
        with pytest.raises(ExecError, match=">= 1"):
            default_workers()

    def test_cpu_count_capped(self, monkeypatch):
        monkeypatch.delenv("JPG_WORKERS", raising=False)
        n = default_workers()
        assert 1 <= n <= MAX_DEFAULT_WORKERS
