"""Tests for the exception hierarchy."""

import pytest

from repro.common.errors import (
    ConfigError,
    ConvergenceError,
    DatasetError,
    IntegrityError,
    ReproError,
    ValidationError,
)


class TestHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for exc_type in (
            ValidationError,
            IntegrityError,
            ConvergenceError,
            DatasetError,
            ConfigError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_validation_error_is_a_value_error(self):
        # so idiomatic `except ValueError` call sites still work
        assert issubclass(ValidationError, ValueError)

    def test_catching_base_class_catches_subclass(self):
        with pytest.raises(ReproError):
            raise IntegrityError("boom")


class TestConvergenceError:
    def test_carries_diagnostics(self):
        err = ConvergenceError("no fixed point", iterations=50, residual=0.3, tolerance=1e-9)
        assert err.iterations == 50
        assert err.residual == 0.3
        assert err.tolerance == 1e-9
        assert "no fixed point" in str(err)

    def test_diagnostics_survive_raise(self):
        with pytest.raises(ConvergenceError) as excinfo:
            raise ConvergenceError("x", iterations=3, residual=1.0, tolerance=0.1)
        assert excinfo.value.iterations == 3
