import sys, os; sys.path.insert(0, os.path.join(os.path.dirname(__file__)))

import pytest


@pytest.fixture
def dense_calls(monkeypatch):
    """Wraps spectral.new_eigenvalues, the dense cover solve; returns the
    list of its calls."""
    from nblifts import spectral
    calls = []
    real = spectral.new_eigenvalues

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "new_eigenvalues", counting)
    return calls
