import sys, os; sys.path.insert(0, os.path.join(os.path.dirname(__file__)))

import pytest
from hypothesis import settings

# GitHub Actions sets CI: a failing property test there prints the
# @reproduce_failure blob that replays its example anywhere
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


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
