"""Sieve-driven experiments on Mobius sums sliced by the Frobenius class
of the smallest prime factor, plus exact checks of the underlying
divisor-sum dualities."""

from importlib import import_module

# module of each public name, imported on first use (PEP 562): `import
# artinsums` loads no numpy, so the CLI can still set OPENBLAS_NUM_THREADS
# before numpy starts its BLAS threads
_HOME = {
    "FactorSieve": "sieve",
    "GaloisContext": "galois",
    "ClassOutcome": "galois",
    "new_cyclotomic": "galois",
    "new_splitting_field": "galois",
    "IntegrityError": "errors",
    "NotSquarefreeError": "errors",
}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
