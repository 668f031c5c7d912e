"""Per-layer call counters, installed by patching names from outside.

A `Tracer` replaces each traced function with a wrapper at every place a
caller looks the name up (`cli.report` as well as `bounds.report`, for
instance), and puts the originals back when the `with` block ends, even
on error.  Counters are aggregated in memory: hot functions such as
`gfunc.g` run about half a million times per sweep, so no per-call record is
kept.

Self time is a call's duration minus the time spent in wrapped calls it
made.  NumPy's `eigh` and `eigvalsh` are wrapped once, globally, and each
call is charged to the repository module of the innermost wrapped frame,
so `fock_oracle.eigvalsh` counts the eigensolves made under any
`fock_oracle` function and `chi_opt.eigh` those made directly by the
optimizer.
"""

from __future__ import annotations

from time import perf_counter

import numpy


def _channel_key(args, kwargs):
    params, rho = args[0], args[1]
    return (params.transmissivity, params.environment_photons, rho.dim)


def targets(tc):
    """(layer, module, owners, attribute, key) for every traced function.

    `tc` is the imported `thermalcap` package.  `key`, when given, maps a
    call's arguments to a value whose distinct count is reported.
    """
    fock, chi_opt = tc.fock_oracle, tc.chi_opt
    both = (fock, chi_opt)
    rows = [
        ("gfunc", "gfunc", (tc.gfunc,), name, None)
        for name in ("g", "delta", "delta_limit")
    ]
    rows += [
        ("bounds.report", "bounds", (tc.bounds, tc.cli), "report", None),
        ("cli", "cli", (tc.cli,), "main", None),
        (
            "gaussian_core.ChannelParams", "gaussian_core",
            (tc.gaussian_core.ChannelParams,), "__post_init__", None,
        ),
        ("fock_oracle.gaussian_ensemble_report", "fock_oracle", (fock,),
         "gaussian_ensemble_report", None),
        ("fock_oracle.beamsplitter_blocks", "fock_oracle", (fock,),
         "beamsplitter_blocks", None),
        ("fock_oracle.apply_channel", "fock_oracle", both, "apply_channel",
         _channel_key),
        ("fock_oracle.von_neumann_entropy", "fock_oracle", both,
         "von_neumann_entropy", None),
        ("fock_oracle.mean_photon_number", "fock_oracle", both,
         "mean_photon_number", None),
        ("fock_oracle.coherent_state", "fock_oracle", both, "coherent_state", None),
        ("chi_opt.optimize", "chi_opt", (chi_opt,), "optimize", None),
    ]
    rows += [(None, None, (numpy.linalg,), name, None) for name in ("eigh", "eigvalsh")]
    return rows


class Tracer:
    """Context manager that counts calls and self time per layer."""

    def __init__(self, rows):
        self._rows = rows
        self._stack: list[list] = []  # [module, time in wrapped children]
        self._patches: list[tuple[object, str, object]] = []
        self.stats: dict[str, list] = {}  # layer -> [calls, self_s, n3, keys]

    def _record(self, layer: str) -> list:
        rec = self.stats.get(layer)
        if rec is None:
            rec = self.stats[layer] = [0, 0.0, 0, set()]
        return rec

    def _wrap(self, fn, layer, module, key):
        rec = self._record(layer)
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [module, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                rec[0] += 1
                rec[1] += elapsed - frame[1]
                if key is not None:
                    rec[3].add(key(args, kwargs))
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def _wrap_eigensolver(self, fn, name):
        stack = self._stack
        record = self._record

        def wrapper(a, *args, **kwargs):
            rec = record(f"{stack[-1][0] if stack else 'numpy'}.{name}")
            start = perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += a.shape[-1] ** 3
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for layer, module, owners, attr, key in self._rows:
                original = getattr(owners[0], attr)
                if layer is None:
                    wrapper = self._wrap_eigensolver(original, attr)
                else:
                    wrapper = self._wrap(original, layer, module, key)
                for owner in owners:
                    self._patches.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Flat `<layer>.calls`, `.self_s`, `.n3` and `.distinct_keys` values."""
        out: dict[str, float] = {}
        for layer, (calls, self_s, n3, keys) in self.stats.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
            if n3:
                out[f"{layer}.n3"] = n3
            if keys:
                out[f"{layer}.distinct_keys"] = len(keys)
        return out
