"""Per-layer tracing from outside the program.

The tracer replaces public functions and methods of each mvphi module with
wrappers that count calls and time them.  A wrapped call is a span; its
self time is its duration minus the durations of the wrapped calls it made
directly.  Inclusive time counts only the outermost of recursive spans.
Hot kernels are aggregated as they run rather than logged span by span:
the decompose set-up alone makes millions of ``raw_mul`` calls.
"""

from __future__ import annotations

import functools
import sys
import time

TIMED, COUNTED = "timed", "counted"
D, A, E, W = "decompose-f2", "action-f2", "embed-f2", "witt-n4"

# (owner as "<module>" or "<module>.<Class>", attribute, span name, kind,
#  workloads whose traced run must reach the span)
TARGETS = (
    ("coeff.OERing", "raw_mul", "coeff.raw_mul", TIMED, (D, E)),
    ("coeff.OERing", "raw_add", "coeff.raw_add", COUNTED, (D, E)),
    ("coeff.OERing", "raw_inv", "coeff.raw_inv", COUNTED, (D, E)),
    ("iwasawa.TSeries", "__mul__", "iwasawa.tseries_mul", TIMED, (D, E, A)),
    ("iwasawa.TSeries", "substitute", "iwasawa.substitute", TIMED,
     (D, E, A)),
    ("iwasawa", "revert_series", "iwasawa.revert_series", TIMED, (D, E, A)),
    ("iwasawa", "y_generator", "iwasawa.y_generator", TIMED, (D, E, A)),
    ("iwasawa", "phi_power_y", "iwasawa.phi_power_y", TIMED, (D, E, A)),
    ("iwasawa", "gamma_y", "iwasawa.gamma_y", TIMED, (A,)),
    ("mvring", "phi_images", "mvring.phi_images", TIMED, (A, D)),
    ("mvring", "gamma_images", "mvring.gamma_images", TIMED, (A,)),
    ("mvring", "apply_phi", "mvring.apply_phi", TIMED, (A,)),
    ("mvring", "apply_gamma", "mvring.apply_gamma", TIMED, (A,)),
    ("mvring", "apply_phi_q", "mvring.apply_phi_q", TIMED, (A,)),
    ("mvring", "phi_decompose", "mvring.phi_decompose", TIMED, (D,)),
    ("mvring", "recompose", "mvring.recompose", TIMED, (D,)),
    ("mvring.MvLaurent", "__mul__", "mvring.mv_mul", TIMED, (A, D)),
    ("mvring", "invert_unit", "mvring.invert_unit", TIMED, (A, D)),
    ("mvring", "norm_s", "mvring.norm_s", TIMED, (A,)),
    ("embed", "iota_generators", "embed.iota_generators", TIMED, (E,)),
    ("embed", "iota", "embed.iota", TIMED, (E,)),
    ("embed.WAlg", "__mul__", "embed.walg_mul", TIMED, (E,)),
    ("embed", "verify_norm_compare", "embed.verify_norm_compare", TIMED,
     (E,)),
    ("embed", "verify_phi_equivariance", "embed.verify_phi_equivariance",
     TIMED, (E,)),
    ("embed", "to_belt", "embed.to_belt", TIMED, (E,)),
    ("witt", "witt_mul", "witt.witt_mul", TIMED, (W, E)),
    ("witt", "witt_add", "witt.witt_add", TIMED, (W, E)),
    ("witt", "teich", "witt.teich", TIMED, (W, E)),
    ("witt", "gen_structure_polys", "witt.gen_structure_polys", TIMED,
     (W, E)),
    ("perfd.PerfLaurent", "__mul__", "perfd.perf_mul", TIMED, (W, E)),
    ("perfd.PerfLaurent", "pth_root", "perfd.pth_root", COUNTED, (W, E)),
    ("perfd", "b_val_r", "perfd.b_val_r", TIMED, (W, E)),
    ("phimod", "is_etale", "phimod.is_etale", TIMED, (A,)),
)

# modules that import wrapped names with ``from ... import``; loading them
# before wrapping lets every copy be replaced
COPYING_MODULES = ("mvphi.suites", "mvphi.cli", "mvphi.serialize")


class Tracer:
    """Call counts, inclusive and self time per span name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict = {}      # name -> [calls, inclusive s, self s]
        self._open = [0.0]         # child time of each open span; root first
        self.active = True

    def wrap(self, name: str, fn, kind: str = TIMED):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        if kind == COUNTED:
            def counted(*args, **kw):
                if self.active:
                    st[0] += 1
                return fn(*args, **kw)
            return functools.wraps(fn)(counted)
        clock, open_ = self.clock, self._open
        depth = [0]

        def timed(*args, **kw):
            if not self.active:
                return fn(*args, **kw)
            st[0] += 1
            depth[0] += 1
            open_.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kw)
            finally:
                dur = clock() - t0
                st[2] += dur - open_.pop()
                open_[-1] += dur
                depth[0] -= 1
                if not depth[0]:
                    st[1] += dur
        return functools.wraps(fn)(timed)

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def unreached(self, workload: str, targets=TARGETS) -> list:
        """Spans the targets say this workload reaches but it did not."""
        return sorted(name for _, _, name, _, on in targets
                      if workload in on and not self.calls(name))


def install(tracer: Tracer, targets=TARGETS) -> list:
    """Wrap every target, on its class or in every mvphi module that holds
    the function, and return the undo list for ``uninstall``."""
    import importlib
    for name in COPYING_MODULES:
        importlib.import_module(name)
    modules = [m for n, m in list(sys.modules.items())
               if n == "mvphi" or n.startswith("mvphi.")]
    undo = []
    for owner, attr, name, kind, _ in targets:
        mod_name, _, cls_name = owner.partition(".")
        module = sys.modules["mvphi." + mod_name]
        if cls_name:
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, tracer.wrap(name, original, kind))
            undo.append((cls, attr, original))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(name, original, kind)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
                    undo.append((m, key, original))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
