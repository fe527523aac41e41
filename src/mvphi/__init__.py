"""Truncated-precision kernel for multivariable Frobenius-module rings."""

from .caches import clear_caches, cache_info
from .coeff import (Params, FField, OERing, OEInt, OKRing, OKElement,
                    fq_field, oe_ring, ok_ring)
from .iwasawa import (TSeries, group_like, y_generator, y_to_t_inverse,
                      phi_y, gamma_y)
from .mvring import (MvLaurent, NormValue, invert_unit, norm_s, member,
                     apply_phi, apply_phi_q, apply_gamma, phi_decompose,
                     recompose, roundtrip_ok, check_local_analyticity)
from .witt import (WittVec, StructurePolys, gen_structure_polys, witt_add,
                   witt_mul, teich, from_expansion)
from .perfd import (PerfLaurent, PerfRing, BElt, gauss_val,
                    b_val_r, member_B0r, pr_radius)
from .embed import (WAlg, IotaResult, iota_generators, iota,
                    verify_norm_compare, verify_phi_equivariance, to_belt)
from .phimod import (PhiModule, is_etale, base_change, unramified_char,
                     oc_certificate_check, integral_bound, tensor)
from . import errors

__all__ = [
    "Params", "FField", "OERing", "OEInt", "OKRing", "OKElement",
    "fq_field", "oe_ring", "ok_ring", "TSeries", "group_like",
    "y_generator", "y_to_t_inverse", "phi_y", "gamma_y",
    "MvLaurent", "NormValue", "invert_unit", "norm_s", "member", "apply_phi",
    "apply_phi_q", "apply_gamma", "phi_decompose", "recompose",
    "roundtrip_ok", "check_local_analyticity",
    "WittVec", "StructurePolys", "gen_structure_polys", "witt_add",
    "witt_mul", "teich", "from_expansion",
    "PerfLaurent", "PerfRing", "BElt", "gauss_val", "b_val_r",
    "member_B0r", "pr_radius",
    "WAlg", "IotaResult", "iota_generators", "iota", "verify_norm_compare",
    "verify_phi_equivariance", "to_belt",
    "PhiModule", "is_etale", "base_change", "unramified_char",
    "oc_certificate_check", "integral_bound", "tensor",
    "errors", "clear_caches", "cache_info",
]
