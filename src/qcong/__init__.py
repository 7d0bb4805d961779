"""Exact q-expansions of level-p Hauptmoduln (p = 2, 3, 5, 7) and mechanical
verification of the divisibility properties of their Fourier coefficients."""

from .basis import (
    BasisElement,
    NotPolynomialError,
    PhiPolynomial,
    basis_element,
    basis_family,
    express_in_phi,
)
from .congruence import (
    CongruenceCase,
    CongruenceReport,
    ValuationTable,
    bound,
    decompose_up_step,
    j_series,
    scan_alpha_gt_beta,
    scan_phi_powers,
    valuation_table,
    verify_theorem2,
)
from .eta import (
    check_cusp_relation,
    eta_eval,
    euler_product,
    phi,
    psi,
)
from .hecke import (
    BJ_TABLE,
    ModularEquation,
    RpReport,
    derive_bj,
    g_poly,
    power_sums,
    rp_report,
    verify_hpoly_relation,
    verify_power_sum_divisibility,
    verify_up_closure,
)
from .primes import GENUS_ZERO_PRIMES, PrimeContext
from .series import (
    NotInvertibleError,
    PrecisionError,
    QSeries,
    agree,
    val_p,
)

__all__ = [
    "BJ_TABLE",
    "BasisElement",
    "CongruenceCase",
    "CongruenceReport",
    "GENUS_ZERO_PRIMES",
    "ModularEquation",
    "NotInvertibleError",
    "NotPolynomialError",
    "PhiPolynomial",
    "PrecisionError",
    "PrimeContext",
    "QSeries",
    "RpReport",
    "ValuationTable",
    "agree",
    "basis_element",
    "basis_family",
    "bound",
    "check_cusp_relation",
    "decompose_up_step",
    "derive_bj",
    "eta_eval",
    "euler_product",
    "express_in_phi",
    "g_poly",
    "j_series",
    "phi",
    "power_sums",
    "psi",
    "rp_report",
    "scan_alpha_gt_beta",
    "scan_phi_powers",
    "val_p",
    "valuation_table",
    "verify_hpoly_relation",
    "verify_power_sum_divisibility",
    "verify_theorem2",
    "verify_up_closure",
]

__version__ = "0.1.0"
