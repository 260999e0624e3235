"""Independent decision oracles used to cross-check the package.

The main oracle: M | N^k for some k  iff  id_M lies in the span of all
composites f . g with f in Hom(N, M), g in Hom(M, N).  ("Trace ideal"
criterion: one exact linear solve, no decomposition theory involved.)
A literal enumeration of split pairs validates the span reduction itself
on the tiniest instances.
"""

import itertools

import numpy as np

from qfcert import linalg
from qfcert.modrep import envelope_module, hom_space, power_bimodule


def divides_oracle(m_bim, n_bim) -> bool:
    """True iff M divides some finite power of N (span criterion)."""
    if m_bim.dim == 0:
        return True
    if n_bim.dim == 0:
        return False
    p = m_bim.p
    h_nm = hom_space(envelope_module(n_bim), envelope_module(m_bim))
    h_mn = hom_space(envelope_module(m_bim), envelope_module(n_bim))
    if h_nm.k == 0 or h_mn.k == 0:
        return False
    cols = []
    for f in h_nm.basis:
        prods = np.matmul(f, h_mn.basis) % p  # (k2, dm, dm)
        cols.append(prods.reshape(h_mn.k, m_bim.dim * m_bim.dim).T)
    span = np.concatenate(cols, axis=1)
    target = linalg.vec(linalg.identity(m_bim.dim))
    return linalg.solve_right(span, target, p) is not None


def similar_oracle(m_bim, n_bim) -> bool:
    return divides_oracle(m_bim, n_bim) and divides_oracle(n_bim, m_bim)


def divides_enumeration_oracle(m_bim, n_bim, max_power=2, budget=400000) -> bool:
    """Literal split-pair search over N^k for k <= max_power.

    Only usable when the hom spaces are tiny; raises if the enumeration
    would exceed the budget.
    """
    p = m_bim.p
    if m_bim.dim == 0:
        return True
    for k in range(1, max_power + 1):
        nk = power_bimodule(n_bim, k)
        h1 = hom_space(envelope_module(m_bim), envelope_module(nk))
        h2 = hom_space(envelope_module(nk), envelope_module(m_bim))
        if h1.k == 0 or h2.k == 0:
            continue
        if p ** (h1.k + h2.k) > budget:
            raise RuntimeError("enumeration oracle out of budget")
        ident = linalg.identity(m_bim.dim)
        for cf in itertools.product(range(p), repeat=h1.k):
            phi = h1.element(list(cf))
            for cg in itertools.product(range(p), repeat=h2.k):
                psi = h2.element(list(cg))
                if np.array_equal(linalg.matmul(psi, phi, p), ident):
                    return True
    return False
