"""Each shared check in qell.verify fails when a fault is injected into what it checks."""

import pytest

from qell import qell_core as qc
from qell import rotrep as rr
from qell import verify
from qell.groups import cyclic


def _plus_unit(fn):
    def broken(*args, **kwargs):
        out = fn(*args, **kwargs)
        return out + out.structure.unit()
    return broken


def _shifted_q(q):
    return lambda self, exponent=1: q(self, exponent + 1)


def _doubled(fn):
    return lambda *args: fn(*args) + fn(*args)


FAULTS = {
    "cyclic_presentations": (rr.LambdaCtx, "q", _shifted_q,
                             lambda: verify.cyclic_presentations((3,))),
    "abelian_product_presentations": (rr.LambdaCtx, "q", _shifted_q,
                                      lambda: verify.abelian_product_presentations(((2, 3),))),
    "symmetric3_rings": (rr.LambdaCtx, "q", _shifted_q, verify.symmetric3_rings),
    "kunneth_on_points": (qc, "kunneth", _plus_unit,
                          lambda: verify.kunneth_on_points(((cyclic(2), cyclic(3)),))),
    "change_of_group_round_trips": (qc, "change_of_group", _plus_unit,
                                    lambda: verify.change_of_group_round_trips(1, 0)),
    "free_action_examples": (qc, "free_quotient", lambda fn: lambda elt: fn(elt + elt),
                             verify.free_action_examples),
    "transfer_tables": (qc, "transfer", _plus_unit, verify.transfer_tables),
    "ring_axioms": (qc.QEllStructure, "unit", _doubled, lambda: verify.ring_axioms(2, 0)),
    "transfer_cross_checks": (qc, "_transfer_point_sum", _plus_unit,
                              lambda: verify.transfer_cross_checks(1, 0)),
    "mu_properties": (qc, "mu", _plus_unit,
                      lambda: verify.mu_properties((cyclic(2),), 2, 0)),
    "pullback_contravariance": (qc, "pullback_hom", _plus_unit,
                                lambda: verify.pullback_contravariance(2, 0)),
    "frobenius_reciprocity": (verify, "induce_cf", _doubled, verify.frobenius_reciprocity),
}


@pytest.mark.parametrize("check", FAULTS)
def test_injected_fault_fails_the_check(monkeypatch, check):
    owner, name, fault, run = FAULTS[check]
    monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
    failed = [c for c in run() if not c[1]]
    assert failed and all(detail for _, _, detail in failed), failed


def test_injected_fault_flips_the_mu_composition_report(monkeypatch):
    assert verify.mu_composition_report(2, 0)[0][1:] == (True, "observed agreement")
    monkeypatch.setattr(qc, "mu", _plus_unit(qc.mu))
    assert verify.mu_composition_report(2, 0)[0][1:] == (True, "observed DISAGREEMENT")
