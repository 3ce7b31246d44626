"""Gauss-Legendre panels: one integrand call per integral, with the value and
error estimate of the panel-by-panel loop, over the integrands that the
capacity module integrates."""

from sirnet import capacity, quadrature

import panel_loop


def capacity_integrands(monkeypatch):
    """(f, cutoff, pieces) of every integral that capacity.py hands to
    integrate_decaying: the PPP capacity at boost 1.5 and 2.5, the alpha = 2
    TDMA kernel, and the alpha = 3 TDMA p_s ccdf."""
    seen = []
    real = quadrature.integrate_decaying

    def spy(f, cutoff=60.0, pieces=6):
        seen.append((f, cutoff, pieces))
        return real(f, cutoff=cutoff, pieces=pieces)

    with monkeypatch.context() as patch:
        patch.setattr(capacity, "integrate_decaying", spy)
        for boost in (1.5, 2.5):
            for cp in (0.05, 1.0, 20.0):
                capacity.ergodic_capacity_cp(boost, cp)
        for m in (1, 4):
            capacity.ergodic_capacity_tdma(2.0, m)
        for m in (1, 2):
            capacity.ergodic_capacity_tdma(3.0, m)
    assert len(seen) == 10
    return seen


def test_panels_match_the_panel_by_panel_loop(monkeypatch):
    """On the capacity module's own panels, and on two coarse panels, where
    Q_n and Q_2n differ far above rounding."""
    panels = quadrature.gauss_legendre_panels
    for f, cutoff, pieces in capacity_integrands(monkeypatch):
        for k in (pieces, 2):
            edges = []

            def record_edges(g, e, n):
                edges.extend(e)
                return panels(g, e, n)

            with monkeypatch.context() as m:
                m.setattr(quadrature, "gauss_legendre_panels", record_edges)
                value, err = quadrature.integrate_decaying(f, cutoff=cutoff, pieces=k)
            ref_value, ref_err = panel_loop.gauss_legendre_panels(f, edges, quadrature._NODES)
            assert abs(value - ref_value) <= 1e-14 * abs(ref_value), (k, value, ref_value)
            # On converged panels abs_err sums differences of nearly equal
            # values, which rounding moves by parts in 1e16 of the integral.
            assert abs(err - ref_err) <= 1e-14 * abs(ref_value), (k, err, ref_err)


def test_integrate_decaying_calls_f_once_on_every_node(monkeypatch):
    for f, cutoff, pieces in capacity_integrands(monkeypatch):
        calls = []

        def counted(x, f=f):
            calls.append(x)
            return f(x)

        quadrature.integrate_decaying(counted, cutoff=cutoff, pieces=pieces)
        assert len(calls) == 1
        assert calls[0].ndim == 1 and calls[0].shape == (pieces * 3 * quadrature._NODES,)

