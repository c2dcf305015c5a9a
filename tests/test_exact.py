"""The exact first-window law against the frame chain it stands in for.

The engine draws each trial's bins from ``CN(0, Sigma_bit)``. These gates
keep the per-trial chain as the oracle: on identical source and noise
samples the linear maps give the chain's bins, and the lag-form covariance
and the kernel's bit-1 form equal the ones built from the probed bin
responses.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backscatter import (ChannelMode, ThresholdKind, draw_channels, estimate_ber, exact,
                         params_at_snr, sim)
from backscatter.core import complex_normal
from chainkit import (LONG_TAG, SHORT, WINDOW_RANGES, chain, make_params, probe_bin_gains,
                      reader_spectrum, redraw_trials, replayed_errors)

GEOMETRIES = {"reference": {}, "short": SHORT, "w10": dict(window=10),
              "w16-orders-3-5": dict(window=16, tag_order=3, reflect_order=5),
              "long-tag": LONG_TAG}


@pytest.mark.parametrize("over", [{}, SHORT], ids=["reference", "short"])
@pytest.mark.parametrize("bit", [0, 1])
def test_linear_maps_give_the_chain_bins(over, bit):
    # z = bit * R s + G d on the chain's own samples: s the last cp_len body
    # samples, d the prefix-minus-body noise difference
    p = make_params(**over)
    ch = draw_channels(p, np.random.default_rng(41))
    _, rx = chain(p, ch, bit, np.random.default_rng(42), np.random.default_rng(43))
    want = reader_spectrum(p, rx)[:p.window]
    s = complex_normal(np.random.default_rng(42), p.eff_len, p.source_power)[-p.cp_len:]
    noise = complex_normal(np.random.default_rng(43), p.cp_len + p.eff_len, p.noise_power)
    q, c, n = p.max_order, p.cp_len, p.eff_len
    d = noise[q:c] - noise[n + q:n + c]
    got = bit * (s @ exact.response(p, ch).T) + d @ exact.noise_map(p).T
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("over", list(GEOMETRIES.values()), ids=list(GEOMETRIES))
def test_lag_form_covariances_match_the_probe(over):
    p = make_params(**over)
    floor = 2 * p.cancel_len * p.noise_power
    g = exact.noise_map(p)
    s0 = exact.sigma0(p)
    assert np.max(np.abs(s0 - 2 * p.noise_power * g @ g.conj().T / floor)) <= 1e-12
    for seed in (51, 52, 53):
        ch = draw_channels(p, np.random.default_rng(seed))
        s1 = exact.sigma1(p, ch.tag, ch.reflect)
        r = probe_bin_gains(p, ch)[:p.window]
        assert np.max(np.abs(exact.response(p, ch) - r)) <= 1e-12 * np.max(np.abs(r))
        want = s0 + p.source_power * r @ r.conj().T / floor
        assert np.max(np.abs(s1 - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("over", [*GEOMETRIES.values(), dict(reflect_order=0)],
                         ids=[*GEOMETRIES, "reflect-0"])
def test_sigma0_rank_form_is_the_quadratic_form(over):
    # the redraw kernel's Re(u^H Sigma_0 u) from Sigma_0's rank-reflect_order form, a
    # bit-1 block of no trial included
    p = make_params(**over)
    u = complex_normal(np.random.default_rng(55), 40 * p.window, 1.0 / p.window).reshape(40, -1)
    want = np.einsum("mp,pq,mq->m", u.conj(), exact.sigma0(p), u).real
    assert np.max(np.abs(exact._sigma0_form(p, u) - want)) <= 1e-12 * np.max(want)
    assert exact._sigma0_form(p, u[:0]).shape == (0,)


@pytest.mark.parametrize("window", ["geometry", 1, "block_len"])
@pytest.mark.parametrize("over", list(GEOMETRIES.values()), ids=list(GEOMETRIES))
def test_closed_form_lag_maps_are_the_shifted_dft_products(over, window):
    # M_d = F_W J_d F_W^H = F_W[:, d:] F_W[:, :N - d]^H is diag(Omega[d]) C - C
    # diag(Omega[d]) + (N - d) diag(Omega[d]), Omega[d, p] = w^(pd), and 0 for d >= N; the
    # lag spectra read off the tag's periodogram are e = 2 Re(rho Omega_n) and a = -4 Im(rho
    # Omega), rho the tag's autocorrelation and Omega_n[d] = (N - d) Omega[d], row 0 halved
    p = make_params(**over)
    n, k = p.block_len, p.tag_order + 1
    w = {"geometry": p.window, "block_len": n}.get(window, window)
    d = np.arange(k)[:, None]
    omega = np.where(d < n, np.exp(-2j * np.pi * d * np.arange(w) / n), 0)
    omega_n = np.where(d == 0, n / 2, n - d) * omega
    _, _, c = exact._lag_tables(n, w, p.tag_order)
    f = exact._dft_rows(n, w)
    assert np.array_equal(c, c.conj().T)
    for lag in range(min(k, n)):
        want = f[:, lag:] @ f[:, :n - lag].conj().T
        got = omega[lag][:, None] * c - c * omega[lag] + np.diag((n - lag) * omega[lag])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    tags = complex_normal(np.random.default_rng(57), 3 * k, 1.0).reshape(3, k)
    rho = np.stack([np.correlate(tag, tag, "full")[k - 1:] for tag in tags])
    want = np.empty((3, 2 * w))
    want[:, 0::2], want[:, 1::2] = 2 * (rho @ omega_n).real, -4 * (rho @ omega).imag
    spectra, _, _ = exact._spectra(make_params(**{**over, "window": w}), tags,
                                   np.zeros((3, p.reflect_order + 1), dtype=complex))
    assert np.max(np.abs(spectra - want)) <= 1e-12 * np.max(np.abs(want))


# The signal form's edge geometries: a one-point fine grid for the tag's periodogram
# (tag_order 0), no folded samples, the narrowest and widest windows, and one reflect
# tap more than block_len, whose last tap wraps onto the first bin's phase.
EDGES = {"tag-0": dict(tag_order=0), "reflect-0": dict(reflect_order=0), "w1": dict(window=1),
         "w-block_len": dict(window=make_params().block_len),
         "reflect-block_len": dict(cp_len=12, eff_len=64, direct_order=0, tag_order=2,
                                   reflect_order=4, window=4)}


@pytest.mark.parametrize("over", [*GEOMETRIES.values(), *EDGES.values()],
                         ids=[*GEOMETRIES, *EDGES])
def test_signal_form_is_the_probed_bit1_excess(over):
    # the kernel's bit-1 addend is Re(u^H (Sigma_1 - Sigma_0) u), with no Sigma_1 formed
    p = make_params(**over)
    floor = 2 * p.cancel_len * p.noise_power
    chans = [draw_channels(p, np.random.default_rng(seed)) for seed in (51, 52, 53)]
    u = complex_normal(np.random.default_rng(54), 3 * p.window, 1.0 / p.window).reshape(3, -1)
    want = []
    for ch, x in zip(chans, u):
        r = probe_bin_gains(p, ch)[:p.window]
        want.append(p.source_power * np.sum(np.abs(r.conj().T @ x) ** 2) / floor)
    got = exact.signal_form(p, np.stack([ch.tag for ch in chans]),
                            np.stack([ch.reflect for ch in chans]), u)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("window, m, seed", [(32, 200, 56), (8, 2000, 57)],
                         ids=["w32-200-rows", "w8-2000-rows"])
def test_signal_form_rows_are_independent(window, m, seed):
    # m bit-1 rows in one call, so one C b product and one pair of the periodogram's real
    # products: each row's form is the one it gets alone
    p = make_params(window=window)
    width = p.tag_order + 1
    rng = np.random.default_rng(seed)
    taps = complex_normal(rng, m * (width + p.reflect_order + 1), 1.0).reshape(m, -1)
    u = complex_normal(rng, m * p.window, 1.0 / p.window).reshape(m, -1)
    tag, reflect = taps[:, :width], taps[:, width:]
    got = exact.signal_form(p, tag, reflect, u)
    want = [exact.signal_form(p, t[None], r[None], x[None])[0]
            for t, r, x in zip(tag, reflect, u)]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@st.composite
def geometries(draw):
    """A valid geometry with the three orders (0 allowed, ``tag_order`` past ``block_len``
    allowed), ``cp_len`` at most 80, any window, gain and source power."""
    block_len = draw(st.integers(1, 48))
    reflect_order = draw(st.integers(0, min(block_len, 8)))
    direct_order, tag_order = draw(st.integers(0, 8)), draw(st.integers(0, 24))
    cp_len = block_len + max(direct_order, tag_order, reflect_order) + reflect_order
    gain = draw(st.floats(0.05, 4.0)) * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
    return make_params(cp_len=cp_len, eff_len=cp_len + draw(st.integers(0, 64)),
                       direct_order=direct_order, tag_order=tag_order,
                       reflect_order=reflect_order, window=draw(st.integers(1, block_len)),
                       tag_gain=complex(gain), source_power=10.0 ** draw(st.floats(-2.0, 3.0)))


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(p=geometries(), rows=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_exact_law_over_random_geometries(p, rows, seed):
    # every form the kernel reads, on a drawn geometry against the probed chain: Sigma_1
    # and each row's bit-1 excess from the probed bin responses, each row of signal_form
    # against its one-row call, Sigma_0's form and eigenvalues, and the block sizes
    rng = np.random.default_rng(seed)
    floor = 2 * p.cancel_len * p.noise_power
    chans = [draw_channels(p, rng) for _ in range(rows)]
    u = complex_normal(rng, rows * p.window, 1.0 / p.window).reshape(rows, -1)
    s0 = exact.sigma0(p)
    excess = []
    for ch, x in zip(chans, u):
        gains = probe_bin_gains(p, ch)[:p.window]
        want = s0 + p.source_power * gains @ gains.conj().T / floor
        s1 = exact.sigma1(p, ch.tag, ch.reflect)
        assert np.max(np.abs(s1 - want)) <= 1e-12 * np.max(np.abs(want))
        excess.append(p.source_power * np.sum(np.abs(gains.conj().T @ x) ** 2) / floor)
    tag, reflect = np.stack([ch.tag for ch in chans]), np.stack([ch.reflect for ch in chans])
    got = exact.signal_form(p, tag, reflect, u)
    assert np.max(np.abs(got - excess)) <= 1e-12 * np.max(excess)
    alone = [exact.signal_form(p, t[None], r[None], x[None])[0]
             for t, r, x in zip(tag, reflect, u)]
    assert np.max(np.abs(got - alone)) <= 1e-12 * np.max(excess)
    quad = np.einsum("mp,pq,mq->m", u.conj(), s0, u).real
    assert np.max(np.abs(exact._sigma0_form(p, u) - quad)) <= 1e-12 * np.max(quad)
    lam = exact.sigma0_eigenvalues(p)
    assert np.max(np.abs(lam - np.linalg.eigvalsh(s0))) <= 1e-12 * lam[-1]
    assert abs(lam.sum() - np.trace(s0).real) <= 1e-12 * p.window
    w, k, r = p.window, p.tag_order + 1, p.reflect_order
    for mode, per_trial in ((ChannelMode.FIXED_REALIZATION, 8 * (w + 2)),
                            (ChannelMode.REDRAW_PER_TRIAL, 16 * (3 * k + 2 * r + 1 + 6 * w))):
        b = sim._block_trials(p, mode)
        assert b >= 1 and b * per_trial <= sim.BLOCK_BYTES


def test_sigma1_of_no_realization_is_empty():
    # a redraw block whose bits are all 0 takes no bit-1 form: the bit-1 form and Sigma_0's
    # form of no row are empty, and the block's errors are its replay's bit-0 false alarms,
    # E . lambda_0 over the threshold of the trial's two gamma energies
    p = make_params(**SHORT, trials=8)
    u = np.zeros((0, p.window), dtype=complex)
    tag = np.zeros((0, p.tag_order + 1), dtype=complex)
    reflect = np.zeros((0, p.reflect_order + 1), dtype=complex)
    assert exact.signal_form(p, tag, reflect, u).shape == (0,)
    assert exact._sigma0_form(p, u).shape == (0,)
    kind, point = ThresholdKind.EQUIPROBABLE, np.random.SeedSequence(1476)
    q = params_at_snr(p, 0.0)
    assert [bit for bit, *_ in redraw_trials(q, point, 0, q.trials)] == [0] * q.trials
    errors = replayed_errors(q, kind, point, 0, q.trials)
    assert errors > 0
    rec = estimate_ber(p, kind, ChannelMode.REDRAW_PER_TRIAL, 0.0, point)
    assert rec.empirical_ber == errors / q.trials


@pytest.mark.parametrize("kind", list(ThresholdKind))
def test_redraw_block_of_only_bit_1_trials(kind):
    # a redraw block whose bits are all 1 draws no gammas or exponentials: its bit-0
    # energies and statistics are empty, and its errors are its replay's bit-1 misses
    p = make_params(**SHORT, trials=5)
    point = np.random.SeedSequence(70)
    q = params_at_snr(p, 0.0)
    assert [bit for bit, *_ in redraw_trials(q, point, 0, q.trials)] == [1] * q.trials
    errors = replayed_errors(q, kind, point, 0, q.trials)
    assert errors > 0
    rec = estimate_ber(p, kind, ChannelMode.REDRAW_PER_TRIAL, 0.0, point)
    assert rec.empirical_ber == errors / q.trials


@pytest.mark.parametrize("kind", list(ThresholdKind))
@pytest.mark.parametrize("seed,bit", [(0, 0), (1, 1)])
def test_one_trial_redraw_block(seed, bit, kind):
    # the last block of a point of one block and one trial holds one trial, here a bit-0
    # false alarm or a bit-1 miss: the block's count is its replay's, 1
    mode = ChannelMode.REDRAW_PER_TRIAL
    b = sim._block_trials(make_params(**SHORT), mode)
    q = params_at_snr(make_params(**SHORT, trials=b + 1), -5.0)
    point = np.random.SeedSequence(seed)
    assert [trial[0] for trial in redraw_trials(q, point, 1, 1)] == [bit]
    assert replayed_errors(q, kind, point, 1, 1) == 1
    assert sim._count_errors(q, kind, None, point, 1) == 1


@pytest.mark.parametrize("m", [1, 3, 8])
@pytest.mark.parametrize("over, windows", list(WINDOW_RANGES.values()), ids=list(WINDOW_RANGES))
def test_stacked_signal_form_and_spectra_are_each_rows_own(over, windows, m):
    # sigma1 takes one tag's lag spectra and signal_form a stack's, from the same helper:
    # each row of the stack's bit-1 form is Re(u^H (Sigma_1 - Sigma_0) u) of its own
    # Sigma_1, and each row of the stack's spectra is the row's one-tag spectra
    for w in windows:
        p = make_params(**{**over, "window": w})
        rng = np.random.default_rng(60 + m)
        chans = [draw_channels(p, rng) for _ in range(m)]
        u = complex_normal(rng, m * w, 1.0 / w).reshape(m, w)
        tag, reflect = np.stack([ch.tag for ch in chans]), np.stack([ch.reflect for ch in chans])
        s0 = exact.sigma0(p)
        want = [np.vdot(x, (exact.sigma1(p, ch.tag, ch.reflect) - s0) @ x).real
                for ch, x in zip(chans, u)]
        got = exact.signal_form(p, tag, reflect, u)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        spectra, h_r, _ = exact._spectra(p, tag, reflect)
        for row, ch in enumerate(chans):
            one, one_h_r, _ = exact._spectra(p, ch.tag, ch.reflect)
            assert np.max(np.abs(spectra[row] - one)) <= 1e-12 * np.max(np.abs(one))
            assert np.max(np.abs(h_r[row] - one_h_r)) <= 1e-12 * np.max(np.abs(one_h_r))


def test_sigma1_takes_any_1d_tag():
    # a real tag and a strided one give the Sigma_1 of their contiguous complex copies;
    # the periodogram reads a tag through its float view, which neither has
    p = make_params(**SHORT)
    ch = draw_channels(p, np.random.default_rng(58))
    real = ch.tag.real.copy()
    assert np.array_equal(exact.sigma1(p, real, ch.reflect),
                          exact.sigma1(p, real.astype(complex), ch.reflect))
    strided = np.repeat(ch.tag, 2)[::2]
    assert not strided.flags.c_contiguous
    assert np.array_equal(exact.sigma1(p, strided, ch.reflect),
                          exact.sigma1(p, ch.tag, ch.reflect))
