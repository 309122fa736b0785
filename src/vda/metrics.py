"""Objective speech quality and intelligibility metrics over aligned pairs.

Segmental metrics use 25 ms / 10 ms Hamming frames at the pair's rate and
clamp per-frame values to [-10, 35] dB. stoi resamples to 10 kHz and works
on one-third-octave band envelopes; csii and ncm work over critical bands.
All three are vda's variants of the published indices: README's "STOI/CSII/NCM
against the published index" sections list where each departs from its
published construction.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import corpus, dsp, kernels
from .corpus import AlignedPair
from .errors import DegenerateInputError, MetricError, PreconditionError

SEG_SNR_FLOOR_DB = -10.0
SEG_SNR_CEIL_DB = 35.0
LLR_ORDER = dsp.LLR_ORDER
TRIM_FRACTION = 0.95  # LLR/WSS keep the smallest 95% of frame values

STOI_RATE = 10000
STOI_FRAME = 256
STOI_HOP = 128
STOI_FFT = 512
STOI_BANDS = 15
STOI_FMIN = 150.0
STOI_SEGMENT = 30  # 384 ms of 12.8 ms hops
STOI_SILENCE_RANGE_DB = 40.0
STOI_CLIP_DB = -15.0

CSII_BANDS = 25
NCM_BANDS = 20
NCM_ENV_LOWPASS_HZ = 25.0
SDR_CLIP_DB = 15.0
# Bytes of ncm's complex64 row buffer: it holds the largest multiple of 4
# polyphase rows that fits, and at least 8 (see _group_rows), and a row is
# capped so that 4 fit (see _envelope_grid): 20 rows of 3200 points on a 1 s
# pair at 16 kHz, 8 rows of 16 000 (1 MB) on a 20 s pair.
NCM_GROUP_BYTES = 512 * 1024

MIN_ENVELOPE_SECONDS = 0.384  # one stoi segment: the shortest pair ncm and stoi take

_EPS = np.finfo(np.float64).eps


# The value columns of metrics.csv, in file order: see MetricReport.cells.
COLUMNS = corpus.METRIC_COLUMNS


class MetricReport(NamedTuple):
    """One row of the evaluation suite for a single aligned pair."""

    stoi: float
    snr_seg: float
    fw_snr_seg: float
    llr: float
    wss: float
    csii: tuple[float | None, float | None, float | None]  # (high, mid, low)
    ncm: float
    pesq: float | None = None
    composite: tuple[float, float, float] | None = None  # (csig, cbak, covl)

    def cells(self) -> tuple:
        """The values in COLUMNS order; csig, cbak and covl are None without a composite."""
        return (self.stoi, self.snr_seg, self.fw_snr_seg, self.llr, self.wss, *self.csii,
                self.ncm, self.pesq, *(self.composite or (None, None, None)))


class PairAnalysis(NamedTuple):
    """What snr_seg, fw_snr_seg, llr, wss and csii read of a pair: both
    sides' frame analyses, and csii's cross-spectrum sum over each level
    region (see _csii_regions), 0.0 for a region with no frame. Those
    metrics build it when they are given none, to the same bits."""

    clean: dsp.FrameAnalysis
    degraded: dsp.FrameAnalysis
    cross: list


def _csii_regions(energy: np.ndarray, frame_len: int, overall: float) -> tuple[np.ndarray, ...]:
    """csii's high, mid and low level regions of the frames with these
    clean energies: frame RMS >= 0 dB, in [-10, 0) dB and in [-30, -10) dB
    relative to the clean signal's overall RMS."""
    rms = np.sqrt(energy / frame_len)
    return (
        rms >= overall,
        (rms < overall) & (rms >= overall * 10.0 ** (-10.0 / 20.0)),
        (rms < overall * 10.0 ** (-10.0 / 20.0)) & (rms >= overall * 10.0 ** (-30.0 / 20.0)),
    )


def analyze_pair(pair: AlignedPair) -> PairAnalysis:
    """Both sides' frame analyses, and csii's cross-spectra from the same
    transforms, in one pass of blocks (dsp.frame_analyses). Each region's
    products of a block go to rows 1.. of a buffer whose row 0 carries the
    running total into the block's sum over axis 0, which numpy takes row
    after row, so every bin is summed in the order of one np.sum over all
    the region's rows."""
    frame_len, _ = dsp.default_frame_params(pair.rate)
    overall = pair.clean.rms()
    cross = [0.0, 0.0, 0.0]

    def add_cross(block: slice, energies: list, spectra: list) -> None:
        spec_c, spec_d = spectra
        for r, region in enumerate(_csii_regions(energies[0], frame_len, overall)):
            rows = np.flatnonzero(region)
            if len(rows):
                buf = np.empty((len(rows) + 1, spec_c.shape[1]), dtype=complex)
                buf[0] = cross[r]
                np.multiply(spec_c[rows], np.conj(spec_d[rows]), out=buf[1:])
                cross[r] = np.sum(buf, axis=0)

    clean, degraded = dsp.frame_analyses(pair.clean, pair.degraded, visit=add_cross)
    if len(clean.frames) == 0:
        raise PreconditionError("pair shorter than one analysis frame")
    return PairAnalysis(clean, degraded, cross)


def _trimmed_mean(values: np.ndarray) -> float:
    ordered = np.sort(values)
    keep = max(1, int(round(TRIM_FRACTION * len(ordered))))
    return float(np.mean(ordered[:keep]))


def snr_seg(pair: AlignedPair, analysis: PairAnalysis | None = None) -> float:
    """Frame-averaged clamped signal-to-error ratio in dB."""
    c, d, _ = analysis or analyze_pair(pair)
    mask = c.energy > 0.0
    if not np.any(mask):
        raise DegenerateInputError("every frame of the clean signal is silent")
    error = np.empty(len(c.frames))
    for block in dsp.row_blocks(len(error)):
        error[block] = np.sum((c.frames[block] - d.frames[block]) ** 2, axis=1)
    with np.errstate(divide="ignore"):
        ratio = 10.0 * np.log10(np.where(error > 0.0, c.energy / np.where(error > 0.0, error, 1.0), np.inf))
    ratio = np.clip(ratio, SEG_SNR_FLOOR_DB, SEG_SNR_CEIL_DB)
    return float(np.mean(ratio[mask]))


def fw_snr_seg(pair: AlignedPair, analysis: PairAnalysis | None = None) -> float:
    """Critical-band SNR, weighted per frame by clean band magnitude^0.2."""
    c, d, _ = analysis or analyze_pair(pair)
    mask = c.energy > 0.0
    if not np.any(mask):
        raise DegenerateInputError("every frame of the clean signal is silent")
    bank = dsp.make_filterbank("critical_band", pair.rate, c.fft_len, CSII_BANDS, 50.0)
    bc = np.sqrt(c.power @ bank.T)
    bd = np.sqrt(d.power @ bank.T)
    diff2 = (bc - bd) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        band_snr = 10.0 * np.log10(
            np.where(diff2 > 0.0, bc ** 2 / np.where(diff2 > 0.0, diff2, 1.0), np.inf)
        )
        band_snr = np.where(bc > 0.0, band_snr, SEG_SNR_FLOOR_DB)
    band_snr = np.clip(band_snr, SEG_SNR_FLOOR_DB, SEG_SNR_CEIL_DB)
    weights = bc ** 0.2
    wsum = np.sum(weights, axis=1)
    good = mask & (wsum > 0.0)
    if not np.any(good):
        raise DegenerateInputError("no frame with usable band weights")
    frame_vals = np.sum(weights * band_snr, axis=1)[good] / wsum[good]
    frame_vals = np.clip(frame_vals, SEG_SNR_FLOOR_DB, SEG_SNR_CEIL_DB)
    return float(np.mean(frame_vals))


def llr(pair: AlignedPair, analysis: PairAnalysis | None = None) -> float:
    """Log-likelihood ratio between degraded and clean all-pole fits.

    Per frame, log((a_d R_c a_d') / (a_c R_c a_c')) with order-10 LPC on the
    windowed frame and R_c the clean autocorrelation matrix; the mean is
    taken over the smallest 95% of frame values.
    """
    c, d, _ = analysis or analyze_pair(pair)
    rc = dsp.power_autocorrelation(c.power, c.fft_len, LLR_ORDER)
    rd = dsp.power_autocorrelation(d.power, d.fft_len, LLR_ORDER)
    ac, c_ok = dsp.lpc(rc)
    ad, d_ok = dsp.lpc(rd)
    valid = c_ok & d_ok
    if not np.any(valid):
        raise DegenerateInputError("no frame supports an LPC fit")
    ac, ad, rc = ac[valid], ad[valid], rc[valid]
    idx = np.abs(np.arange(LLR_ORDER + 1)[:, None] - np.arange(LLR_ORDER + 1)[None, :])
    toeplitz_c = rc[:, idx]
    num = np.einsum("mj,mjk,mk->m", ad, toeplitz_c, ad)
    den = np.einsum("mj,mjk,mk->m", ac, toeplitz_c, ac)
    ok = (num > 0.0) & (den > 0.0)
    if not np.any(ok):
        raise DegenerateInputError("all frames degenerate for the likelihood ratio")
    return _trimmed_mean(np.log(num[ok] / den[ok]))


def _wss_frames(pc: np.ndarray, pd: np.ndarray) -> np.ndarray:
    """wss's value of each frame row from its clean and degraded band powers;
    each row's value depends on that row alone."""
    kmax, klocmax = 20.0, 1.0
    # relative floor keeps the dB spectra finite and gain-invariant
    pc = np.maximum(pc, pc.max(axis=1, keepdims=True) * 1e-10)
    pd = np.maximum(pd, pd.max(axis=1, keepdims=True) * 1e-10)
    dbc = 10.0 * np.log10(pc)
    dbd = 10.0 * np.log10(pd)
    slope_c = np.diff(dbc, axis=1)
    slope_d = np.diff(dbd, axis=1)
    peak_c = kernels.local_peak_values(dbc)
    peak_d = kernels.local_peak_values(dbd)
    wc = (kmax / (kmax + dbc.max(axis=1, keepdims=True) - dbc[:, :-1])) * (
        klocmax / (klocmax + peak_c - dbc[:, :-1])
    )
    wd = (kmax / (kmax + dbd.max(axis=1, keepdims=True) - dbd[:, :-1])) * (
        klocmax / (klocmax + peak_d - dbd[:, :-1])
    )
    weights = 0.5 * (wc + wd)
    return np.sum(weights * (slope_c - slope_d) ** 2, axis=1) / np.sum(weights, axis=1)


def wss(pair: AlignedPair, analysis: PairAnalysis | None = None) -> float:
    """Weighted spectral slope distance over 36 critical bands.

    Per frame, squared differences of adjacent-band dB slopes are weighted
    by proximity to the global and nearest local spectral maxima (averaged
    over the clean and degraded weightings), normalized by the weight sum;
    the mean is over the smallest 95% of frames.
    """
    c, d, _ = analysis or analyze_pair(pair)
    valid = np.flatnonzero((c.energy > 0.0) & (d.energy > 0.0))
    if len(valid) == 0:
        raise DegenerateInputError("no frame carries energy on both sides")
    bank = dsp.make_filterbank("critical_band", pair.rate, c.fft_len, 36, 50.0)
    # the band sums of every frame in one product each, so no rows of the
    # power are copied; the frame values then run in blocks of valid rows
    pc = c.power @ bank.T
    pd = d.power @ bank.T
    frame_vals = np.empty(len(valid))
    for block in dsp.row_blocks(len(valid)):
        frame_vals[block] = _wss_frames(pc[valid[block]], pd[valid[block]])
    return _trimmed_mean(frame_vals)


def _transfer_mean(db: np.ndarray, importance: np.ndarray) -> float | None:
    """The apparent-SNR transfer of csii and ncm: db clipped to
    +-SDR_CLIP_DB and mapped onto [0, 1], then its importance-weighted mean;
    None where the importance sums to zero."""
    db = np.clip(db, -SDR_CLIP_DB, SDR_CLIP_DB)
    transfer = (db + SDR_CLIP_DB) / (2.0 * SDR_CLIP_DB)
    total = np.sum(importance)
    if total <= 0.0:
        return None
    return float(np.sum(importance * transfer) / total)


def _csii_region(c: dsp.FrameAnalysis, d: dsp.FrameAnalysis, region: np.ndarray,
                 cross: np.ndarray, weights: np.ndarray) -> float:
    """Coherence-based index over one level region (>= 2 frames), whose
    cross-spectrum sum is ``cross``. Each side's power rows of the region
    are gathered, in turn, into one reused buffer; every band product runs
    over all of them at once, because a product over fewer rows can take
    another BLAS kernel (OpenBLAS's small-matrix or vector route) and other
    last bits."""
    index = np.flatnonzero(region)
    rows = np.empty((len(index), c.power.shape[1]))

    def gather(a: dsp.FrameAnalysis) -> np.ndarray:
        # mode="clip" lets np.take write into rows without a buffer of its own
        return np.take(a.power, index, axis=0, out=rows, mode="clip")

    sum_c = np.sum(gather(c), axis=0)
    band_c = rows @ weights.T
    denom = sum_c * np.sum(gather(d), axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        msc = np.where(denom > 0.0, np.abs(cross) ** 2 / np.where(denom > 0.0, denom, 1.0), 0.0)
    msc = np.clip(msc, 0.0, 1.0)

    sig = np.multiply(rows, msc, out=rows) @ weights.T
    dist = np.multiply(gather(d), 1.0 - msc, out=rows) @ weights.T
    with np.errstate(divide="ignore", invalid="ignore"):
        sdr = 10.0 * np.log10(np.where(dist > 0.0, sig / np.where(dist > 0.0, dist, 1.0), np.inf))
        sdr = np.where(sig > 0.0, sdr, -SDR_CLIP_DB)
    value = _transfer_mean(sdr, np.sqrt(band_c))
    return 0.0 if value is None else value


def csii(pair: AlignedPair, analysis: PairAnalysis | None = None
         ) -> tuple[float | None, float | None, float | None]:
    """Coherence index on high/mid/low level regions of the clean signal.

    Regions partition frames by clean RMS relative to the overall RMS:
    high >= 0 dB, mid [-10, 0) dB, low [-30, -10) dB. A region with fewer
    than two frames yields None (coherence needs averaging).
    """
    c, d, crosses = analysis or analyze_pair(pair)
    overall = pair.clean.rms()
    if overall <= 0.0:
        raise DegenerateInputError("clean signal is silent")
    bank = dsp.make_filterbank("critical_band", pair.rate, c.fft_len, CSII_BANDS, 50.0)
    out: list[float | None] = []
    for region, cross in zip(_csii_regions(c.energy, c.frames.shape[1], overall), crosses):
        if np.count_nonzero(region) < 2:
            out.append(None)
        else:
            out.append(_csii_region(c, d, region, cross, bank))
    if all(v is None for v in out):
        raise DegenerateInputError("no level region holds at least two frames")
    return (out[0], out[1], out[2])


def _analytic_spectra(pair: AlignedPair, nfft: int) -> np.ndarray:
    """One-sided spectra of both sides, shape (2, nfft // 2 + 1), with the
    positive frequencies doubled: the spectra of their analytic signals."""
    spectra = np.empty((2, nfft // 2 + 1), dtype=np.complex128)
    for side, sig in enumerate((pair.clean, pair.degraded)):
        spectra[side] = np.fft.rfft(sig.samples, nfft)
    spectra[:, 1:(nfft + 1) // 2] *= 2.0
    return spectra


def _envelope_lowpass(nfft: int, rate: int) -> np.ndarray:
    """FFT-domain envelope lowpass, float32, with a cosine rolloff above
    NCM_ENV_LOWPASS_HZ. It zeroes every bin from twice the cutoff up, so it
    is returned only over the bins below, the ones an envelope keeps."""
    freqs = np.fft.rfftfreq(nfft, 1.0 / rate)
    passband = freqs[:np.searchsorted(freqs, 2.0 * NCM_ENV_LOWPASS_HZ)]
    roll = np.clip((passband - NCM_ENV_LOWPASS_HZ) / NCM_ENV_LOWPASS_HZ, 0.0, 1.0)
    lowpass = (0.5 * (1.0 + np.cos(np.pi * roll))).astype(np.float32)
    return lowpass[:int(np.flatnonzero(lowpass)[-1]) + 1]


class _EnvelopeGrid(NamedTuple):
    """The per-pair constants of _band_envelopes. The spectrum bins
    los[b] .. his[b] - 1 are band b's non-zero run, idx maps each spectrum
    bin to its bank bin, and the envelope's nfft = p q samples are taken as
    p rows of q, row a holding the samples a, a + p, a + 2 p, ...; forward
    is (p, min(widest band, q)) of w^(j a), folds (p, widest band's folds
    of q) of w^(q m a) and backward (p, keep) of w^(-k a), for
    w = exp(2 pi i / nfft)."""

    idx: np.ndarray
    los: np.ndarray
    his: np.ndarray
    p: int
    q: int
    forward: np.ndarray
    folds: np.ndarray
    backward: np.ndarray


def _envelope_grid(nfft: int, rate: int, bank_weights: np.ndarray, keep: int) -> _EnvelopeGrid:
    """The bin map and the polyphase split of one pair's envelopes: q is the
    smallest divisor of nfft that is at least 2 keep envelope bins and at
    least the widest band's run W, or, where W is wider, at least C, the
    largest divisor of nfft of which 4 complex64 rows fit NCM_GROUP_BYTES
    (q = nfft, p = 1 when no smaller divisor serves). A run wider than q is
    folded into q (see _band_envelopes)."""
    n_bank = bank_weights.shape[1]
    bin_hz_bank = (rate / 2.0) / (n_bank - 1)
    # the bank bin of each spectrum bin, in the smallest integer type because
    # it is alive while the row groups' transforms set ncm's peak memory
    idx = np.clip(np.round(np.fft.rfftfreq(nfft, 1.0 / rate) / bin_hz_bank), 0, n_bank - 1
                  ).astype(np.min_scalar_type(n_bank - 1))
    # idx is non-decreasing, so each band's non-zero bank bins map to one
    # contiguous run of spectrum bins
    nonzero = bank_weights > 0.0
    first = np.argmax(nonzero, axis=1)
    last = n_bank - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    los = np.searchsorted(idx, first, side="left")
    his = np.searchsorted(idx, last, side="right")
    width = int(np.max(his - los))
    fewest = -(-nfft // (NCM_GROUP_BYTES // 32))  # p for rows of at most 16 384 points
    cap = nfft // next(p for p in range(fewest, nfft + 1) if nfft % p == 0)
    need = min(nfft, max(min(width, cap), 2 * keep))
    p = next(p for p in range(nfft // need, 0, -1) if nfft % p == 0)
    q = nfft // p

    def twiddles(cols: int, sign: float, dtype: type) -> np.ndarray:
        # w^(sign j a): row a is row a - 1 times w^(sign j), which costs up
        # to p ulps of float64 (p = 20 on a 20 s pair), far below the
        # complex64 transforms; each row is cast to dtype as it is made, so
        # no complex128 table of every row is held
        angle = sign * 2.0 * np.pi / nfft * np.arange(cols)
        step = np.cos(angle) + 1j * np.sin(angle)
        row = np.ones(cols, dtype=np.complex128)
        table = np.empty((p, cols), dtype=dtype)
        table[0] = row
        for a in range(1, p):
            row *= step
            table[a] = row
        return table

    # w^(q m a) = exp(2 pi i m a / p), from the exact residues of m a mod p
    turns = np.outer(np.arange(p), np.arange(-(-width // q))) % p
    folds = np.exp(2j * np.pi / p * turns).astype(np.complex64)
    return _EnvelopeGrid(idx, los, his, p, q, twiddles(min(width, q), 1.0, np.complex64),
                         folds, twiddles(keep, -1.0, np.complex128))


def _group_rows(grid: _EnvelopeGrid) -> int:
    """Rows per group of ncm's row buffer: the largest multiple of 4 whose
    complex64 rows of q points fit NCM_GROUP_BYTES, and at least 8, as
    numpy's pocketfft transforms the rows of one call in batches, the more
    rows the cheaper each (CHANGES.md line 70)."""
    return max(8, NCM_GROUP_BYTES // (8 * grid.q) // 4 * 4)


def _band_envelopes(spectra: np.ndarray, grid: _EnvelopeGrid, bank_weights: np.ndarray,
                    lowpass: np.ndarray) -> np.ndarray:
    """Lowpassed envelopes of every band of the bank, both sides, as spectra,
    complex128 of shape (2, bands, len(lowpass)): clean, then degraded.

    The envelope is the magnitude of the spectral-masked analytic band
    signal, lowpassed. Coefficient k of a band holds its envelope as
    env[t] = Re sum_k a_k exp(2 pi i k t / nfft), that is a_0 = X_0 / nfft
    and a_k = 2 X_k / nfft for the lowpassed envelope FFT X; _crop_sums
    reduces the envelopes over their first n samples from these alone. The
    analytic band signal comes straight from `spectra` (see
    _analytic_spectra), which is non-zero only over the band's run of W
    bins lo .. lo + W - 1. Its nfft-point inverse FFT at t = a + p b is
    therefore w^(lo t) / p times the q-point inverse FFT of row a,
    w^(j a) sum_m S[lo + j + q m] w^(q m a) for j < q: the first step of
    a four-step FFT, which folds the run mod q, and for W <= q (one fold)
    reduces to the twiddles. The phase drops out of the envelope. The
    envelope FFT is put back together from the rows' q-point FFTs as
    X_k = sum_a w^(-k a) RFFT_q(row a)[k], k < keep <= q / 2. So every one of
    the nfft envelope samples is computed, by transforms of length q; with
    p = 1 the route is a pair of nfft-point transforms.

    The rows, in the order (band, side, a), go through one buffer of
    _group_rows(grid) rows, reused for the whole call: each (band, side) run
    of p rows is filled by one product of its forward twiddles and its
    masked spectrum, which is kept until the run ends, as a run may span
    two groups; a run wider than q is first folded, row by row, by a
    product of the row's fold twiddles and its (folds, q) spectrum (one
    product over a group's rows of the run gave a lone row other bits than
    the same row among several). Only the first keep bins of each row's
    envelope FFT are kept, for one band at a time, and they are reduced
    with the backward twiddles by one einsum as soon as the band's last run
    ends. The transforms run in single precision, which moves ncm by well
    under 1e-6: the inverse FFT in place, and the rfft at norm="forward",
    the scale at which NumPy keeps float32 input in its float32 loop (at
    the default norm it transforms in float64; CHANGES.md line 48).
    Every row's fill and transforms and every band's sum over its rows
    depend on that row or band alone, so the result does not depend on the
    group size.
    """
    p, q, keep = grid.p, grid.q, len(lowpass)
    bands = len(bank_weights)
    # one band's kept bins, by (side, a); held as (2, p, keep) instead, the
    # same bits, it raised the long-utterance metrics stage's peak RSS by 3 MB
    kept = np.empty((2 * p, keep), dtype=np.complex64)
    coeffs = np.empty((2, bands, keep), dtype=np.complex128)
    total = 2 * bands * p
    group = min(_group_rows(grid), total)
    buffer = np.empty((group, q), dtype=np.complex64)
    for start in range(0, total, group):
        stop = min(start + group, total)
        row = start
        while row < stop:
            run, a = divmod(row, p)
            band, side = divmod(run, 2)
            lo, hi = grid.los[band], grid.his[band]
            if a == 0:  # the masked spectrum; a run wider than q as rows of its folds
                shape = (-(-(hi - lo) // q), q) if hi - lo > q else hi - lo
                product = np.zeros(shape, dtype=np.complex64)
                np.multiply(spectra[side, lo:hi], bank_weights[band, grid.idx[lo:hi]],
                            out=product.reshape(-1)[:hi - lo], casting="same_kind")
            end = min(stop, row - a + p)
            rows = buffer[row - start:end - start]
            forward = grid.forward[a:a + end - row]
            if product.ndim == 2:
                for fold, out in zip(grid.folds[a:a + end - row, :len(product)], rows):
                    np.matmul(fold, product, out=out)
                rows *= forward
            else:
                np.multiply(forward[:, :hi - lo], product, out=rows[:, :hi - lo])
                rows[:, hi - lo:] = 0.0
            row = end
        rows = buffer[:stop - start]
        np.fft.ifft(rows, axis=-1, out=rows)
        # scaled by 1 / q, and freed before the next group's is made
        transformed = np.fft.rfft(np.abs(rows), axis=-1, norm="forward")
        row = start
        while row < stop:
            band, slot = divmod(row, 2 * p)
            end = min(stop, row - slot + 2 * p)
            kept[slot:slot + end - row] = transformed[row - start:end - start, :keep]
            row = end
            if end % (2 * p) == 0:  # the band's last run has ended
                np.einsum("sak,ak->sk", kept.reshape(2, p, keep), grid.backward,
                          out=coeffs[:, band])
        del transformed
    coeffs *= lowpass
    coeffs *= 2.0 / (p * p)  # 2 / nfft, over the p of each row's |ifft|
    coeffs[..., 0] /= 2.0
    return coeffs


def _dirichlet(m: np.ndarray, n: int, nfft: int) -> np.ndarray:
    """S(m) = sum_{t<n} exp(2 pi i m t / nfft), the kernel of the crop to the
    first n of nfft samples, for integers m: n where m = 0 (mod nfft), else
    sin(pi m n / nfft) / sin(pi m / nfft) * exp(i pi m (n - 1) / nfft). Each
    angle is reduced in integers to (-pi, pi] before it is scaled, so a sine
    near zero keeps its relative precision (the geometric-series quotient
    (1 - w^n) / (1 - w), w = exp(2 pi i m / nfft), loses about nfft / m ulps
    to cancellation)."""
    m = np.asarray(m, dtype=np.int64)
    zero = m % nfft == 0
    m = np.where(zero, 1, m)

    def angle(p: np.ndarray) -> np.ndarray:  # pi p / nfft, reduced
        return np.pi * ((p + nfft) % (2 * nfft) - nfft) / nfft

    kernel = np.sin(angle(m * n)) / np.sin(angle(m)) * np.exp(1j * angle(m * (n - 1)))
    return np.where(zero, complex(n), kernel)


def _crop_kernel(n: int, nfft: int, keep: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What _crop_sums needs to sum envelopes of `keep` coefficients over
    their first n samples: S(0..keep-1) for the plain sums, and, for the
    product sums, S laid out over the lags of a convolution (0..2 keep - 2)
    and of a correlation (-(keep - 1)..keep - 1) of two coefficient rows,
    each inverse-FFT'd at length next_fast_len(2 keep - 1)."""
    size = corpus.next_fast_len(2 * keep - 1)
    conv = np.zeros(size, dtype=np.complex128)
    conv[:2 * keep - 1] = _dirichlet(np.arange(2 * keep - 1), n, nfft)
    lags = np.arange(-(keep - 1), keep)
    corr = np.zeros(size, dtype=np.complex128)
    corr[lags % size] = _dirichlet(lags, n, nfft)
    return conv[:keep], np.fft.ifft(conv), np.fft.ifft(corr)


def _crop_sums(a: np.ndarray, b: np.ndarray,
               kernel: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Sums over t < n of x, y, x^2, y^2 and x y, shape (5, rows), for the
    envelopes x and y that the coefficient rows a and b hold (see
    _band_envelopes and _crop_kernel).

    With S the crop kernel, sum x = Re sum_k a_k S(k), and
    sum x y = 1/2 Re [sum_m S(m) c_m + sum_m S(m) r_m] for the convolution c
    of a and b and the correlation r_m = sum_k a_{k+m} conj(b_k). Both come
    from FFTs A and B of the rows: sum_m S(m) c_m = sum_j A_j B_j ifft(S)_j
    over the convolution's lags, and likewise A_j conj(B_j) for r. Every
    reduction runs per row (np.einsum), so a row's sums do not depend on
    the rows beside it.
    """
    plain, conv, corr = kernel
    spec_a, spec_b = np.fft.fft(np.stack((a, b)), len(conv), axis=-1)

    def product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return 0.5 * (np.einsum("ij,ij,j->i", x, y, conv)
                      + np.einsum("ij,ij,j->i", x, y.conj(), corr)).real

    return np.stack((np.einsum("ij,j->i", a, plain).real, np.einsum("ij,j->i", b, plain).real,
                     product(spec_a, spec_a), product(spec_b, spec_b), product(spec_a, spec_b)))


def _require_envelope_length(pair: AlignedPair) -> None:
    if pair.clean.duration < MIN_ENVELOPE_SECONDS:
        raise PreconditionError(f"pair must last at least {MIN_ENVELOPE_SECONDS * 1000:.0f} ms")


def ncm(pair: AlignedPair) -> float:
    """Normalized covariance metric: band-envelope correlations mapped
    through an apparent-SNR transfer and importance-weighted into [0, 1].

    The envelopes are built a few polyphase rows at a time (see
    _band_envelopes) and reduced from their lowpassed spectra to per-band
    sums over the pair's n samples (see _crop_sums), so no band spectrum
    outlives its row group and no envelope is brought back to n samples.
    """
    _require_envelope_length(pair)
    frame_len, _ = dsp.default_frame_params(pair.rate)
    fft_len = dsp.next_pow2(frame_len)
    bank = dsp.make_filterbank("critical_band", pair.rate, fft_len, NCM_BANDS, 150.0)
    n = len(pair.clean)
    nfft = corpus.next_fast_len(n)
    spectra = _analytic_spectra(pair, nfft)
    lowpass = _envelope_lowpass(nfft, pair.rate)
    grid = _envelope_grid(nfft, pair.rate, bank, len(lowpass))
    kernel = _crop_kernel(n, nfft, len(lowpass))
    env_c, env_d = _band_envelopes(spectra, grid, bank, lowpass)
    sum_c, sum_d, energy, energy_d, prod = _crop_sums(env_c, env_d, kernel)
    # centred sums; the autos are sums of squares, which rounding must not
    # take below zero
    cross = prod - sum_c * sum_d / n
    auto_c = np.maximum(energy - sum_c ** 2 / n, 0.0)
    auto_d = np.maximum(energy_d - sum_d ** 2 / n, 0.0)

    den = np.sqrt(auto_c * auto_d)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(den > 0.0, cross / np.where(den > 0.0, den, 1.0), 0.0)
    r2 = np.clip(r ** 2, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        snr_app = 10.0 * np.log10(np.where(r2 < 1.0, r2 / np.maximum(1.0 - r2, _EPS), np.inf))
    value = _transfer_mean(snr_app, np.sqrt(energy / n))
    if value is None:
        raise DegenerateInputError("clean signal has no band envelope energy")
    return value


def stoi(pair: AlignedPair) -> float:
    """Short-time envelope-correlation intelligibility in [-1, 1].

    Both signals are resampled to 10 kHz and analyzed in 25.6 ms half-
    overlapped Hann frames; frames more than 40 dB below the loudest clean
    frame are removed, one-third-octave band envelopes are formed, and
    384 ms envelope segments of the degraded side are normalized, clipped
    at -15 dB SDR, and correlated against the clean segments.
    """
    _require_envelope_length(pair)
    w = np.hanning(STOI_FRAME)
    fc = dsp.frame(corpus.resample(pair.clean, STOI_RATE), STOI_FRAME, STOI_HOP)
    fd = dsp.frame(corpus.resample(pair.degraded, STOI_RATE), STOI_FRAME, STOI_HOP)
    norms = np.empty(len(fc))
    for block in dsp.row_blocks(len(fc)):
        norms[block] = np.linalg.norm(fc[block] * w, axis=1)
    energies = 20.0 * np.log10(norms + _EPS)
    active = np.flatnonzero(energies > energies.max() - STOI_SILENCE_RANGE_DB)
    if len(active) < STOI_SEGMENT:
        raise DegenerateInputError("fewer than 30 speech-active frames")

    bank = dsp.make_filterbank("third_octave", STOI_RATE, STOI_FFT, STOI_BANDS, STOI_FMIN)
    env_c = _stoi_envelopes(fc, active, w, bank)
    env_d = _stoi_envelopes(fd, active, w, bank)

    seg_c = np.lib.stride_tricks.sliding_window_view(env_c, STOI_SEGMENT, axis=1)
    seg_d = np.lib.stride_tricks.sliding_window_view(env_d, STOI_SEGMENT, axis=1)
    # (bands, segments) with the bands adjacent in memory, the layout numpy
    # gives the segment statistics of these views; it sets np.mean's
    # summation order
    corr = np.empty(seg_c.shape[1::-1]).T
    for block in dsp.row_blocks(seg_c.shape[1]):
        corr[:, block] = _stoi_correlations(seg_c[:, block], seg_d[:, block])
    return float(np.mean(corr))


def _stoi_envelopes(frames: np.ndarray, rows: np.ndarray, window: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    """stoi's (bands, len(rows)) band envelopes of the windowed frame rows,
    the transpose of a (rows, bands) array. The power is transformed
    dsp.BLOCK_FRAMES rows at a time; the band sums are one product over all
    the rows, because a product over fewer rows can take another BLAS
    kernel (OpenBLAS's small-matrix or vector route) and other last bits."""
    power = np.empty((len(rows), STOI_FFT // 2 + 1))
    for block in dsp.row_blocks(len(rows)):
        power[block] = np.abs(np.fft.rfft(frames[rows[block]] * window, STOI_FFT, axis=1)) ** 2
    return np.sqrt(power @ weights.T).T


def _stoi_correlations(seg_c: np.ndarray, seg_d: np.ndarray) -> np.ndarray:
    """stoi's (bands, segments) correlations of the clean envelope segments
    with the normalized, clipped degraded ones; each depends on its own
    segment alone."""
    norm_c = np.linalg.norm(seg_c, axis=2, keepdims=True)
    norm_d = np.linalg.norm(seg_d, axis=2, keepdims=True)
    alpha = norm_c / np.maximum(norm_d, _EPS)
    clip_gain = 10.0 ** (-STOI_CLIP_DB / 20.0)
    y = np.minimum(seg_d * alpha, seg_c * (1.0 + clip_gain))

    xc = seg_c - seg_c.mean(axis=2, keepdims=True)
    yc = y - y.mean(axis=2, keepdims=True)
    denom = np.linalg.norm(xc, axis=2) * np.linalg.norm(yc, axis=2)
    return np.sum(xc * yc, axis=2) / np.maximum(denom, _EPS)


def composite(llr_value: float, wss_value: float, snr_seg_value: float,
              pesq_value: float) -> tuple[float, float, float]:
    """Composite quality predictions (csig, cbak, covl) from the classical
    linear combinations of the component measures."""
    if not -0.5 <= pesq_value <= 4.5:
        raise PreconditionError(f"pesq {pesq_value} outside [-0.5, 4.5]")
    csig = 3.093 - 1.029 * llr_value + 0.603 * pesq_value - 0.009 * wss_value
    cbak = 1.634 + 0.478 * pesq_value - 0.007 * wss_value + 0.063 * snr_seg_value
    covl = 1.594 + 0.805 * pesq_value - 0.512 * llr_value - 0.007 * wss_value
    return (csig, cbak, covl)


_METRIC_OPS = (
    ("stoi", stoi),
    ("snr_seg", snr_seg),
    ("fw_snr_seg", fw_snr_seg),
    ("llr", llr),
    ("wss", wss),
    ("csii", csii),
    ("ncm", ncm),
)

# The metrics that take the pair's analysis (analyze_pair) as their second argument.
_FRAME_METRICS = {"snr_seg", "fw_snr_seg", "llr", "wss", "csii"}

METRIC_NAMES = tuple(name for name, _ in _METRIC_OPS) + ("composite",)

# The metrics.csv columns of the metrics that fill a triple.
_COMPONENTS = {"csii": COLUMNS[5:8], "composite": COLUMNS[10:13]}


def _require_finite(name: str, value) -> None:
    """Raise MetricError naming a computed metric, or the csii or composite
    component, that is NaN or infinite; a csii region of None is legal."""
    if name in _COMPONENTS:
        parts = zip(_COMPONENTS[name], value)
    else:
        parts = ((name, value),)
    for label, v in parts:
        if v is not None and not np.isfinite(v):
            raise MetricError(f"{label}: non-finite value {v}")


def evaluate_pair(pair: AlignedPair, external_pesq: float | None = None,
                  selected: tuple[str, ...] | None = None) -> MetricReport:
    """Run the metric suite over one pair.

    A NaN or infinite sample on either side raises PreconditionError naming
    the side and its first such index. ``selected`` restricts computation to
    a subset of METRIC_NAMES; unselected fields are NaN / None, and a
    selected one that comes out NaN or infinite raises MetricError naming
    it. Selecting composite also selects the llr, wss and snr_seg it is
    built from. The composite triple is present iff an external pesq score
    is supplied (and composite is selected).
    """
    chosen = set(METRIC_NAMES if selected is None else selected)
    unknown = chosen - set(METRIC_NAMES)
    if unknown:
        raise ValueError(f"unknown metric(s): {sorted(unknown)}")
    for side in ("clean", "degraded"):
        bad = ~np.isfinite(getattr(pair, side).samples)
        if bad.any():
            raise PreconditionError(f"{side} sample {int(np.argmax(bad))} is not finite")
    if "composite" in chosen:
        chosen |= {"llr", "wss", "snr_seg"}
    values: dict[str, object] = {}
    analysis = None  # the pair's analysis, built by the first selected frame metric
    for name, op in _METRIC_OPS:
        if name not in chosen:
            values[name] = (None, None, None) if name == "csii" else float("nan")
            continue
        try:
            if name in _FRAME_METRICS:
                analysis = analysis or analyze_pair(pair)
                values[name] = op(pair, analysis)
            else:
                analysis = None  # freed before ncm, so that its memory and ncm's do not add up
                values[name] = op(pair)
        except Exception as exc:
            raise MetricError(f"{name}: {exc}") from exc
        _require_finite(name, values[name])
    report = MetricReport(**values, pesq=external_pesq)
    if external_pesq is not None and "composite" in chosen:
        try:
            triple = composite(report.llr, report.wss, report.snr_seg, external_pesq)
        except Exception as exc:
            raise MetricError(f"composite: {exc}") from exc
        _require_finite("composite", triple)
        report = report._replace(composite=triple)
    return report
