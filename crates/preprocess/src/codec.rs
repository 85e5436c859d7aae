//! The synthetic image codec — real CPU work standing in for JPEG.
//!
//! §2.3: "a typical training sample could include a 256-word text sequence
//! and ten 1024×1024 RGB images ... Preprocessing (e.g., decompression,
//! resizing, and reordering) such samples can take several seconds." We
//! cannot ship LAION's JPEGs, so the codec here generates deterministic
//! pseudo-image bytes and performs the same *classes* of work at the same
//! asymptotic costs: decompression is O(pixels) byte-level expansion,
//! resizing is an O(pixels) box filter, patchifying is an O(pixels)
//! tile gather. Wall-clock per image lands in the tens of milliseconds at
//! 1024², so a 10-image sample costs real fractions of a second on one
//! worker — the regime Figure 17 measures.
//!
//! ## Bands
//!
//! The unit of work is the **band**: whole patch rows of one image whose
//! raw (decompressed) rows total about [`BAND_RAW_BYTES`]. An image small
//! enough is one band; a 2048² image at patch 8 is 86. The box filter
//! only downsizes, so the last raw row output row `y − 1` reads ends
//! where output row `y`'s first begins: consecutive bands read disjoint
//! raw rows and a band never touches another band's input.
//!
//! ## The carry chain
//!
//! Decompression threads one running byte through the whole image,
//! `acc' = rotl(acc, 3) ^ v`, starting at `0x5a`. That step is linear over
//! XOR, and `rotl 3` has period 8 on a byte, so a band decodes its raw rows
//! from `acc = 0` — every mixing round still runs per byte, in parallel
//! with the other bands — and then folds in the true entering byte `a`
//! exactly: `raw[k] ^= rotl(a, 3(k + 1) mod 8)`. The settled band's last
//! byte is the one leaving it, handed on before the band resizes, so a
//! band waits on its predecessor for one XOR pass, not for its resize.
//!
//! ## Fused resize and gather
//!
//! A settled band box-filters its rows straight into its patch-major
//! token bytes. A band's patch rows are contiguous in that layout, so its
//! output is one range: [`preprocess_sample`] runs the bands in order on
//! one thread into one exactly-sized buffer per sample, and the plane's
//! decode pool gives each band an exactly-sized piece of its own that goes
//! on the wire as one chunk of the batch payload. Per image the codec
//! holds the compressed payload (a tenth of the raw bytes) and the token
//! bytes (0.64 × the raw bytes), plus one band's raw rows per thread at
//! work — for a 2048² image, 2 MB + 12.6 MB instead of the whole 19.7 MB
//! raw capture and two more copies of its resized form.

use dt_data::TrainSample;

/// Raw-capture resolution multiplier: images arrive from storage larger
/// than the training resolution and are resized down (emulating the decode
/// → resize pipeline).
pub const RAW_SCALE_NUM: u32 = 5;
/// Denominator of the raw-capture multiplier (raw = res × 5/4).
pub const RAW_SCALE_DEN: u32 = 4;

/// A "compressed" synthetic image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompressedImage {
    /// Raw (on-disk) square edge, pixels.
    pub raw_res: u32,
    /// Compressed payload (deterministic from the seed).
    pub payload: Vec<u8>,
}

/// Deterministically synthesize the compressed form of one image at
/// *training* resolution `res` (raw capture is 5/4 larger per side).
pub fn synth_compressed(res: u32, seed: u64) -> CompressedImage {
    let raw_res = res * RAW_SCALE_NUM / RAW_SCALE_DEN;
    // ~10:1 "JPEG" ratio over the raw RGB size.
    let len = (3 * raw_res as usize * raw_res as usize) / 10;
    let mut payload = Vec::with_capacity(len);
    // Mix the seed first: adjacent seeds must produce unrelated payloads
    // (`seed | 1` alone would alias 42 and 43).
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for _ in 0..len {
        // xorshift64*: cheap, deterministic, fills the buffer with entropy.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        payload.push((state >> 56) as u8);
    }
    CompressedImage { raw_res, payload }
}

/// Per-byte mixing rounds of the synthetic decoder — calibrated so the
/// decode throughput lands in the 30–60 MB/s/core range of a real
/// high-quality JPEG decode (entropy decoding + IDCT are far more than
/// one instruction per output byte).
const DECODE_ROUNDS: u32 = 16;

/// The running byte every image's decompression starts from.
const FIRST_CARRY: u8 = 0x5a;

/// Raw bytes one band aims for: whole patch rows of about this many
/// decompressed bytes (at least one patch row). Small enough that a
/// 2048² image deals out across every decode thread, large enough that
/// the per-band hand-off is noise next to the band's decode.
pub const BAND_RAW_BYTES: usize = 256 * 1024;

/// The raw rows (or columns) that output row (or column) `i` of a
/// `from → to` box filter averages, half-open. Downsizing makes the span
/// of `i + 1` start where the span of `i` ends.
fn source_span(i: usize, from: usize, to: usize) -> (usize, usize) {
    let lo = i * from / to;
    (lo, ((i + 1) * from / to).max(lo + 1))
}

/// One image of a sample: its compressed payload and its band geometry.
#[derive(Debug)]
pub(crate) struct Image {
    compressed: CompressedImage,
    /// Training-resolution edge, pixels.
    res: usize,
    patch: usize,
    /// Patch rows per band (the last band may hold fewer).
    band_rows: usize,
}

impl Image {
    /// Synthesize image `index` of `sample` (deterministic in the sample
    /// id and the index) and cut it into bands of about
    /// [`BAND_RAW_BYTES`].
    pub(crate) fn new(sample: &TrainSample, index: usize) -> Image {
        let res = sample.image_resolutions[index];
        let compressed = synth_compressed(res, sample.id.wrapping_mul(1315423911) ^ index as u64);
        Image::with_band_budget(compressed, res, sample.patch, BAND_RAW_BYTES)
    }

    fn with_band_budget(compressed: CompressedImage, res: u32, patch: u32, budget: usize) -> Image {
        assert!(
            patch > 0 && res.is_multiple_of(patch),
            "resolution {res} is not patch-aligned ({patch})"
        );
        let raw = compressed.raw_res as usize;
        let (res, patch) = (res as usize, patch as usize);
        let band_rows = (budget * (res / patch) / (3 * raw * raw).max(1)).max(1);
        Image { compressed, res, patch, band_rows }
    }

    /// Token bytes of the whole image: `3 · res²`, patch-major.
    pub(crate) fn token_len(&self) -> usize {
        3 * self.res * self.res
    }

    /// Number of bands.
    pub(crate) fn bands(&self) -> usize {
        (self.res / self.patch).div_ceil(self.band_rows)
    }

    /// Patch rows of band `b`.
    fn patch_rows(&self, b: usize) -> std::ops::Range<usize> {
        b * self.band_rows..((b + 1) * self.band_rows).min(self.res / self.patch)
    }

    /// Token bytes of band `b`: its patch rows at full width.
    pub(crate) fn band_len(&self, b: usize) -> usize {
        3 * self.patch_rows(b).len() * self.patch * self.res
    }

    /// Raw rows band `b` box-filters.
    fn raw_rows(&self, b: usize) -> std::ops::Range<usize> {
        let (raw, rows) = (self.compressed.raw_res as usize, self.patch_rows(b));
        let first = source_span(rows.start * self.patch, raw, self.res).0;
        let last = source_span(rows.end * self.patch - 1, raw, self.res).1;
        first..last
    }

    /// Decode band `b` into `out`, its slice of the image's token bytes.
    /// `enter` yields the running byte entering the band (never called
    /// for band 0, which enters with `0x5a`); `None` means the
    /// predecessor failed, and the band gives up with `None`. `leave`
    /// receives the byte leaving the band as soon as it is known, before
    /// the resize.
    pub(crate) fn decode_band(
        &self,
        b: usize,
        enter: impl FnOnce() -> Option<u8>,
        leave: impl FnOnce(u8),
        out: &mut [u8],
    ) -> Option<()> {
        let mut raw = self.decompress_band(b);
        let carry = if b == 0 { FIRST_CARRY } else { enter()? };
        leave(self.settle(&mut raw, carry));
        self.resize_band(b, &raw, out);
        Some(())
    }

    /// Decompress band `b`'s raw rows as if the running byte entered the
    /// band as 0. Byte `i` of the image mixes payload byte `i mod len`
    /// through [`DECODE_ROUNDS`] rounds and its own index.
    fn decompress_band(&self, b: usize) -> Vec<u8> {
        let row = 3 * self.compressed.raw_res as usize;
        let rows = self.raw_rows(b);
        let mut out = vec![0u8; row * rows.len()];
        let p = &self.compressed.payload;
        if p.is_empty() {
            return out;
        }
        let start = row * rows.start;
        let mut j = start % p.len();
        let mut acc = 0u8;
        for (i, o) in (start..).zip(out.iter_mut()) {
            let mut v = p[j];
            for r in 0..DECODE_ROUNDS {
                v = v.rotate_left(1).wrapping_mul(167).wrapping_add(r as u8);
            }
            acc = acc.rotate_left(3) ^ v.wrapping_add(i as u8);
            *o = acc;
            j += 1;
            if j == p.len() {
                j = 0;
            }
        }
        out
    }

    /// Fold the running byte that really entered the band into its
    /// zero-carry decode, `raw[k] ^= rotl(carry, 3(k + 1))`, and return
    /// the byte leaving the band. An empty payload decodes to zeros with
    /// no running byte at all.
    fn settle(&self, raw: &mut [u8], carry: u8) -> u8 {
        if self.compressed.payload.is_empty() {
            return carry;
        }
        let mask: [u8; 8] = std::array::from_fn(|k| carry.rotate_left(3 * (k as u32 + 1)));
        for chunk in raw.chunks_mut(8) {
            for (o, m) in chunk.iter_mut().zip(mask) {
                *o ^= m;
            }
        }
        raw.last().copied().unwrap_or(carry)
    }

    /// Box-filter band `b`'s settled raw rows down to training resolution
    /// and write each pixel straight to its patch-major place in `out`.
    fn resize_band(&self, b: usize, raw: &[u8], out: &mut [u8]) {
        let (from, to, patch) = (self.compressed.raw_res as usize, self.res, self.patch);
        let rows = self.patch_rows(b);
        let base = self.raw_rows(b).start;
        let cols: Vec<(usize, usize)> = (0..to).map(|x| source_span(x, from, to)).collect();
        let tile = 3 * patch * patch;
        for y in rows.start * patch..rows.end * patch {
            let (y0, y1) = source_span(y, from, to);
            let src = &raw[3 * from * (y0 - base)..3 * from * (y1 - base)];
            let line = (y / patch - rows.start) * (to / patch) * tile + (y % patch) * 3 * patch;
            for (x, &(x0, x1)) in cols.iter().enumerate() {
                let dst = line + (x / patch) * tile + (x % patch) * 3;
                let count = ((y1 - y0) * (x1 - x0)) as u32;
                for c in 0..3 {
                    let mut sum = 0u32;
                    for src_row in src.chunks_exact(3 * from) {
                        for xx in x0..x1 {
                            sum += src_row[3 * xx + c] as u32;
                        }
                    }
                    out[dst + c] = (sum / count) as u8;
                }
            }
        }
    }
}

/// Decode every band of `image` in order on this thread into `out`.
fn decode_image(image: &Image, out: &mut [u8]) {
    let (mut carry, mut offset) = (None, 0);
    for b in 0..image.bands() {
        let len = image.band_len(b);
        let entering = carry;
        // The entering byte is always known here, so the band decodes.
        image.decode_band(
            b,
            || entering,
            |leaving| carry = Some(leaving),
            &mut out[offset..offset + len],
        );
        offset += len;
    }
}

/// Token bytes of a sample: `3 · res²` per image.
pub(crate) fn token_len(sample: &TrainSample) -> usize {
    sample.image_resolutions.iter().map(|&r| 3 * r as usize * r as usize).sum()
}

/// The output of preprocessing one sample: patchified token bytes per
/// image, ready for the encoder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreprocessedSample {
    /// The sample's id.
    pub sample_id: u64,
    /// Concatenated patch-major bytes of every image.
    pub token_bytes: Vec<u8>,
}

/// Full per-sample pipeline: synth → decompress → resize → patchify, for
/// every image in the sample, band by band on this thread, into one
/// exactly-sized buffer. Deterministic in `(sample.id, image index)`.
pub fn preprocess_sample(sample: &TrainSample) -> PreprocessedSample {
    let mut token_bytes = vec![0u8; token_len(sample)];
    let mut offset = 0;
    for index in 0..sample.image_resolutions.len() {
        let image = Image::new(sample, index);
        let len = image.token_len();
        decode_image(&image, &mut token_bytes[offset..offset + len]);
        offset += len;
    }
    PreprocessedSample { sample_id: sample.id, token_bytes }
}

/// The whole-image pipeline the banded codec replaced, kept as the oracle
/// its output is pinned to: decompress the full raw capture, resize it,
/// then patchify the resized copy.
#[cfg(test)]
mod reference {
    use super::*;

    /// "Decompress" to an RGB buffer of `3 × raw_res²` bytes.
    pub fn decompress(img: &CompressedImage) -> Vec<u8> {
        let n = 3 * img.raw_res as usize * img.raw_res as usize;
        let mut out = vec![0u8; n];
        let p = &img.payload;
        if p.is_empty() {
            return out;
        }
        let mut acc: u8 = 0x5a;
        for (i, o) in out.iter_mut().enumerate() {
            let mut b = p[i % p.len()];
            for r in 0..DECODE_ROUNDS {
                b = b.rotate_left(1).wrapping_mul(167).wrapping_add(r as u8);
            }
            acc = acc.rotate_left(3) ^ b.wrapping_add(i as u8);
            *o = acc;
        }
        out
    }

    /// Box-filter resize of a square RGB image from `from` to `to` pixels
    /// per side (downscale; `to <= from`).
    pub fn resize(rgb: &[u8], from: u32, to: u32) -> Vec<u8> {
        assert_eq!(rgb.len(), 3 * from as usize * from as usize, "input is not 3·from²");
        assert!(to <= from, "codec only downsizes ({from} → {to})");
        if to == from {
            return rgb.to_vec();
        }
        let (from, to) = (from as usize, to as usize);
        let mut out = vec![0u8; 3 * to * to];
        for y in 0..to {
            let y0 = y * from / to;
            let y1 = ((y + 1) * from / to).max(y0 + 1);
            for x in 0..to {
                let x0 = x * from / to;
                let x1 = ((x + 1) * from / to).max(x0 + 1);
                for c in 0..3 {
                    let mut sum = 0u32;
                    for yy in y0..y1 {
                        for xx in x0..x1 {
                            sum += rgb[3 * (yy * from + xx) + c] as u32;
                        }
                    }
                    let count = ((y1 - y0) * (x1 - x0)) as u32;
                    out[3 * (y * to + x) + c] = (sum / count) as u8;
                }
            }
        }
        out
    }

    /// Gather a square RGB image into patch-major order (`patch × patch`
    /// tiles row-major, channels interleaved).
    pub fn patchify(rgb: &[u8], res: u32, patch: u32) -> Vec<u8> {
        assert_eq!(rgb.len(), 3 * res as usize * res as usize, "input is not 3·res²");
        assert_eq!(res % patch, 0, "resolution must be patch-aligned");
        let (res, patch) = (res as usize, patch as usize);
        let per_side = res / patch;
        let mut out = Vec::with_capacity(rgb.len());
        for py in 0..per_side {
            for px in 0..per_side {
                for y in 0..patch {
                    let row = (py * patch + y) * res + px * patch;
                    out.extend_from_slice(&rgb[3 * row..3 * (row + patch)]);
                }
            }
        }
        out
    }

    /// One image's token bytes, whole-image style.
    pub fn image_tokens(img: &CompressedImage, res: u32, patch: u32) -> Vec<u8> {
        patchify(&resize(&decompress(img), img.raw_res, res), res, patch)
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{decompress, image_tokens, patchify, resize};
    use super::*;
    use dt_data::{DataConfig, SyntheticLaion};

    fn sample(id: u64, image_resolutions: Vec<u32>, patch: u32) -> TrainSample {
        TrainSample {
            id,
            text_subseqs: vec![],
            image_resolutions,
            gen_targets: vec![],
            gen_resolution: 0,
            raw_image_bytes: 0,
            patch,
        }
    }

    /// 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    #[test]
    fn decompress_produces_full_rgb_buffer() {
        let img = synth_compressed(64, 7);
        assert_eq!(img.raw_res, 80);
        let rgb = decompress(&img);
        assert_eq!(rgb.len(), 3 * 80 * 80);
        // Entropy check: a real decode does not emit constant bytes.
        let distinct: std::collections::BTreeSet<u8> = rgb.iter().copied().collect();
        assert!(distinct.len() > 64);
    }

    #[test]
    fn codec_is_deterministic() {
        let a = decompress(&synth_compressed(64, 42));
        let b = decompress(&synth_compressed(64, 42));
        assert_eq!(a, b);
        assert_ne!(a, decompress(&synth_compressed(64, 43)));
    }

    #[test]
    fn resize_preserves_means_approximately() {
        let img = synth_compressed(64, 3);
        let rgb = decompress(&img);
        let small = resize(&rgb, 80, 64);
        assert_eq!(small.len(), 3 * 64 * 64);
        let mean = |v: &[u8]| v.iter().map(|&b| b as f64).sum::<f64>() / v.len() as f64;
        assert!((mean(&rgb) - mean(&small)).abs() < 8.0, "box filter should preserve brightness");
    }

    #[test]
    fn resize_identity_when_same_size() {
        let rgb = decompress(&synth_compressed(64, 1));
        // raw_res = 80; same-size resize is a copy.
        assert_eq!(resize(&rgb, 80, 80), rgb);
    }

    #[test]
    fn patchify_is_a_permutation() {
        let rgb = decompress(&synth_compressed(64, 9));
        let resized = resize(&rgb, 80, 64);
        let patched = patchify(&resized, 64, 16);
        assert_eq!(patched.len(), resized.len());
        let mut a = resized.clone();
        let mut b = patched.clone();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn patchify_tiles_are_contiguous() {
        // 2×2 image with 1×1 patches in 3 channels: patch order == pixel
        // order for this degenerate case.
        let rgb: Vec<u8> = (0..12).collect();
        assert_eq!(patchify(&rgb, 2, 1), rgb);
    }

    #[test]
    fn banded_decode_matches_the_whole_image_reference() {
        // (res, patch, bands): 1 to 5 bands, with and without a short last
        // band, including the 1-pixel edge case whose payload is empty.
        let cases = [
            (64, 16, 1),
            (64, 8, 2),
            (96, 16, 3),
            (96, 8, 4),
            (80, 16, 5),
            (120, 8, 4),
            (56, 4, 5),
            (1, 1, 1),
        ];
        for (seed, &(res, patch, bands)) in cases.iter().enumerate() {
            let compressed = synth_compressed(res, seed as u64);
            let expected = image_tokens(&compressed, res, patch);
            let patch_rows = (res / patch) as usize;
            let raw = 3 * (compressed.raw_res as usize).pow(2);
            // The budget that gives `bands` bands of ceil(rows / bands).
            let band_rows = patch_rows.div_ceil(bands);
            let budget = (band_rows * raw).div_ceil(patch_rows);
            let image = Image::with_band_budget(compressed, res, patch, budget);
            assert_eq!(image.bands(), bands, "res {res} patch {patch}");
            let lens: Vec<usize> = (0..bands).map(|b| image.band_len(b)).collect();
            assert_eq!(lens.iter().sum::<usize>(), image.token_len());
            let mut out = vec![0u8; image.token_len()];
            decode_image(&image, &mut out);
            assert!(
                out == expected,
                "res {res} patch {patch} bands {lens:?} differ from the reference"
            );
        }
    }

    #[test]
    fn consecutive_bands_read_disjoint_raw_rows() {
        let image = Image::with_band_budget(synth_compressed(120, 5), 120, 8, 3000);
        assert!(image.bands() > 5);
        let rows: Vec<_> = (0..image.bands()).map(|b| image.raw_rows(b)).collect();
        assert_eq!(rows[0].start, 0);
        assert_eq!(rows.last().unwrap().end, 150);
        assert!(rows.windows(2).all(|w| w[0].end == w[1].start), "{rows:?}");
    }

    #[test]
    fn multi_image_samples_match_the_reference() {
        // 384² at patch 16 is 3 bands of the real budget (9, 9 and 6 patch
        // rows); the small images are one band each.
        for s in
            [sample(3, vec![64, 384, 32], 16), sample(4, vec![48, 48], 8), sample(5, vec![], 16)]
        {
            let mut expected = Vec::new();
            for (i, &res) in s.image_resolutions.iter().enumerate() {
                let img = synth_compressed(res, s.id.wrapping_mul(1315423911) ^ i as u64);
                expected.extend(image_tokens(&img, res, s.patch));
            }
            let out = preprocess_sample(&s);
            assert_eq!(out.token_bytes.capacity(), token_len(&s), "buffer is exactly sized");
            assert!(out.token_bytes == expected, "sample {} differs from the reference", s.id);
        }
        let s = sample(3, vec![64, 384, 32], 16);
        let bands: Vec<usize> = (0..3).map(|i| Image::new(&s, i).bands()).collect();
        assert_eq!(bands, [1, 3, 1]);
    }

    #[test]
    fn giant_image_tokens_are_pinned() {
        // 65,536 tokens of one 2048² image at patch 8, 86 bands. The hash
        // was taken with the whole-image pipeline, before the codec was
        // banded.
        let s = sample(7, vec![2048], 8);
        assert_eq!(Image::new(&s, 0).bands(), 86);
        let out = preprocess_sample(&s);
        assert_eq!(out.token_bytes.len(), 12_582_912);
        assert_eq!(fnv1a(&out.token_bytes), 0x9761_64e0_c1da_4838);
    }

    #[test]
    fn sample_pipeline_emits_token_bytes_for_every_image() {
        let mut gen = SyntheticLaion::new(DataConfig::evaluation(512), 11);
        // Shrink resolutions for test speed while keeping the structure.
        let mut sample = gen.sample();
        for r in &mut sample.image_resolutions {
            *r = 64;
        }
        let out = preprocess_sample(&sample);
        let expected: usize = sample.image_resolutions.iter().map(|_| 3 * 64 * 64).sum();
        assert_eq!(out.token_bytes.len(), expected);
        assert_eq!(out.sample_id, sample.id);
    }
}
