//! SZ stage replay.
//!
//! The SZ codec's stage inputs (the quantization code stream and the
//! pre-LZ77 payload) are private to the compressor. They are recovered
//! from a produced stream through the public decoders — the slab
//! directory, `header::read`, `lz77::decompress` and
//! `entropy::decode_codes` — and the entropy and LZ77 encoders are then
//! replayed on exactly those inputs. Each replay must reproduce the
//! stream's own bytes, so the timed work is the work the codec did.

use crate::report::Metrics;
use crate::stats::{mean, median, sum};
use crate::trace::Tracer;
use fxrz_codec::bitstream::read_varint;
use fxrz_codec::lz77;
use fxrz_compressors::entropy::{self, EntropyMode, TAG_FSE};
use fxrz_compressors::header::{self, magic};
use fxrz_compressors::slab;
use std::time::Instant;

/// Stage timings and counts recovered from one SZ-family stream (summed
/// over its slabs).
#[derive(Clone, Copy, Debug, Default)]
pub struct SzStages {
    /// Slabs in the stream (1 for a monolithic stream).
    pub slabs: usize,
    /// `entropy::encode_codes` replay time, seconds.
    pub entropy_encode_s: f64,
    /// `entropy::decode_codes` time, seconds.
    pub entropy_decode_s: f64,
    /// `lz77::compress_with` replay time, seconds.
    pub lz77_compress_s: f64,
    /// `lz77::decompress` time, seconds.
    pub lz77_decompress_s: f64,
    /// Bytes entering the LZ77 stage.
    pub lz77_in: u64,
    /// Bytes leaving the LZ77 stage.
    pub lz77_out: u64,
    /// Entropy blocks coded with FSE.
    pub fse_blocks: u64,
    /// Entropy blocks coded with Huffman.
    pub huffman_blocks: u64,
}

impl SzStages {
    /// Adds another stream's stages.
    pub fn add(&mut self, o: &SzStages) {
        self.slabs += o.slabs;
        self.entropy_encode_s += o.entropy_encode_s;
        self.entropy_decode_s += o.entropy_decode_s;
        self.lz77_compress_s += o.lz77_compress_s;
        self.lz77_decompress_s += o.lz77_decompress_s;
        self.lz77_in += o.lz77_in;
        self.lz77_out += o.lz77_out;
        self.fse_blocks += o.fse_blocks;
        self.huffman_blocks += o.huffman_blocks;
    }
}

fn timed<R>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    tr.span(name, |_| {
        let t = Instant::now();
        let r = f();
        (r, t.elapsed().as_secs_f64())
    })
}

/// Replays the entropy and LZ77 stages of an SZ-family stream (`sz` or
/// `sz-fse`; `mode` is the row's entropy mode). Fails when the stream
/// does not parse or a replay does not reproduce the stream's bytes.
pub fn replay_sz(stream: &[u8], mode: EntropyMode, tr: &mut Tracer) -> Result<SzStages, String> {
    let parts: Vec<&[u8]> = match slab::table(stream, magic::SZ, "sz").map_err(|e| e.to_string())? {
        Some((_, _, entries)) => entries
            .iter()
            .map(|e| &stream[e.offset..e.offset + e.comp_len])
            .collect(),
        None => vec![stream],
    };
    let mut out = SzStages::default();
    for part in parts {
        out.add(&replay_mono(part, mode, tr)?);
    }
    Ok(out)
}

fn replay_mono(stream: &[u8], mode: EntropyMode, tr: &mut Tracer) -> Result<SzStages, String> {
    let (_, dims, off) = header::read(stream, magic::SZ, "sz").map_err(|e| e.to_string())?;
    let section = &stream[off..];
    let (payload, lz77_decompress_s) =
        timed(tr, "codec.lz77.decompress", || lz77::decompress(section));
    let payload = payload.map_err(|e| e.to_string())?;
    if payload.len() < 8 {
        return Err("sz payload shorter than its error bound".to_owned());
    }
    let mut pos = 8usize;
    let (codes, entropy_decode_s) = timed(tr, "compressors.entropy.decode", || {
        entropy::decode_codes(&payload, &mut pos, dims.len())
    });
    let codes = codes.map_err(|e| e.to_string())?;
    let (fse_blocks, huffman_blocks) = block_tags(&payload[8..pos])?;

    let (replayed, entropy_encode_s, lz, lz77_compress_s) = fxrz_codec::with_scratch(|scratch| {
        let mut section_out = Vec::with_capacity(pos);
        let (_, te) = timed(tr, "compressors.entropy.encode", || {
            entropy::encode_codes(scratch, &codes, mode, &mut section_out)
        });
        let (lz, tl) = timed(tr, "codec.lz77.compress", || {
            lz77::compress_with(scratch, &payload)
        });
        (section_out, te, lz, tl)
    });
    if replayed != payload[8..pos] {
        return Err("entropy replay differs from the stream's entropy section".to_owned());
    }
    if lz != section {
        return Err("lz77 replay differs from the stream's lz77 section".to_owned());
    }
    Ok(SzStages {
        slabs: 1,
        entropy_encode_s,
        entropy_decode_s,
        lz77_compress_s,
        lz77_decompress_s,
        lz77_in: payload.len() as u64,
        lz77_out: section.len() as u64,
        fse_blocks,
        huffman_blocks,
    })
}

/// Counts FSE and Huffman blocks in an entropy section: the v2 container
/// (`0 | total | n_blocks | {tag | len | stream}…`) or a legacy single
/// Huffman stream.
fn block_tags(section: &[u8]) -> Result<(u64, u64), String> {
    let bad = || "malformed entropy section".to_owned();
    let mut pos = 0usize;
    if read_varint(section, &mut pos).ok_or_else(bad)? != 0 {
        return Ok((0, 1));
    }
    let _total = read_varint(section, &mut pos).ok_or_else(bad)?;
    let blocks = read_varint(section, &mut pos).ok_or_else(bad)?;
    let (mut fse, mut huffman) = (0, 0);
    for _ in 0..blocks {
        let tag = *section.get(pos).ok_or_else(bad)?;
        pos += 1;
        let len = read_varint(section, &mut pos).ok_or_else(bad)? as usize;
        pos = pos
            .checked_add(len)
            .filter(|&p| p <= section.len())
            .ok_or_else(bad)?;
        if tag == TAG_FSE {
            fse += 1;
        } else {
            huffman += 1;
        }
    }
    Ok((fse, huffman))
}

/// Entropy, LZ77 and slab metrics from per-stream stage replays.
pub fn stage_metrics(stages: &[SzStages], m: &mut Metrics) {
    let per = |f: &dyn Fn(&SzStages) -> f64| stages.iter().map(f).collect::<Vec<f64>>();
    m.put(
        "compressors.entropy.encode_ms",
        median(&per(&|s| s.entropy_encode_s)) * 1e3,
        "ms",
    );
    m.put(
        "compressors.entropy.decode_ms",
        median(&per(&|s| s.entropy_decode_s)) * 1e3,
        "ms",
    );
    m.put(
        "compressors.entropy.fse_blocks",
        mean(&per(&|s| s.fse_blocks as f64)),
        "count",
    );
    m.put(
        "compressors.entropy.huffman_blocks",
        mean(&per(&|s| s.huffman_blocks as f64)),
        "count",
    );
    m.put(
        "compressors.slab.count",
        mean(&per(&|s| s.slabs as f64)),
        "count",
    );
    m.put(
        "codec.lz77.compress_ms",
        median(&per(&|s| s.lz77_compress_s)) * 1e3,
        "ms",
    );
    m.put(
        "codec.lz77.decompress_ms",
        median(&per(&|s| s.lz77_decompress_s)) * 1e3,
        "ms",
    );
    m.put(
        "codec.lz77.gain",
        sum(&per(&|s| s.lz77_in as f64)) / sum(&per(&|s| s.lz77_out as f64)),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use fxrz_compressors::{sz::Sz, Compressor, ErrorConfig};
    use fxrz_datagen::{Dims, Field};

    #[test]
    fn replay_reproduces_sz_streams() {
        let field = Field::from_fn("f", Dims::d3(24, 24, 24), |c| {
            ((c[0] as f32) * 0.3).sin() + (c[1] + c[2]) as f32 * 0.01
        });
        let bytes = Sz.compress(&field, &ErrorConfig::Abs(1e-3)).unwrap();
        let mut tr = Tracer::new(true);
        let st = replay_sz(&bytes, EntropyMode::Auto, &mut tr).unwrap();
        assert_eq!(st.slabs, 1);
        assert_eq!(st.fse_blocks + st.huffman_blocks, 1);
        // header: magic, name length, name, ndim, three axis lengths
        assert_eq!(st.lz77_out as usize, bytes.len() - 7);
        assert!(tr.spans().len() >= 4);
    }
}
