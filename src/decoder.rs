//! The H.264 case-study decoder as an [`appgen::oracle::Target`], so the
//! `analyze` gates run the same oracles the fuzz farm runs over
//! generated apps.

use std::collections::BTreeMap;

use h264_pipeline::{attach_env, build_decoder_with_caps, decoder_sources, Bug};
use p2012::PlatformConfig;

/// Environment seed of the decoder's bitstream source.
pub const ENV_SEED: u32 = 0xbeef;

/// One seeded-bug variant decoding `n_mbs` macroblocks.
pub struct Decoder {
    pub bug: Bug,
    pub n_mbs: u64,
}

impl appgen::oracle::Target for Decoder {
    fn build(
        &self,
        caps: &BTreeMap<String, u32>,
    ) -> Result<(pedf::System, mind::CompiledApp), String> {
        build_decoder_with_caps(self.bug, self.n_mbs, PlatformConfig::default(), caps)
            .map_err(|e| e.to_string())
    }

    fn sources(&self) -> mind::SourceRegistry {
        decoder_sources(self.bug)
    }

    fn attach_env(&self, sys: &mut pedf::System, app: &mind::CompiledApp) -> Result<(), String> {
        attach_env(sys, app, self.n_mbs, ENV_SEED)
    }
}
