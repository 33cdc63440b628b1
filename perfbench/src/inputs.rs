//! Seeded input generation (through `fxrz-datagen`) and model training.
//! Everything here is untimed preparation.

use fxrz_compressors::Compressor;
use fxrz_core::train::{TrainedModel, Trainer};
use fxrz_datagen::hurricane::{self, HurricaneConfig};
use fxrz_datagen::nyx::{self, NyxConfig};
use fxrz_datagen::qmcpack::{self, QmcPackConfig};
use fxrz_datagen::rtm::{self, RtmConfig};
use fxrz_datagen::{Dims, Field};

/// Seed of the training inputs. Models stand for deployed models trained
/// once per application; the workload seed varies the data they compress,
/// not the model, so a run's figures do not hinge on one training draw.
pub const TRAIN_SEED: u64 = 0x00F0_2A1C_DE23;

/// Mixes the workload seed with a per-purpose salt so inputs that play
/// different roles (training vs. test, one app vs. another) never share
/// a random stream.
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Nyx baryon-density timesteps `t0..t0 + n` of one seeded simulation.
pub fn nyx_series(seed: u64, dims: Dims, t0: u32, n: u32) -> Vec<Field> {
    (t0..t0 + n)
        .map(|t| {
            let cfg = NyxConfig::default().with_seed(seed).with_timestep(t);
            nyx::baryon_density(dims, cfg).with_name(format!("nyx.baryon_density.t{t}"))
        })
        .collect()
}

/// Consecutive RTM wavefield snapshots `first, first + stride, …`.
pub fn rtm_series(seed: u64, dims: Dims, first: u32, stride: u32, n: u32) -> Vec<Field> {
    let steps: Vec<u32> = (0..n).map(|i| first + i * stride).collect();
    rtm::snapshots(dims, RtmConfig::default().with_seed(seed), &steps)
}

/// One field of each served application at timestep/variant `t`:
/// Hurricane QCLOUD and TC, RTM, QMCPACK and Nyx, each of `points`
/// values (a cube of side `side`; QMCPACK as 8 orbitals).
pub fn mixed_apps(seed: u64, side: usize, t: u32) -> Vec<Field> {
    let cube = Dims::d3(side, side, side);
    let orbitals = Dims::d4(8, side / 2, side / 2, side / 2);
    let hc = HurricaneConfig::default()
        .with_seed(derive(seed, 11))
        .with_timestep(1 + 6 * t);
    vec![
        hurricane::qcloud(cube, hc).with_name(format!("hurricane.qcloud.t{t}")),
        hurricane::tc(cube, hc).with_name(format!("hurricane.tc.t{t}")),
        rtm_series(derive(seed, 12), cube, 24 + 6 * t, 1, 1)
            .remove(0)
            .with_name(format!("rtm.t{t}")),
        qmcpack::orbitals(
            orbitals,
            QmcPackConfig::default().with_seed(derive(seed, 13 + u64::from(t))),
        )
        .with_name(format!("qmcpack.v{t}")),
        nyx_series(derive(seed, 14), cube, t, 1).remove(0),
    ]
}

/// Trains a model for `compressor` with the production trainer defaults.
pub fn train(compressor: &dyn Compressor, fields: &[Field]) -> Result<TrainedModel, String> {
    Trainer::new()
        .train(compressor, fields)
        .map_err(|e| format!("training {} failed: {e}", compressor.name()))
}

/// The model's JSON form, as a user would store it.
pub fn model_json(model: &TrainedModel) -> Result<String, String> {
    serde_json::to_string(model).map_err(|e| format!("model serialization failed: {e}"))
}

/// A small seeded generator for workload choices (splitmix64).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        derive(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = mixed_apps(5, 8, 1);
        let b = mixed_apps(5, 8, 1);
        let c = mixed_apps(6, 8, 1);
        assert_eq!(a.len(), 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.data(), y.data());
            assert_eq!(x.len(), 512);
        }
        assert!(a.iter().zip(&c).any(|(x, y)| x.data() != y.data()));
        let mut r = Rng::new(1);
        assert!(r.unit() < 1.0 && r.below(3) < 3);
    }
}
