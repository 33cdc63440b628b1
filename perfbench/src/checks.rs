//! Correctness checks applied to every operation the benchmark times.

use fxrz_compressors::ErrorConfig;
use fxrz_datagen::{Dims, Field};

/// Checks that `recon` honours the row's error control against `orig`:
/// the absolute bound for `Abs` rows, truncation to `p` significant bits
/// of the order-preserving integer map for `Precision` (fpzip) rows.
pub fn error_control(orig: &Field, recon: &Field, cfg: &ErrorConfig) -> Result<(), String> {
    if orig.dims() != recon.dims() {
        return Err(format!(
            "reconstruction has dims {:?}, input {:?}",
            recon.dims(),
            orig.dims()
        ));
    }
    match *cfg {
        ErrorConfig::Abs(eb) => {
            let worst = orig.max_abs_diff(recon);
            if worst <= eb {
                Ok(())
            } else {
                Err(format!("max error {worst:e} exceeds bound {eb:e}"))
            }
        }
        ErrorConfig::Precision(p) => {
            let shift = 32 - p.clamp(1, 32);
            let keep = |v: f32| u64::from(monotone(v)) >> shift;
            let (a, b) = (orig.data(), recon.data());
            match a.iter().zip(b).position(|(&x, &y)| keep(x) != keep(y)) {
                None => Ok(()),
                Some(i) => Err(format!(
                    "value {i}: {} -> {} loses precision {p}",
                    a[i], b[i]
                )),
            }
        }
        ErrorConfig::Rate(_) => Err("rate-controlled rows are not exercised".to_owned()),
    }
}

/// A 1-D field over `values` (a stream frame or a whole stream), so
/// sample slices go through the same checks as fields.
pub fn samples(values: &[f32]) -> Field {
    Field::new("samples", Dims::d1(values.len()), values.to_vec())
}

/// Order-preserving map from `f32` bits to `u32` (negative values below
/// positive ones), the integer domain a precision bound truncates.
fn monotone(v: f32) -> u32 {
    let b = v.to_bits();
    if b & 0x8000_0000 != 0 {
        !b
    } else {
        b | 0x8000_0000
    }
}

/// Checks that two value slices are bit-identical.
pub fn same_values(what: &str, want: &[f32], got: &[f32]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("{what}: {} values, want {}", got.len(), want.len()));
    }
    match want
        .iter()
        .zip(got)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        None => Ok(()),
        Some(i) => Err(format!("{what}: value {i} is {} want {}", got[i], want[i])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abs_bound_is_enforced() {
        let a = samples(&[1.0, 2.0, 3.0]);
        let abs = ErrorConfig::Abs(0.1);
        assert!(error_control(&a, &samples(&[1.05, 2.0, 3.0]), &abs).is_ok());
        assert!(error_control(&a, &samples(&[1.5, 2.0, 3.0]), &abs).is_err());
        assert!(error_control(&a, &samples(&[1.0, 2.0]), &abs).is_err());
    }

    #[test]
    fn precision_bound_is_enforced() {
        let a = samples(&[1.0, -2.5]);
        let p12 = ErrorConfig::Precision(12);
        assert!(error_control(&a, &samples(&[1.0001, -2.5001]), &p12).is_ok());
        assert!(error_control(&a, &samples(&[1.5, -2.5]), &p12).is_err());
    }
}
