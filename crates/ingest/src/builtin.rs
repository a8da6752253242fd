//! Builtin manifests and app-name resolution.
//!
//! The checked-in `manifests/*.json` files *are* the builtin apps: each is
//! embedded at compile time and parsed on demand, so every builtin has one
//! definition. `tests/app_goldens.rs` pins h264, fft and cipher against
//! frozen catalogues, traces and `RunStats`; `toy` is compared live with
//! the `mrts-workload` synthetic app. The two domains beyond the paper:
//!
//! * `cv` — a stereo/optical-flow pipeline (census transform, cost
//!   aggregation, winner-take-all, gradients, flow update, warp). Stereo
//!   work tracks texture, flow work tracks motion, and a scene change
//!   re-initialises tracking (census spike, flow collapse).
//! * `cryptomix` — a bursty crypto+compression server mix (match finding,
//!   entropy coding, checksums, an AES-like round, key expansion). Scene
//!   changes stand in for request bursts, so frame-to-frame load is far
//!   spikier than the video apps'.

use crate::manifest::Manifest;
use crate::model::ManifestModel;
use crate::IngestError;

/// The builtin app names, in registry order.
pub const BUILTIN_APPS: [&str; 6] = ["h264", "fft", "cipher", "toy", "cv", "cryptomix"];

/// The builtin manifest for `name`, if `name` is one of [`BUILTIN_APPS`].
///
/// # Panics
///
/// Never for the checked-in files: `tests/ingest_goldens.rs` parses every
/// one of them.
#[must_use]
pub fn manifest_for(name: &str) -> Option<Manifest> {
    let text = match name {
        "h264" => include_str!("../../../manifests/h264.json"),
        "fft" => include_str!("../../../manifests/fft.json"),
        "cipher" => include_str!("../../../manifests/cipher.json"),
        "toy" => include_str!("../../../manifests/toy.json"),
        "cv" => include_str!("../../../manifests/cv.json"),
        "cryptomix" => include_str!("../../../manifests/cryptomix.json"),
        _ => return None,
    };
    Some(Manifest::from_json(text).expect("embedded builtin manifest parses"))
}

/// Resolves `spec` — a builtin app name or a manifest file path — to a
/// manifest. A spec containing `/` or ending in `.json` is treated as a
/// path; anything else must be a builtin name.
///
/// # Errors
///
/// [`IngestError::Io`] for unknown names/unreadable files, parse errors
/// otherwise.
pub fn load(spec: &str) -> Result<Manifest, IngestError> {
    if let Some(m) = manifest_for(spec) {
        return Ok(m);
    }
    if spec.contains('/') || spec.ends_with(".json") {
        let text = std::fs::read_to_string(spec)
            .map_err(|e| IngestError::Io(format!("cannot read manifest '{spec}': {e}")))?;
        return Manifest::from_json(&text);
    }
    Err(IngestError::Io(format!(
        "unknown app '{spec}' (h264|fft|cipher|toy|cv|cryptomix or a manifest path)"
    )))
}

/// Resolves `spec` (see [`load`]) and lowers it to a ready workload model —
/// the single entry point the CLI, fleet registry and benches share.
///
/// # Errors
///
/// Propagates [`load`] and pipeline errors.
pub fn model(spec: &str) -> Result<ManifestModel, IngestError> {
    ManifestModel::new(&load(spec)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrts_workload::WorkloadModel;

    #[test]
    fn resolution_understands_names_and_rejects_junk() {
        assert!(model("cv").is_ok());
        assert!(model("cryptomix").is_ok());
        let err = model("bogus").unwrap_err();
        assert!(err.to_string().contains("unknown app 'bogus'"));
        assert!(model("no/such/file.json").is_err());
    }

    #[test]
    fn new_domains_have_the_intended_shape() {
        let cv = model("cv").expect("cv lowers");
        assert_eq!(cv.application().kernel_count(), 6);
        assert_eq!(cv.application().blocks().len(), 3);
        let mix = model("cryptomix").expect("cryptomix lowers");
        assert_eq!(mix.application().kernel_count(), 5);
        assert_eq!(mix.application().blocks().len(), 2);
        assert_eq!(mix.application().name(), "crypto_mix");
    }
}
