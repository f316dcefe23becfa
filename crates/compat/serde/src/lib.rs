//! Offline no-op stand-in for `serde`.
//!
//! The build environment cannot reach crates.io, and nothing in this
//! repository serializes through serde: every machine-readable file is
//! written by the `jsonio` crate, and no workspace type derives or
//! bounds on these traits. The shim stays because the simulator crates
//! (and the `pimbench` lockfile, which pins their dependency graph)
//! still declare `serde` as a dependency. The traits are markers with
//! blanket impls and the derive macros expand to nothing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use serde_derive::{Deserialize, Serialize};

/// Marker replacement for `serde::Serialize`; every type satisfies it.
pub trait Serialize {}

impl<T: ?Sized> Serialize for T {}

/// Marker replacement for `serde::Deserialize`; every type satisfies it.
pub trait Deserialize<'de> {}

impl<'de, T: ?Sized> Deserialize<'de> for T {}

/// Marker replacement for `serde::de::DeserializeOwned`.
pub mod de {
    /// Marker for types deserializable without borrowing.
    pub trait DeserializeOwned {}
    impl<T: ?Sized> DeserializeOwned for T {}
}
