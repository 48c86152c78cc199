//! Shared nothing — each example is a self-contained binary. This empty
//! library target exists only so the `quorum-examples` package has a lib
//! root for `cargo doc`.
