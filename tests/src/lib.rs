#![forbid(unsafe_code)]
//! Workspace integration tests live in `tests/tests/`.

/// FNV-1a, the hash the analyzer documents are pinned by
/// (`tests/tests/ud{check,race,spec,cost}.rs`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
