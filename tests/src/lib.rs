#![forbid(unsafe_code)]
//! Workspace integration tests live in `tests/tests/`. Every test that
//! runs one of the five apps at conformance scale builds it with
//! `udcheck::apps::case`, the one definition of those inputs; every pinned
//! document is hashed with `updown_sim::fnv1a`.
