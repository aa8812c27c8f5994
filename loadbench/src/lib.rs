//! An outside-in benchmark of the cqsep service: a single-process load
//! generator against a real `cqsep-router --shards 2`, every reply
//! checked against an in-process oracle, and a separate traced run that
//! splits request time across the workspace's layers. See `README.md`.

pub mod drive;
pub mod fleet;
pub mod gen;
pub mod oracle;
pub mod report;
pub mod stats;
pub mod timed;
pub mod trace;
