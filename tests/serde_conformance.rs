//! C-SERDE conformance: every configuration / result type that plays the
//! role of a data structure implements `Serialize` and `Deserialize`, so
//! downstream users can persist experiment configs and results.
//!
//! (The approved offline dependency set has no serde data format, so these
//! are compile-time conformance checks rather than byte round-trips.)

use serde::de::DeserializeOwned;
use serde::Serialize;

fn is_serde<T: Serialize + DeserializeOwned>() {}
fn is_serialize<T: Serialize>() {}

#[test]
fn simnet_types_are_serde() {
    is_serde::<da_simnet::SimConfig>();
    is_serde::<da_core::ChannelConfig>();
    is_serde::<da_core::FailureModel>();
    is_serde::<da_core::Fate>();
    is_serde::<da_core::ProcessId>();
    is_serde::<da_simnet::RoundReport>();
    is_serde::<da_core::Counters>();
    is_serde::<da_membership::Overlay>();
}

#[test]
fn run_config_types_are_serde() {
    is_serde::<da_core::RunConfig>();
    is_serde::<da_core::PoolConfig>();
    is_serde::<da_runtime::RuntimeConfig>();
}

#[test]
fn fault_and_topology_types_are_serde() {
    is_serde::<da_core::FaultConfig>();
    is_serde::<da_core::NetworkModel>();
    is_serde::<da_core::Topology>();
    is_serde::<da_core::NodeId>();
    is_serde::<da_core::Partition>();
    is_serde::<da_core::PartitionSchedule>();
}

#[test]
fn trace_types_are_serde() {
    is_serde::<da_core::TraceConfig>();
    is_serde::<da_core::TraceMode>();
    is_serde::<da_core::TraceEvent>();
    is_serde::<da_core::TraceVerdict>();
    is_serde::<da_core::Histogram>();
}

#[test]
fn membership_types_are_serde() {
    is_serde::<da_membership::MembershipParams>();
    is_serde::<da_membership::FanoutRule>();
    is_serde::<da_membership::PartialView>();
    is_serde::<da_membership::MembershipMsg>();
}

#[test]
fn topic_types_are_serde() {
    is_serde::<da_topics::TopicId>();
    is_serde::<da_topics::TopicPath>();
    is_serde::<da_topics::TopicHierarchy>();
}

#[test]
fn core_types_are_serde() {
    is_serde::<damulticast::TopicParams>();
    is_serde::<damulticast::ParamMap>();
    is_serde::<damulticast::EventId>();
    is_serde::<damulticast::SuperEntry>();
    is_serde::<damulticast::SuperTable>();
    is_serde::<damulticast::BootstrapTask>();
    is_serde::<damulticast::MaintenanceTask>();
}

#[test]
fn harness_types_are_serde() {
    is_serde::<da_harness::stats::Summary>();
    is_serde::<da_harness::report::SeriesTable>();
    is_serde::<da_harness::report::KeyedTable>();
    is_serde::<da_harness::scenario::ScenarioConfig>();
    is_serde::<da_harness::scenario::FailureKind>();
    is_serialize::<da_harness::scenario::ScenarioOutcome>();
}

#[test]
fn analysis_types_are_serde() {
    is_serde::<da_analysis::complexity::GroupLevel>();
    is_serde::<da_analysis::tuning::CRange>();
}
