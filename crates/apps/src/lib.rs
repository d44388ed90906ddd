#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # swmon-apps — reference network functions (the systems under test)
//!
//! Each module implements one of the network functions whose correctness
//! the paper's properties monitor, as an [`swmon_switch::AppLogic`] run by
//! the [`swmon_switch::AppSwitch`] dataplane shell (which emits the
//! monitorable event stream).
//!
//! Every app takes a *fault* enum: `Fault::None` is the correct
//! implementation, the other variants inject the specific bugs its
//! properties are designed to catch. Experiment E9 (the detection matrix)
//! runs every property against every relevant app variant and checks that
//! monitors fire exactly on the buggy ones.

pub mod arp_proxy;
pub mod dhcp_server;
pub mod firewall;
pub mod learning_switch;
pub mod load_balancer;
pub mod nat;
pub mod port_knock;

pub use arp_proxy::{ArpProxy, ArpProxyFault};
pub use dhcp_server::{DhcpServer, DhcpServerFault};
pub use firewall::{Firewall, FirewallFault};
pub use learning_switch::{LearningSwitch, LearningSwitchFault};
pub use load_balancer::{LbFault, LbPolicy, LoadBalancer};
pub use nat::{Nat, NatFault};
pub use port_knock::{KnockGate, KnockGateFault};
