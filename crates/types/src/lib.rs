//! Common vocabulary types for the Dagger RPC fabric.
//!
//! This crate defines the data-plane units shared by every other crate in the
//! workspace: the 64-byte [`CacheLine`] that is the MTU of the coherent
//! CPU–NIC interconnect (§4.3 of the paper), the packed [`RpcHeader`] carried
//! in the first bytes of every cache-line frame, strongly-typed identifiers,
//! the hard/soft configuration split of the reconfigurable NIC (§4.1), and
//! the crate-wide error type.
//!
//! # Example
//!
//! ```
//! use dagger_types::{RpcHeader, RpcKind, ConnectionId, RpcId, FnId, FlowId};
//!
//! let hdr = RpcHeader {
//!     connection_id: ConnectionId(7),
//!     rpc_id: RpcId(42),
//!     fn_id: FnId(1),
//!     src_flow: FlowId(3),
//!     kind: RpcKind::Request,
//!     frame_idx: 0,
//!     frame_count: 1,
//!     frame_payload_len: 16,
//!     traced: false,
//!     offloaded: false,
//! };
//! let mut buf = [0u8; dagger_types::HEADER_BYTES];
//! hdr.encode(&mut buf);
//! assert_eq!(RpcHeader::decode(&buf).unwrap(), hdr);
//! ```

pub mod cell;
pub mod config;
pub mod error;
pub mod header;
pub mod ids;
pub mod offload;

pub use cell::{CacheLine, CACHE_LINE_BYTES, FRAME_PAYLOAD_BYTES, HEADER_BYTES};
pub use config::{HardConfig, IfaceKind, LbPolicy};
pub use error::{DaggerError, Result};
pub use header::{RpcHeader, RpcKind};
pub use ids::{ConnectionId, FlowId, FnId, NodeAddr, RpcId, TenantId};
pub use offload::{CacheClass, FnOffload, OffloadSpec, SerdeOp, SerdeTable};
