//! Strongly-typed identifiers used across the Dagger stack.
//!
//! Newtypes keep the many small integer identifiers in the data plane from
//! being confused with one another (a `FlowId` is not a `ConnectionId`), at
//! zero runtime cost.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident($inner:ty)) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub $inner);

        impl $name {
            /// Returns the raw integer value.
            pub fn raw(self) -> $inner {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                $name(v)
            }
        }
    };
}

id_type! {
    /// Identifier of an open RPC connection, the index into the NIC's
    /// connection-manager cache (§4.2).
    ConnectionId(u32)
}

id_type! {
    /// Per-connection monotonically increasing RPC sequence number; matches a
    /// response to its pending request in the completion queue.
    RpcId(u32)
}

id_type! {
    /// Identifier of a remote procedure inside a service (the IDL assigns
    /// one per `rpc` declaration).
    FnId(u16)
}

id_type! {
    /// Identifier of a hardware flow on the NIC. Each flow is 1-to-1 mapped
    /// to an RX/TX ring pair in software (Fig. 7).
    FlowId(u16)
}

id_type! {
    /// Address of an end host (one NIC) on the fabric; the destination
    /// credential stored in the connection tuple.
    NodeAddr(u32)
}

id_type! {
    /// Identifier of a tenant sharing a physical FPGA via NIC virtualization
    /// (Fig. 14).
    TenantId(u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types_with_raw_access() {
        let c = ConnectionId(3);
        let f = FlowId(3);
        assert_eq!(c.raw(), 3);
        assert_eq!(f.raw(), 3);
        // The following would not compile, which is the point:
        // assert_eq!(c, f);
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(ConnectionId(9).to_string(), "9");
        assert_eq!(format!("{:?}", FlowId(2)), "FlowId(2)");
    }

    #[test]
    fn from_raw_integer() {
        let id: RpcId = 5u32.into();
        assert_eq!(id, RpcId(5));
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(RpcId(1) < RpcId(2));
        assert!(NodeAddr(10) > NodeAddr(3));
    }
}
