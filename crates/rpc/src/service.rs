//! The service abstraction the generated stubs target.
//!
//! An [`RpcService`] is the server side of one IDL `service` block: it
//! declares which function ids it handles and dispatches decoded requests.
//! The `dagger_service!` macro (in `dagger-idl`) generates typed wrappers
//! implementing this trait; hand-written services are equally welcome.
//!
//! Responses carry a one-byte status prefix on the wire so handler errors
//! propagate to the caller instead of hanging it: `0` = ok followed by the
//! response message, `1` = error followed by a UTF-8 message.

use std::borrow::Cow;

use dagger_types::{DaggerError, FnId, Result};

/// Identity of a service: a display name and the function ids it serves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServiceDescriptor {
    name: String,
    fn_ids: Vec<FnId>,
}

impl ServiceDescriptor {
    /// Creates a descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `fn_ids` is empty or contains the reserved control ids
    /// (`0xFFFE`, `0xFFFF`).
    pub fn new(name: impl Into<String>, fn_ids: Vec<FnId>) -> Self {
        assert!(!fn_ids.is_empty(), "a service must export functions");
        for id in &fn_ids {
            assert!(
                id.raw() < 0xFFFE,
                "function id {id} collides with reserved control ids"
            );
        }
        ServiceDescriptor {
            name: name.into(),
            fn_ids,
        }
    }

    /// The service's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Function ids the service dispatches.
    pub fn fn_ids(&self) -> &[FnId] {
        &self.fn_ids
    }
}

/// A dispatchable RPC service.
pub trait RpcService: Send + Sync + 'static {
    /// The service's identity and exported function ids.
    fn descriptor(&self) -> ServiceDescriptor;

    /// Handles one decoded request; returns the encoded response message.
    ///
    /// # Errors
    ///
    /// Any error is delivered to the caller as a failed call.
    fn dispatch(&self, fn_id: FnId, payload: &[u8]) -> Result<Vec<u8>>;
}

/// Wire status byte for a successful response.
const STATUS_OK: u8 = 0;
/// Wire status byte for a handler error.
const STATUS_ERR: u8 = 1;

/// The two parts of a response payload on the wire: the status byte and
/// what follows it — the handler's message, or its error's text. The
/// server fragments the parts straight into frames; [`encode_response`]
/// joins them.
pub(crate) fn response_parts(outcome: &Result<Vec<u8>>) -> (u8, Cow<'_, [u8]>) {
    match outcome {
        Ok(body) => (STATUS_OK, Cow::Borrowed(body)),
        Err(err) => (STATUS_ERR, Cow::Owned(err.to_string().into_bytes())),
    }
}

/// Wraps a handler outcome into the status-prefixed response payload.
pub fn encode_response(result: Result<Vec<u8>>) -> Vec<u8> {
    let (status, body) = response_parts(&result);
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(status);
    out.extend_from_slice(&body);
    out
}

/// Unwraps a reassembled status-prefixed response payload back into a
/// handler outcome. An ok response's body is `bytes` itself, the status
/// byte stripped in place.
///
/// # Errors
///
/// Returns the remote handler's error for an error status, or
/// [`DaggerError::Wire`] if the status byte is missing/unknown.
pub fn decode_response(mut bytes: Vec<u8>) -> Result<Vec<u8>> {
    match bytes.first() {
        Some(&STATUS_OK) => {
            bytes.remove(0);
            Ok(bytes)
        }
        Some(&STATUS_ERR) => Err(DaggerError::Wire(format!(
            "remote handler error: {}",
            String::from_utf8_lossy(&bytes[1..])
        ))),
        Some(other) => Err(DaggerError::Wire(format!(
            "unknown response status byte {other}"
        ))),
        None => Err(DaggerError::Wire("empty response payload".to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn descriptor_holds_identity() {
        let d = ServiceDescriptor::new("kvs", vec![FnId(1), FnId(2)]);
        assert_eq!(d.name(), "kvs");
        assert_eq!(d.fn_ids(), &[FnId(1), FnId(2)]);
    }

    #[test]
    #[should_panic(expected = "must export functions")]
    fn empty_descriptor_panics() {
        ServiceDescriptor::new("nothing", vec![]);
    }

    #[test]
    #[should_panic(expected = "reserved control ids")]
    fn reserved_fn_id_panics() {
        ServiceDescriptor::new("bad", vec![FnId(0xFFFF)]);
    }

    #[test]
    fn ok_response_roundtrip() {
        let encoded = encode_response(Ok(vec![1, 2, 3]));
        assert_eq!(decode_response(encoded).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn empty_ok_response_roundtrip() {
        let encoded = encode_response(Ok(vec![]));
        assert_eq!(decode_response(encoded).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn error_response_roundtrip() {
        let encoded = encode_response(Err(DaggerError::UnknownFunction(9)));
        let err = decode_response(encoded).unwrap_err();
        assert!(err.to_string().contains("unknown function id 9"), "{err}");
    }

    #[test]
    fn malformed_status_rejected() {
        assert!(decode_response(vec![]).is_err());
        assert!(decode_response(vec![7, 1, 2]).is_err());
    }

    /// An ok body is the reassembled buffer itself, its status byte
    /// stripped in place; every other status is an error, whatever its
    /// bytes.
    #[test]
    fn decode_strips_the_status_byte_in_place() {
        let buf = encode_response(Ok(b"body".to_vec()));
        let ptr = buf.as_ptr();
        let body = decode_response(buf).unwrap();
        assert_eq!((body.as_ptr(), &body[..]), (ptr, &b"body"[..]));
        assert!(decode_response(vec![STATUS_OK]).unwrap().is_empty());
        let err = decode_response(vec![STATUS_ERR, b'n', b'o']).unwrap_err();
        assert_eq!(err, DaggerError::Wire("remote handler error: no".into()));
        let unknown = decode_response(vec![2, STATUS_OK]).unwrap_err();
        assert_eq!(
            unknown,
            DaggerError::Wire("unknown response status byte 2".into())
        );
        let empty = decode_response(Vec::new()).unwrap_err();
        assert_eq!(empty, DaggerError::Wire("empty response payload".into()));
    }

    /// The parts the server fragments are the bytes `encode_response`
    /// joins: one response format.
    #[test]
    fn response_parts_are_the_encoded_response() {
        for outcome in [
            Ok(vec![1, 2, 3]),
            Ok(vec![]),
            Err(DaggerError::UnknownFunction(9)),
        ] {
            let (status, body) = response_parts(&outcome);
            let joined = [&[status][..], &body].concat();
            assert_eq!(joined, encode_response(outcome));
        }
    }
}
