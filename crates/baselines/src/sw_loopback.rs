//! A real kernel-TCP RPC stack over localhost.
//!
//! Unlike the modeled baselines, this one actually runs: a thread-per-
//! connection echo-style RPC server and a blocking client over
//! `std::net::TcpStream`, with 4-byte-length-prefixed request/response
//! framing and a function-id byte pair. It stands in for "memcached over a
//! native transport based on the Linux kernel networking" (§5.6) in the
//! functional examples, so the Dagger fabric can be compared against an
//! honest software stack on live threads.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use dagger_types::{DaggerError, FnId, Result};

use dagger_rpc::service::{decode_response, encode_response, RpcService};

fn io_err(e: std::io::Error) -> DaggerError {
    if matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    ) {
        DaggerError::Timeout
    } else {
        DaggerError::Fabric(format!("tcp: {e}"))
    }
}

fn write_frame(stream: &mut TcpStream, fn_id: u16, payload: &[u8]) -> Result<()> {
    let mut frame = Vec::with_capacity(6 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&fn_id.to_le_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame).map_err(io_err)
}

fn read_frame(stream: &mut TcpStream) -> Result<(u16, Vec<u8>)> {
    let mut header = [0u8; 6];
    stream.read_exact(&mut header).map_err(io_err)?;
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    let fn_id = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if len > 16 * 1024 * 1024 {
        return Err(DaggerError::Wire(format!("tcp frame of {len} bytes")));
    }
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).map_err(io_err)?;
    Ok((fn_id, payload))
}

/// A running TCP RPC server (thread per connection).
pub struct TcpRpcServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpRpcServer {
    /// Starts the server on an ephemeral localhost port, serving `service`.
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Fabric`] if the listener cannot bind.
    pub fn start(service: Arc<dyn RpcService>) -> Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(io_err)?;
        let addr = listener.local_addr().map_err(io_err)?;
        listener.set_nonblocking(true).map_err(io_err)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("tcp-rpc-accept".to_string())
            .spawn(move || {
                let mut conn_threads = Vec::new();
                loop {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    match listener.accept() {
                        Ok((mut stream, _)) => {
                            let service = Arc::clone(&service);
                            let stop3 = Arc::clone(&stop2);
                            conn_threads.push(std::thread::spawn(move || {
                                let _ = stream.set_nodelay(true);
                                // Bounded reads so shutdown can join this
                                // thread while a client is still connected.
                                let _ = stream
                                    .set_read_timeout(Some(std::time::Duration::from_millis(50)));
                                while !stop3.load(Ordering::Acquire) {
                                    // Peek first: a timeout here consumes
                                    // nothing, so framing never desyncs.
                                    let mut probe = [0u8; 1];
                                    match stream.peek(&mut probe) {
                                        Ok(0) => break, // client closed
                                        Ok(_) => {}
                                        Err(ref e)
                                            if matches!(
                                                e.kind(),
                                                std::io::ErrorKind::WouldBlock
                                                    | std::io::ErrorKind::TimedOut
                                            ) =>
                                        {
                                            continue;
                                        }
                                        Err(_) => break,
                                    }
                                    match read_frame(&mut stream) {
                                        Ok((fn_id, payload)) => {
                                            let outcome = service.dispatch(FnId(fn_id), &payload);
                                            let resp = encode_response(outcome);
                                            if write_frame(&mut stream, fn_id, &resp).is_err() {
                                                break;
                                            }
                                        }
                                        Err(_) => break,
                                    }
                                }
                            }));
                        }
                        Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::yield_now();
                        }
                        Err(_) => break,
                    }
                }
                for t in conn_threads {
                    let _ = t.join();
                }
            })
            .map_err(|e| DaggerError::Fabric(format!("spawn: {e}")))?;
        Ok(TcpRpcServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The server's socket address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops accepting; existing connections close as clients disconnect.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpRpcServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A blocking TCP RPC client.
#[derive(Debug)]
pub struct TcpRpcClient {
    stream: TcpStream,
}

impl TcpRpcClient {
    /// Connects to a [`TcpRpcServer`].
    ///
    /// # Errors
    ///
    /// Returns [`DaggerError::Fabric`] on connect failure.
    pub fn connect(addr: std::net::SocketAddr) -> Result<Self> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        stream.set_nodelay(true).map_err(io_err)?;
        Ok(TcpRpcClient { stream })
    }

    /// Synchronous call over the kernel TCP stack.
    ///
    /// # Errors
    ///
    /// Returns the remote handler's error or a transport error.
    pub fn call_sync(&mut self, fn_id: FnId, payload: &[u8]) -> Result<Vec<u8>> {
        write_frame(&mut self.stream, fn_id.raw(), payload)?;
        let (_, resp) = read_frame(&mut self.stream)?;
        decode_response(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dagger_rpc::ServiceDescriptor;

    struct Echo;
    impl RpcService for Echo {
        fn descriptor(&self) -> ServiceDescriptor {
            ServiceDescriptor::new("echo", vec![FnId(1)])
        }
        fn dispatch(&self, fn_id: FnId, payload: &[u8]) -> Result<Vec<u8>> {
            match fn_id.raw() {
                1 => Ok(payload.to_vec()),
                other => Err(DaggerError::UnknownFunction(other)),
            }
        }
    }

    #[test]
    fn echo_roundtrip_over_tcp() {
        let mut server = TcpRpcServer::start(Arc::new(Echo)).unwrap();
        let mut client = TcpRpcClient::connect(server.addr()).unwrap();
        for i in 0..50u32 {
            let payload = i.to_le_bytes();
            let resp = client.call_sync(FnId(1), &payload).unwrap();
            assert_eq!(resp, payload);
        }
        server.stop();
    }

    #[test]
    fn unknown_function_propagates_error() {
        let mut server = TcpRpcServer::start(Arc::new(Echo)).unwrap();
        let mut client = TcpRpcClient::connect(server.addr()).unwrap();
        let err = client.call_sync(FnId(9), b"x").unwrap_err();
        assert!(err.to_string().contains("unknown function"));
        server.stop();
    }

    #[test]
    fn multiple_concurrent_clients() {
        let mut server = TcpRpcServer::start(Arc::new(Echo)).unwrap();
        let addr = server.addr();
        let threads: Vec<_> = (0..3)
            .map(|t| {
                std::thread::spawn(move || {
                    let mut client = TcpRpcClient::connect(addr).unwrap();
                    for i in 0..20u32 {
                        let v = (t * 1000 + i).to_le_bytes();
                        assert_eq!(client.call_sync(FnId(1), &v).unwrap(), v);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        server.stop();
    }

    #[test]
    fn large_payload_roundtrip() {
        let mut server = TcpRpcServer::start(Arc::new(Echo)).unwrap();
        let mut client = TcpRpcClient::connect(server.addr()).unwrap();
        let payload = vec![0xCD; 100_000];
        assert_eq!(client.call_sync(FnId(1), &payload).unwrap(), payload);
        server.stop();
    }
}
